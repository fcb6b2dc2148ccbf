"""Topological-derivative topology optimization for 2D quasilinear
magnetostatics: nonlinear state/adjoint FEM, closed-form polarization
matrices, exterior cell problems for the nonlinear correction term, and a
level-set descent algorithm."""

from .material import (NU0, AssumptionReport, LinearCurve, MarroccoCurve,
                       SplineCurve, eval_nu, flux_jacobian, flux_map,
                       nonlinearity, validate_assumptions)
from .mesh import (Boundary, Region, TriMesh, generate_disc_mesh,
                   generate_mini_motor, generate_square_benchmark, load_mesh,
                   save_mesh, unit_square_mesh)
from .fem import (SolverError, SourceSpec, assemble_rhs, solve_adjoint,
                  solve_state)
from .polarization import (Anisotropy2, matrix_air_in_ferro, matrix_ferro_in_air,
                           polarization_disk, polarization_ellipse,
                           polarization_general)
from .cell_problems import (DiscSpec, CorrectionTable, PerturbationCase,
                            analytic_adjoint_variation, build_correction_table, compute_correction,
                            eval_correction, load_table, save_table, solve_direct_variation, solve_adjoint_variation)
from .topo_derivative import (TopoDerivField, assemble_generalized_td,
                              g_air_to_ferro, g_ferro_to_air)
from .problem_setup import (ObjectiveSpec, Problem, assemble_adjoint_rhs,
                            build_benchmark_problem, eval_objective,
                            make_objective)
from .optimizer import (DesignSpace, LevelSetField, OptimizerOptions,
                        OptState, l2_inner, run, slerp, step)

__version__ = "0.1.0"
