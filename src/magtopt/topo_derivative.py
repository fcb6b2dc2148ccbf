"""Assembly of the material-swap sensitivities over the design region, one
value per DESIGN element.

Each sensitivity is a bilinear form in the local state and adjoint
gradients: the closed-form polarization factor d1(|grad u|) times the one
dot product grad u . grad p, plus the tabulated nonlinear correction. The
objective itself lives in the air gap, outside the design region, so the
direct functional variation is zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polarization
# eval_correction is unused here; perfbench's tracer test reads it by this name
from .cell_problems import CorrectionTable, eval_correction
from .fem import StateResult


@dataclass
class TopoDerivField:
    """Generalized topological derivative over the design region.

    element_values holds one scalar per DESIGN element, in the order of
    mesh.design_elements(); n_clamped counts the table lookups that clamped.
    """
    element_values: np.ndarray
    n_clamped: int


def assemble_generalized_td(state: StateResult, p: np.ndarray,
                            table_air_in_ferro: CorrectionTable,
                            table_ferro_in_air: CorrectionTable) -> TopoDerivField:
    """Per DESIGN element: the ferro-to-air sensitivity where the solved
    design `state` holds ferromagnetic material, minus the air-to-ferro
    sensitivity elsewhere.

    The gradients entering the sensitivities are the element-constant P1
    gradients of the state u (state.field) and the nodal adjoint p (n,).
    """
    mesh, curve = state.mesh, state.curve
    design = mesh.design_elements()
    gu = mesh.element_gradients(state.field)[design]
    gp = mesh.element_gradients(p)[design]
    ferro = state.ferro_mask[design]
    dot = np.einsum("ei,ei->e", gu, gp)

    vals = np.empty(design.size)
    n_clamped = 0
    # both factors run even for an empty branch; the tracer counts their calls
    for mask, sign, matrix, table in (
            (ferro, 1.0, polarization.matrix_air_in_ferro, table_air_in_ferro),
            (~ferro, -1.0, polarization.matrix_ferro_in_air, table_ferro_in_air)):
        corr, clamped = table.lookup(gu[mask], gp[mask])
        vals[mask] = sign * (matrix(curve, gu[mask]) * dot[mask] + corr)
        n_clamped += clamped
    return TopoDerivField(vals, n_clamped)
