"""Pointwise material-swap sensitivities and their assembly over the design
region, one value per DESIGN element.

Each sensitivity is a bilinear form in the local state and adjoint
gradients: the closed-form matrix term plus the tabulated nonlinear
correction. The objective itself lives in the air gap, outside the design
region, so the direct functional variation is zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polarization
from .cell_problems import CorrectionTable, eval_correction
from .fem import StateResult
from .mesh import Region


def g_ferro_to_air(curve, grad_u, grad_p,
                   table: CorrectionTable) -> float:
    """Sensitivity of the objective to an air disk nucleating in ferromagnetic
    material where the state/adjoint gradients are grad_u/grad_p."""
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    M = polarization.matrix_air_in_ferro(curve, grad_u)
    return float(grad_u @ M @ grad_p) + eval_correction(table, grad_u, grad_p)


def g_air_to_ferro(curve, grad_u, grad_p,
                   table: CorrectionTable) -> float:
    """Sensitivity to a ferromagnetic disk nucleating in air."""
    grad_u = np.asarray(grad_u, dtype=float)
    grad_p = np.asarray(grad_p, dtype=float)
    M = polarization.matrix_ferro_in_air(curve, grad_u)
    return float(grad_u @ M @ grad_p) + eval_correction(table, grad_u, grad_p)


@dataclass
class TopoDerivField:
    """Generalized topological derivative over the design region.

    element_values holds one scalar per DESIGN element, in element order;
    n_clamped counts the table lookups that clamped.
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
    design = np.flatnonzero(mesh.region == Region.DESIGN)
    gu = mesh.element_gradients(state.field, design)
    gp = mesh.element_gradients(p, design)
    ferro = state.ferro_mask[design]

    vals = np.empty(design.size)
    n_clamped = 0
    for mask, sign, matrix, table in (
            (ferro, 1.0, polarization.matrix_air_in_ferro, table_air_in_ferro),
            (~ferro, -1.0, polarization.matrix_ferro_in_air, table_ferro_in_air)):
        M = matrix(curve, gu[mask])
        corr, clamped = table.lookup(gu[mask], gp[mask])
        vals[mask] = sign * (np.einsum("ei,eij,ej->e", gu[mask], M, gp[mask])
                             + corr)
        n_clamped += clamped
    return TopoDerivField(vals, n_clamped)
