"""Pointwise material-swap sensitivities and their assembly over the design
region into the generalized descent field.

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
from .fem import ScalarField, ferro_element_mask
from .mesh import Region, TriMesh


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
    """Generalized descent field over the design region.

    element_values holds one scalar per DESIGN element (indexed by
    design_elements); nodal is the area-weighted projection onto the nodes of
    design elements, zero elsewhere. The branch counters record how many
    elements took each sensitivity (plumbing check).
    """
    mesh: TriMesh
    design_elements: np.ndarray
    element_values: np.ndarray
    nodal: np.ndarray
    n_ferro_to_air: int
    n_air_to_ferro: int


def assemble_generalized_td(mesh: TriMesh, curve, levelset, u0, p0,
                            table_air_in_ferro: CorrectionTable,
                            table_ferro_in_air: CorrectionTable) -> TopoDerivField:
    """Per DESIGN element: the ferro-to-air sensitivity where the level set is
    positive at the centroid, minus the air-to-ferro sensitivity elsewhere.

    The gradients entering the sensitivities are the element-constant P1
    gradients of the state u0 and adjoint p0. The nodal projection averages
    incident design elements with area weights (consumed by the level-set
    update).
    """
    u = u0.values if isinstance(u0, ScalarField) else np.asarray(u0, float)
    p = p0.values if isinstance(p0, ScalarField) else np.asarray(p0, float)
    design = np.flatnonzero(mesh.region == Region.DESIGN)
    gu = mesh.element_gradients(u)[design]
    gp = mesh.element_gradients(p)[design]
    ferro = ferro_element_mask(mesh, levelset)[design]

    vals = np.empty(design.size)
    n1 = n2 = 0
    for i in range(design.size):
        if ferro[i]:
            vals[i] = g_ferro_to_air(curve, gu[i], gp[i],
                                     table_air_in_ferro)
            n1 += 1
        else:
            vals[i] = -g_air_to_ferro(curve, gu[i], gp[i],
                                      table_ferro_in_air)
            n2 += 1

    nodal = np.zeros(mesh.n_nodes)
    wsum = np.zeros(mesh.n_nodes)
    tr = mesh.tris[design]
    w = np.repeat(mesh.areas[design], 3)
    np.add.at(nodal, tr.ravel(), w * np.repeat(vals, 3))
    np.add.at(wsum, tr.ravel(), w)
    nz = wsum > 0
    nodal[nz] /= wsum[nz]
    return TopoDerivField(mesh, design, vals, nodal, n1, n2)
