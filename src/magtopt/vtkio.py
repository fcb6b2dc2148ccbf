"""Legacy ASCII VTK export (UNSTRUCTURED_GRID) for external visualization."""
from __future__ import annotations

import numpy as np

from .mesh import TriMesh

_VTK_TRIANGLE = 5


def write_vtk(path, mesh: TriMesh, point_data: dict = None,
              cell_data: dict = None, title: str = "magtopt") -> None:
    """Write the mesh with optional nodal and per-element scalar fields.

    The title line carries provenance (e.g. the config hash); it is limited
    to 255 characters by the legacy format.
    """
    point_data = point_data or {}
    cell_data = cell_data or {}
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(title[:255] + "\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_nodes} double\n")
        f.write("".join(f"{x:.17g} {y:.17g} 0\n"
                        for x, y in mesh.nodes.tolist()))
        f.write(f"CELLS {mesh.n_tris} {4 * mesh.n_tris}\n")
        f.write("".join(f"3 {i} {j} {k}\n" for i, j, k in mesh.tris.tolist()))
        f.write(f"CELL_TYPES {mesh.n_tris}\n")
        f.write("\n".join([str(_VTK_TRIANGLE)] * mesh.n_tris) + "\n")
        if point_data:
            f.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, vals in point_data.items():
                _write_scalars(f, name, vals)
        if cell_data:
            f.write(f"CELL_DATA {mesh.n_tris}\n")
            for name, vals in cell_data.items():
                _write_scalars(f, name, vals)


def _write_scalars(f, name, vals):
    vals = np.asarray(vals, dtype=float).tolist()
    f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
    f.write("".join(f"{v:.17g}\n" for v in vals))
