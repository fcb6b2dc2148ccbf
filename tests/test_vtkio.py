import numpy as np

from magtopt import vtkio
from magtopt.mesh import TriMesh


def test_exact_bytes(tmp_path):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.1, 2.0 / 3.0], [1.0, 1.0]])
    mesh = TriMesh(nodes, np.array([[0, 1, 2], [1, 3, 2]]), np.array([1, 2]),
                   np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int8))
    path = tmp_path / "two.vtk"
    vtkio.write_vtk(path, mesh, point_data={"u": [0.1, -1e-300, 1.0 / 3.0, 2]},
                    cell_data={"ferro": np.array([True, False])}, title="t")
    assert path.read_bytes() == (
        b"# vtk DataFile Version 3.0\nt\nASCII\nDATASET UNSTRUCTURED_GRID\n"
        b"POINTS 4 double\n"
        b"0 0 0\n1 0 0\n0.10000000000000001 0.66666666666666663 0\n1 1 0\n"
        b"CELLS 2 8\n3 0 1 2\n3 1 3 2\n"
        b"CELL_TYPES 2\n5\n5\n"
        b"POINT_DATA 4\nSCALARS u double 1\nLOOKUP_TABLE default\n"
        b"0.10000000000000001\n-1e-300\n"
        b"0.33333333333333331\n2\n"
        b"CELL_DATA 2\nSCALARS ferro double 1\nLOOKUP_TABLE default\n1\n0\n")
