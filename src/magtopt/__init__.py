"""Topological-derivative topology optimization for 2D quasilinear
magnetostatics: nonlinear state/adjoint FEM, closed-form polarization
matrices, exterior cell problems for the nonlinear correction term, and a
level-set descent algorithm."""

__version__ = "0.1.0"
