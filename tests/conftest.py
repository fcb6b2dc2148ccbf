"""Shared fixtures. Heavy artifacts (disc meshes, correction tables) are
session-scoped and memoized so the acceptance tests can share them."""
import numpy as np
import pytest

from magtopt.cell_problems import DiscSpec, PerturbationCase, build_correction_table, disc_mesh
from magtopt.cli import DEFAULTS
from magtopt.material import LinearCurve, MarroccoCurve


@pytest.fixture(scope="session")
def marrocco():
    return MarroccoCurve()


@pytest.fixture(scope="session")
def linear_stub():
    return LinearCurve(nu_linear=1000.0)


#: coarse disc for fast module tests; default resolution for acceptance
COARSE_SPEC = DiscSpec(radius=1000.0, h0=0.1, growth=1.15, n_theta=64)
DEFAULT_SPEC = DiscSpec()


@pytest.fixture(scope="session")
def disc_coarse():
    return disc_mesh(COARSE_SPEC)


@pytest.fixture(scope="session")
def disc_default():
    return disc_mesh(DEFAULT_SPEC)


@pytest.fixture(scope="session")
def table1_default(marrocco):
    """Case-I table on the CLI's default grid (61 points to 3 T) and disc."""
    grid = np.linspace(0.0, float(DEFAULTS["t_max"]), int(DEFAULTS["n_samples"]))
    return build_correction_table(marrocco, PerturbationCase.AIR_IN_FERRO, grid,
                                  DEFAULT_SPEC)


@pytest.fixture(scope="session")
def tables_coarse(marrocco):
    grid = np.linspace(0.0, 2.5, 11)
    t1 = build_correction_table(marrocco, PerturbationCase.AIR_IN_FERRO, grid, COARSE_SPEC)
    t2 = build_correction_table(marrocco, PerturbationCase.FERRO_IN_AIR, grid, COARSE_SPEC)
    return t1, t2
