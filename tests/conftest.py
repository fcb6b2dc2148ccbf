"""Shared fixtures. Heavy artifacts (disc meshes, correction tables) are
session-scoped and memoized so the acceptance tests can share them."""
from dataclasses import replace

import numpy as np
import pytest

from magtopt.cell_problems import PerturbationCase, build_correction_table, disc_mesh
from magtopt.cli import DEFAULTS, disc_spec
from magtopt.material import LinearCurve, MarroccoCurve


@pytest.fixture(scope="session")
def marrocco():
    return MarroccoCurve()


@pytest.fixture(scope="session")
def linear_stub():
    return LinearCurve(nu_linear=1000.0)


#: the CLI's default disc for acceptance; the coarse disc, half its
#: resolution, for fast module tests
DEFAULT_SPEC = disc_spec(DEFAULTS)
COARSE_SPEC = replace(DEFAULT_SPEC, h0=0.1, n_theta=64)


@pytest.fixture(scope="session")
def default_spec():
    return DEFAULT_SPEC


@pytest.fixture(scope="session")
def coarse_spec():
    return COARSE_SPEC


@pytest.fixture(scope="session")
def disc_coarse():
    return disc_mesh(COARSE_SPEC)


@pytest.fixture(scope="session")
def disc_default():
    return disc_mesh(DEFAULT_SPEC)


#: the CLI's default table grid, 61 points to 3 T
DEFAULT_GRID = np.linspace(0.0, float(DEFAULTS["t_max"]), int(DEFAULTS["n_samples"]))


@pytest.fixture(scope="session")
def table1_default(marrocco):
    """Case-I table on the CLI's default grid and disc."""
    return build_correction_table(marrocco, PerturbationCase.AIR_IN_FERRO,
                                  DEFAULT_GRID, DEFAULT_SPEC)


@pytest.fixture(scope="session")
def table2_default(marrocco):
    """Case-II table on the CLI's default grid and disc."""
    return build_correction_table(marrocco, PerturbationCase.FERRO_IN_AIR,
                                  DEFAULT_GRID, DEFAULT_SPEC)


@pytest.fixture(scope="session")
def tables_coarse(marrocco):
    grid = np.linspace(0.0, 2.5, 11)
    t1 = build_correction_table(marrocco, PerturbationCase.AIR_IN_FERRO, grid, COARSE_SPEC)
    t2 = build_correction_table(marrocco, PerturbationCase.FERRO_IN_AIR, grid, COARSE_SPEC)
    return t1, t2
