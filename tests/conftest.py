import math

import pytest

import oemsim as om
from oemsim.cli import invert_cooperativity


@pytest.fixture(scope="session")
def params():
    return om.default_params()


@pytest.fixture(scope="session")
def drives_c40(params):
    """Coupling powers producing C1 = C2 = 40 at the pinned operating point."""
    return invert_cooperativity(params, 40.0, 40.0)[0]


@pytest.fixture(scope="session")
def wp_c40(params, drives_c40):
    return om.solve_working_point(params, drives_c40)


@pytest.fixture(scope="session")
def scaled_model():
    """Rate-hierarchy oscillator set scaled so time-domain tests settle fast.

    kappa1 = 100, gamma_m = 10, kappa2 = 1, omega_m = 1e4 (all rad/s),
    couplings set for C1 = C2 = 40 via G_i^2 = C_i kappa_i gamma_m / 2.
    """
    return om.OscillatorModel(
        delta1=1e4,
        delta2=1e4,
        omega_m=1e4,
        kappa1=100.0,
        kappa2=1.0,
        gamma_m_half=5.0,
        g_eff1=math.sqrt(40.0 * 100.0 * 10.0 / 2.0),
        g_eff2=math.sqrt(40.0 * 1.0 * 10.0 / 2.0),
    )
