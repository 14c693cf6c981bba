import dataclasses

import pytest

from quasivar import ExponentConfig


@pytest.fixture(scope="session")
def coupled_cfg() -> ExponentConfig:
    """Coupled supercritical reference configuration (N=2, p=1.5, s=1)."""
    return ExponentConfig(N=2, p1=1.5, p2=1.5, s1=1.0, s2=1.0,
                          q1=8.0, q2=8.0, gamma1=4.0, gamma2=4.0,
                          theta1=0.125, theta2=0.125, c_star=1.0)


@pytest.fixture(scope="session")
def mixed_cfg(coupled_cfg) -> ExponentConfig:
    """Coupled variant whose two components differ in p, s and gamma."""
    return dataclasses.replace(coupled_cfg, p2=3.0, s2=0.5, gamma1=3.0,
                               gamma2=2.5)


@pytest.fixture(scope="session")
def low_sp_cfg(coupled_cfg) -> ExponentConfig:
    """Coupled variant with s p = 0.75 < 1 and gamma < 1, so |t|^{sp-1} and
    |u|^{gamma-1} are singular at 0 (inadmissible; evaluator tests only)."""
    return dataclasses.replace(coupled_cfg, s1=0.5, s2=0.5, gamma1=0.7,
                               gamma2=0.7)


@pytest.fixture(scope="session")
def nondyadic_cfg(coupled_cfg) -> ExponentConfig:
    """Coupled variant whose exponents are not dyadic rationals."""
    return dataclasses.replace(coupled_cfg, p1=1.3, p2=2.7, s1=0.8, s2=1.6,
                               q1=7.0, q2=9.0, gamma1=2.5, gamma2=3.5,
                               c_star=2.5)


@pytest.fixture(scope="session")
def decoupled_cfg() -> ExponentConfig:
    """Decoupled subcritical reference configuration (N=2, p=2, s=0)."""
    return ExponentConfig(N=2, p1=2.0, p2=2.0, s1=0.0, s2=0.0,
                          q1=4.0, q2=4.0, theta1=0.25, theta2=0.25,
                          c_star=0.0)


@pytest.fixture(scope="session")
def decoupled_cfg_1d() -> ExponentConfig:
    """One-dimensional variant of the decoupled config for BVP oracles."""
    return ExponentConfig(N=1, p1=2.0, p2=2.0, s1=0.0, s2=0.0,
                          q1=4.0, q2=4.0, theta1=0.25, theta2=0.25,
                          c_star=0.0)
