"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible through pytest's
capture) and then asserts, so the printed verdict always matches the
pytest outcome.  Tolerances and runtime budgets are stated inline.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import quasivar as qv
from quasivar.cli import gradcheck_slope

from oracles import model_ground_state
from util import random_admissible_configs

COUPLED = qv.ExponentConfig(N=2, p1=1.5, p2=1.5, s1=1.0, s2=1.0,
                            q1=8.0, q2=8.0, gamma1=4.0, gamma2=4.0,
                            theta1=0.125, theta2=0.125, c_star=1.0)
DECOUPLED = qv.ExponentConfig(N=2, p1=2.0, p2=2.0, s1=0.0, s2=0.0,
                              q1=4.0, q2=4.0, theta1=0.25, theta2=0.25,
                              c_star=0.0)
DECOUPLED_1D = dataclasses.replace(DECOUPLED, N=1)


@pytest.fixture
def verdict(capsys):
    def _print(criterion: int, name: str, ok: bool, detail: str = ""):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            extra = f" ({detail})" if detail else ""
            print(f"\nCRITERION {criterion} [{name}]: {status}{extra}")
    return _print


def test_criterion_1_exponent_suite(verdict):
    """Reference config passes with exact rational margins; runtime < 1 s."""
    t0 = time.time()
    ok = True
    report = qv.check_model_hypotheses(COUPLED)
    ok &= report.admissible
    derived = report.derived
    ok &= derived.t1 == 7.0 and derived.t3 == 8.25 and derived.qbar1 == 8.25
    ok &= report.record("exj02_12").margin == 1.25  # exactly 8.25 - 7
    ok &= report.record("exj02_21").margin == 1.25
    flipped = qv.check_model_hypotheses(
        dataclasses.replace(COUPLED, gamma1=5.0, gamma2=5.0))
    ok &= not flipped.admissible
    ok &= not flipped.record("exj02_12").satisfied
    ok &= flipped.record("exj02_12").margin == float(
        Fraction(33, 4) - Fraction(35, 3))
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    verdict(1, "exponent suite", ok,
            f"exact margin 1.25, gamma=5 flips, {elapsed:.2f}s")
    assert ok


def test_criterion_2_derived_exponent_consistency(verdict):
    """1000 random admissible configs satisfy the derived bounds; < 10 s."""
    t0 = time.time()
    configs = random_admissible_configs(1000, seed=0)
    violations = 0
    for cfg in configs:
        d = qv.derive_auxiliary_exponents(cfg)
        cap = (cfg.p1 / cfg.N) * qv.critical_exponent(cfg.p2, cfg.N) \
            * (cfg.s2 + 1.0)
        ok_t4 = d.t4 < cap
        ok_q1 = cfg.p1 < d.qbar1 / (cfg.s1 + 1) \
            < qv.critical_exponent(cfg.p1, cfg.N)
        ok_q2 = cfg.p2 < d.qbar2 / (cfg.s2 + 1) \
            < qv.critical_exponent(cfg.p2, cfg.N)
        if not (ok_t4 and ok_q1 and ok_q2):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 10.0
    verdict(2, "derived-exponent consistency", ok,
            f"1000 configs, {violations} violations, {elapsed:.2f}s")
    assert ok


def test_criterion_3_differential_consistency(verdict):
    """Central-difference slope of J vs dJ_apply in [1.8, 2.2]; < 30 s."""
    t0 = time.time()
    grid = qv.Grid(2, 33)
    slopes = []
    for cfg in (COUPLED, DECOUPLED):
        for seed in range(5):
            slope, _ = gradcheck_slope(qv.ModelFunctions(cfg), grid, seed)
            slopes.append(slope)
    elapsed = time.time() - t0
    ok = all(1.8 <= s <= 2.2 for s in slopes) and elapsed < 30.0
    verdict(3, "differential consistency", ok,
            f"10 slopes in [{min(slopes):.3f}, {max(slopes):.3f}], {elapsed:.2f}s")
    assert ok


def _power_gradient_sides(n: int, s: float, p: float) -> tuple[float, float]:
    g = qv.Grid(2, n)
    gf = qv.GridFunction.from_callable(
        g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    lhs = qv.integrate(np.sum(
        g.element_gradients(qv.power_map(gf, s).values) ** 2,
        axis=-1) ** (p / 2), g)
    m = np.abs(g.midpoint_values(gf.values))
    grad_p = np.sum(g.element_gradients(gf.values) ** 2, axis=-1) ** (p / 2)
    rhs = (s + 1.0) ** p * qv.integrate(m ** (s * p) * grad_p, g)
    return lhs, rhs


def test_criterion_4_power_map_gradient_identity(verdict):
    """Chain-rule identity within 5% at n=129, first-order refinement."""
    ok = True
    worst = 0.0
    worst_order = math.inf
    for s in (0.5, 1.0, 2.0):
        for p in (1.5, 2.0, 3.0):
            l1, r1 = _power_gradient_sides(129, s, p)
            l2, r2 = _power_gradient_sides(257, s, p)
            d1 = abs(l1 - r1) / abs(r1)
            d2 = abs(l2 - r2) / abs(r2)
            order = math.log2(d1 / d2)
            worst = max(worst, d1)
            worst_order = min(worst_order, order)
            ok &= d1 < 0.05 and d2 < d1 and order > 0.8
    verdict(4, "power-map gradient identity", ok,
            f"worst rel. discrepancy {worst:.2e}, min order {worst_order:.2f}")
    assert ok


def test_criterion_5_eigenvalue_oracles(verdict):
    """lambda1 = pi^2 (1D) and 2 pi^2 (2D); quotient consistent; < 60 s."""
    t0 = time.time()
    pair1 = qv.first_eigenpair(2.0, qv.Grid(1, 1025))
    err1 = abs(pair1.lambda1 - math.pi ** 2) / math.pi ** 2
    pair2 = qv.first_eigenpair(2.0, qv.Grid(2, 129))
    err2 = abs(pair2.lambda1 - 2 * math.pi ** 2) / (2 * math.pi ** 2)
    rq1 = abs(qv.rayleigh_quotient(pair1.phi1, 2.0) - pair1.lambda1)
    rq2 = abs(qv.rayleigh_quotient(pair2.phi1, 2.0) - pair2.lambda1)
    elapsed = time.time() - t0
    ok = (err1 < 1e-3 and err2 < 1e-2 and rq1 < 1e-10 and rq2 < 1e-10
          and elapsed < 60.0)
    verdict(5, "eigenvalue oracles", ok,
            f"rel. err 1D {err1:.2e}, 2D {err2:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_6_structural_sampling(verdict):
    """Pointwise hypotheses on 1e5 seeded samples; evenness exact."""
    mf = qv.ModelFunctions(COUPLED)
    consts = qv.compute_model_constants(COUPLED)
    rep = qv.sample_structural_hypotheses(mf, n_samples=100_000, seed=0)
    ok = True
    ok &= rep.margin("h3").min_margin == 0.0  # exact equality, mu0 = 1
    ok &= rep.margin("h5").min_margin >= 0.0
    ok &= consts.mu2_1 == float(Fraction(2, 3) - Fraction(1, 4))
    ok &= rep.margin("g3").min_margin >= 0.0
    # evenness identities hold exactly at sampled points
    rng = np.random.default_rng(1)
    t = rng.uniform(-5, 5, 1000)
    xi = rng.uniform(-5, 5, (1000, 2))
    u, v = rng.uniform(-5, 5, (2, 1000))
    ok &= bool(np.all(mf.A_eval(-t, -xi) == mf.A_eval(t, xi)))
    ok &= bool(np.all(mf.G_eval(-u, -v) == mf.G_eval(u, v)))
    verdict(6, "structural sampling", ok,
            f"h3 margin {rep.margin('h3').min_margin!r}, "
            f"h5 min {rep.margin('h5').min_margin:.2e}, "
            f"g3 min {rep.margin('g3').min_margin!r}")
    assert ok


def test_criterion_7_mountain_pass_geometry(verdict):
    """Decoupled config: sphere positivity at r0=0.1 and J(e) < -1; < 60 s."""
    t0 = time.time()
    grid = qv.Grid(2, 33)
    cert = qv.certify_geometry(DECOUPLED, grid, 0.1, n_samples=256, seed=0)
    elapsed = time.time() - t0
    ok = (cert.validated and cert.rho0 > 0.0 and cert.endpoint_level < -1.0
          and elapsed < 60.0)
    verdict(7, "mountain-pass geometry", ok,
            f"rho0 {cert.rho0:.4e}, J(e) {cert.endpoint_level:.3f}, "
            f"{elapsed:.2f}s")
    assert ok


def test_criterion_8_solution_oracle(verdict):
    """1D candidate matches shooting solution; >= 2 increasing levels; < 5 min."""
    t0 = time.time()
    grid = qv.Grid(1, 257)
    cert = qv.certify_geometry(DECOUPLED_1D, grid, 0.1, n_samples=64, seed=0)
    cand = qv.mountain_pass_search(DECOUPLED_1D, grid, cert)
    x = grid.node_coords()[:, 0]
    oracle = model_ground_state(x)
    max_err = float(np.max(np.abs(cand.fields.u.values - oracle)))
    cands = qv.multiplicity_search(DECOUPLED_1D, grid, 4)
    levels = [c.level for c in cands]
    elapsed = time.time() - t0
    ok = (cand.converged and cand.residual <= 1e-6 and cand.level > 0.0
          and max_err < 1e-3
          and len(cands) >= 2
          and all(b > a for a, b in zip(levels, levels[1:]))
          and elapsed < 300.0)
    verdict(8, "solution oracle", ok,
            f"max-norm err {max_err:.2e}, residual {cand.residual:.2e}, "
            f"{len(cands)} levels {['%.1f' % l for l in levels]}, "
            f"{elapsed:.1f}s")
    assert ok


def test_criterion_9_supercritical_run(verdict):
    """Coupled config on 2D n=65: converged nontrivial candidate; < 10 min."""
    t0 = time.time()
    grid = qv.Grid(2, 65)
    params = qv.SolverParams(max_iters=1000)

    def run():
        cert = qv.certify_geometry(COUPLED, grid, 0.1, n_samples=256, seed=0)
        cand = qv.mountain_pass_search(COUPLED, grid, cert, params)
        return cert, cand

    cert, cand = run()
    _, cand2 = run()
    replay_identical = (
        np.array_equal(cand.fields.u.values, cand2.fields.u.values)
        and np.array_equal(cand.fields.v.values, cand2.fields.v.values)
        and cand.level == cand2.level)
    elapsed = time.time() - t0
    ok = (cand.converged and not cand.collapsed
          and cand.level >= cert.rho0 - 1e-6
          and math.isfinite(cand.linf_u) and math.isfinite(cand.linf_v)
          and replay_identical
          and elapsed < 600.0)
    verdict(9, "supercritical run", ok,
            f"level {cand.level:.4f} >= rho0 {cert.rho0:.4f}, "
            f"|u|_inf {cand.linf_u:.3f}, replay {replay_identical}, "
            f"{elapsed:.1f}s")
    assert ok
