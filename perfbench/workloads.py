"""Workload definitions and output checks for the quasivar benchmark.

A workload is one pass of public library calls, repeated for the length
of a run.  Its inputs come from the benchmark seed: the seed is passed
as the ``seed`` of every ``certify_geometry`` call (the seed of the
sampled ell-sphere points) and as the first of the multi-start seeds.
Nothing here imports numpy or quasivar at module level, so the launcher
can read the workload names without loading either.

Every check runs outside the timed region and returns a list of
``(operation, message)`` failures; an operation that raises or fails a
check counts as failed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

COUPLED = dict(N=2, p1=1.5, p2=1.5, s1=1.0, s2=1.0, q1=8.0, q2=8.0,
               gamma1=4.0, gamma2=4.0, theta1=0.125, theta2=0.125,
               c_star=1.0)
DECOUPLED = dict(N=2, p1=2.0, p2=2.0, s1=0.0, s2=0.0, q1=4.0, q2=4.0,
                 theta1=0.25, theta2=0.25, c_star=0.0)

DEFAULT_SEED = 0
# Later performance claims must also hold on this seed; it was not used
# while the benchmark was tuned.
HELD_OUT_SEED = 1_000_003

# Reference values measured at the commit that introduced the benchmark,
# with numpy 2.4 / scipy 1.17.  The coupled level holds at the default
# seed only; the decoupled levels do not depend on the seed.
SOLVE_LEVEL_REF = 6.9948          # coupled config, n=33, to 4 decimals
MULTI_LEVELS_REF = (151.90911306065883, 872.5203201101558,
                    872.520320110156, 2471.6422529317715,
                    12860.36752869386)   # decoupled config, n=33
MULTI_LEVEL_RTOL = 1e-6
CERTIFY_RADII = (0.05, 0.1, 0.2, 0.4)
ELL_RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    n: int                      # nodes per axis of the 2D grid
    operations: tuple[str, ...]  # operations attempted per pass
    run: Callable               # (qv, cfg, grid, mf, seed) -> outputs
    check: Callable             # (qv, cfg, grid, mf, seed, outputs, state)
    chunk: str                  # speed.CHUNKS kind matching the pass's work


def fields_sha256(fp) -> str:
    return hashlib.sha256(fp.u.values.tobytes()
                          + fp.v.values.tobytes()).hexdigest()


# -- coupled-solve ------------------------------------------------------------

def _solve_params(qv):
    return qv.SolverParams(max_iters=500)


def run_solve(qv, cfg, grid, mf, seed):
    cert = qv.certify_geometry(cfg, grid, 0.1, n_samples=64, seed=seed, mf=mf)
    cand = qv.mountain_pass_search(cfg, grid, cert, _solve_params(qv), mf)
    record = qv.verify_candidate(cand, cfg, grid, mf)
    return cert, cand, record


def check_solve(qv, cfg, grid, mf, seed, outputs, state):
    cert, cand, rec = outputs
    tol = _solve_params(qv).tol
    fails = []
    if not cert.validated:
        fails.append(("certify", "certificate not validated"))
    if not rec.residual <= tol:
        fails.append(("solve", f"residual {rec.residual:.3e} > tol {tol:g}"))
    if rec.trivial:
        fails.append(("solve", "candidate is trivial"))
    if not rec.level >= cert.rho0:
        fails.append(("solve", f"level {rec.level!r} < rho0 {cert.rho0!r}"))
    if seed == DEFAULT_SEED and round(rec.level, 4) != SOLVE_LEVEL_REF:
        fails.append(("solve", f"level {rec.level!r} != reference "
                               f"{SOLVE_LEVEL_REF} to 4 decimals"))
    sha = fields_sha256(cand.fields)
    first = state.setdefault("fields_sha256", sha)
    if sha != first:
        fails.append(("solve", "candidate fields differ from the first pass "
                               "with the same seed"))
    state["level"] = rec.level
    state["verified"] = 0 if any(op == "solve" for op, _ in fails) else 1
    return fails


# -- decoupled-multi ----------------------------------------------------------

def _multi_params(qv):
    return qv.SolverParams(max_iters=300)


def run_multi(qv, cfg, grid, mf, seed):
    return qv.multiplicity_search(cfg, grid, 7,
                                  seeds=[seed + k for k in range(7)],
                                  params=_multi_params(qv), mf=mf, r0=0.1,
                                  n_geo_samples=64)


def levels_missing(levels, refs, rtol):
    """Reference levels with no distinct candidate level within rtol."""
    unused = list(levels)
    missing = []
    for ref in refs:
        hit = next((k for k, lv in enumerate(unused)
                    if abs(lv - ref) <= rtol * abs(ref)), None)
        if hit is None:
            missing.append(ref)
        else:
            unused.pop(hit)
    return missing


def check_multi(qv, cfg, grid, mf, seed, outputs, state):
    cands = outputs
    params = _multi_params(qv)
    fails = []
    verified = 0
    for k, cand in enumerate(cands):
        rec = qv.verify_candidate(cand, cfg, grid, mf)
        if rec.residual <= params.tol and not rec.trivial:
            verified += 1
        else:
            fails.append(("multi", f"candidate {k} does not re-verify "
                                   f"(residual {rec.residual:.3e}, "
                                   f"trivial {rec.trivial})"))
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            a, b = cands[i].fields, cands[j].fields
            dist = min(qv.pair_norm_W(a - b, cfg.p1, cfg.p2),
                       qv.pair_norm_W(a + b, cfg.p1, cfg.p2))
            if not dist > params.dedup_tol:
                fails.append(("multi", f"candidates {i} and {j} are "
                                       f"{dist:.3e} apart up to sign"))
    missing = levels_missing([c.level for c in cands], MULTI_LEVELS_REF,
                             MULTI_LEVEL_RTOL)
    if missing:
        fails.append(("multi", f"reference levels not found: {missing}"))
    state["levels"] = [c.level for c in cands]
    state["verified"] = verified
    return fails


# -- coupled-certify ----------------------------------------------------------

def run_certify(qv, cfg, grid, mf, seed):
    return [qv.certify_geometry(cfg, grid, r0, n_samples=32, seed=seed, mf=mf)
            for r0 in CERTIFY_RADII]


def check_certificate(qv, cfg, mf, r0, cert):
    """Failure messages for one certificate at radius r0."""
    fails = []
    if not cert.validated:
        fails.append("certificate not validated")
    if cert.min_sample is None:
        return fails + ["no minimizing sample"]
    ell = qv.ell_norm(cert.min_sample, cfg)
    if not abs(ell - r0) <= ELL_RTOL * r0:
        fails.append(f"ell_norm(min_sample) {ell!r} != r0 {r0}")
    level = qv.j_value(cert.min_sample, mf)
    if level != cert.rho0:
        fails.append(f"j_value(min_sample) {level!r} != rho0 {cert.rho0!r}")
    if cert.endpoint is None:
        return fails + ["no endpoint"]
    if not qv.j_value(cert.endpoint, mf) < 0.0:
        fails.append("endpoint energy is not negative")
    if not qv.ell_norm(cert.endpoint, cfg) > r0:
        fails.append("endpoint lies inside the sphere")
    return fails


def check_certify(qv, cfg, grid, mf, seed, outputs, state):
    fails = []
    for r0, cert in zip(CERTIFY_RADII, outputs):
        fails += [(f"certify r0={r0}", msg)
                  for msg in check_certificate(qv, cfg, mf, r0, cert)]
    state["rho0"] = [cert.rho0 for cert in outputs]
    state["verified"] = len(CERTIFY_RADII) - len({op for op, _ in fails})
    return fails


WORKLOADS = {
    w.name: w for w in (
        Workload("coupled-solve", COUPLED, 33, ("certify", "solve"),
                 run_solve, check_solve, "sparse"),
        Workload("decoupled-multi", DECOUPLED, 33, ("multi",),
                 run_multi, check_multi, "sparse"),
        Workload("coupled-certify", COUPLED, 65,
                 tuple(f"certify r0={r0}" for r0 in CERTIFY_RADII),
                 run_certify, check_certify, "array"),
    )
}
