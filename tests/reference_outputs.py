"""Print the reference outputs of quasivar, one line each, for a diff.

    PYTHONPATH=src python tests/reference_outputs.py > outputs.txt

Run it on two checkouts and ``diff`` the files: a change that claims
bitwise-equal results must print the same bytes.  The lines cover

- the three benchmark workloads of ``perfbench/workloads.py`` at its
  default and held-out seeds: every certificate and candidate, with the
  sha256 of its fields and its levels and residuals as 17-digit reprs;
- acceptance criterion 8's 1D search and 4-start multiplicity run,
  criterion 9's coupled run on the 2D n=65 grid, a 9-start decoupled
  multiplicity run on the 2D n = 17 grid whose starts 7 and 8 repeat
  starts 0 and 1 and are dropped as duplicates, a certify whose
  components differ in p, s and gamma, a certify whose float32 screen
  overflows (random config 30, q1 = 47.7) and a coupled certify on the
  1D n = 17 grid;
- searches from the endpoints (b, b/2), (b/2, b) and (b, b), b the sine
  bubble, on the coupled 2D n = 33 seed-0 certificate, which reach the
  (u, 0) and (0, v) fallbacks and the coupled Newton band, and the
  unconverged ridge point that tol = 1e-30 returns on the 1D n = 13 grid,
  each with its ``verify_candidate`` record;
- the ``certify``, ``solve``, ``multi``, ``eigen``, ``gradcheck``,
  ``check``, ``derive``, ``constants`` and ``dump`` CLI streams of
  ``test_cli``'s coupled and decoupled configs at n = 17, with the header
  timestamp removed.

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import quasivar as qv  # noqa: E402
from quasivar.cli import main  # noqa: E402

from test_acceptance import COUPLED, DECOUPLED, DECOUPLED_1D  # noqa: E402
from test_cli import COUPLED_TEXT, DECOUPLED_TEXT  # noqa: E402
from util import random_admissible_configs  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402


def sha(fp) -> str:
    if fp is None:
        return "none"
    return hashlib.sha256(fp.u.values.tobytes()
                          + fp.v.values.tobytes()).hexdigest()


def describe(obj) -> str:
    """One line for a certificate, a candidate or a verification record."""
    if isinstance(obj, qv.VerificationRecord):
        return (f"verification level={obj.level!r} "
                f"residual={float(obj.residual)!r} "
                f"cerami_residual={float(obj.cerami_residual)!r} "
                f"nontriviality={obj.nontriviality!r} "
                f"linf_u={obj.linf_u!r} linf_v={obj.linf_v!r} "
                f"trivial={obj.trivial} semitrivial={obj.semitrivial} "
                f"positive_level={obj.positive_level}")
    if isinstance(obj, qv.GeometryCertificate):
        return (f"certificate r0={obj.r0!r} rho0={obj.rho0!r} "
                f"endpoint_level={obj.endpoint_level!r} "
                f"validated={obj.validated} min_sample={sha(obj.min_sample)} "
                f"endpoint={sha(obj.endpoint)}")
    return (f"candidate {sha(obj.fields)} level={obj.level!r} "
            f"residual={float(obj.residual)!r} iterations={obj.iterations} "
            f"converged={obj.converged} provenance={obj.provenance!r}")


def workload_lines():
    for name, workload in WORKLOADS.items():
        cfg = qv.ExponentConfig(**workload.config)
        grid = qv.Grid(2, workload.n)
        mf = qv.ModelFunctions(cfg)
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            outputs = workload.run(qv, cfg, grid, mf, seed)
            if not isinstance(outputs, (list, tuple)):
                outputs = [outputs]
            for obj in outputs:
                yield f"{name} seed={seed} {describe(obj)}"


def acceptance_lines():
    grid = qv.Grid(1, 257)
    cert = qv.certify_geometry(DECOUPLED_1D, grid, 0.1, n_samples=64, seed=0)
    yield f"criterion-8 {describe(cert)}"
    yield f"criterion-8 {describe(qv.mountain_pass_search(DECOUPLED_1D, grid, cert))}"
    for cand in qv.multiplicity_search(DECOUPLED_1D, grid, 4):
        yield f"criterion-8 multi {describe(cand)}"
    grid = qv.Grid(2, 65)
    cert = qv.certify_geometry(COUPLED, grid, 0.1, n_samples=256, seed=0)
    yield f"criterion-9 {describe(cert)}"
    cand = qv.mountain_pass_search(COUPLED, grid, cert,
                                   qv.SolverParams(max_iters=1000))
    yield f"criterion-9 {describe(cand)}"
    for cand in qv.multiplicity_search(DECOUPLED, qv.Grid(2, 17), 9,
                                       n_geo_samples=16):
        yield f"repeated-starts multi {describe(cand)}"
    mixed = dataclasses.replace(COUPLED, p2=3.0, s2=0.5, gamma1=3.0,
                                gamma2=2.5)
    cert = qv.certify_geometry(mixed, qv.Grid(2, 33), 0.1, n_samples=64)
    yield f"mixed-exponents {describe(cert)}"
    overflowing = random_admissible_configs(40, seed=1)[30]
    cert = qv.certify_geometry(overflowing, qv.Grid(2, 17), 0.1, n_samples=64)
    yield f"float32-overflow {describe(cert)}"
    cert = qv.certify_geometry(COUPLED, qv.Grid(1, 17), 0.1, n_samples=32)
    yield f"coupled-1d {describe(cert)}"


def fallback_lines():
    grid = qv.Grid(2, 33)
    mf = qv.ModelFunctions(COUPLED)
    cert = qv.certify_geometry(COUPLED, grid, 0.1, n_samples=64, seed=0,
                               mf=mf)
    b = qv.mpsolver._structured_start(grid, 0).u
    for label, start in (("(b, b/2)", qv.FieldPair(b, b * 0.5)),
                         ("(b/2, b)", qv.FieldPair(b * 0.5, b)),
                         ("(b, b)", qv.FieldPair(b, b))):
        cand = qv.mountain_pass_search(
            COUPLED, grid, qv.mpsolver._with_endpoint(cert, start, COUPLED,
                                                      mf), mf=mf)
        yield f"fallback {label} {describe(cand)}"
        record = qv.verify_candidate(cand, COUPLED, grid, mf)
        yield f"fallback {label} {describe(record)}"
    grid = qv.Grid(1, 13)
    cert = qv.certify_geometry(COUPLED, grid, 0.1, n_samples=256, seed=0)
    cand = qv.mountain_pass_search(COUPLED, grid, cert,
                                   qv.SolverParams(tol=1e-30))
    yield f"unconverged {describe(cand)}"
    yield f"unconverged {describe(qv.verify_candidate(cand, COUPLED, grid))}"


def cli_lines():
    with tempfile.TemporaryDirectory() as tmp:
        for label, text in (("coupled", COUPLED_TEXT),
                            ("decoupled", DECOUPLED_TEXT)):
            path = os.path.join(tmp, f"{label}.txt")
            Path(path).write_text(text)
            for command in ("certify", "solve", "multi", "eigen",
                            "gradcheck", "check", "derive", "constants",
                            "dump"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main([command, "--config", path])
                for line in out.getvalue().splitlines():
                    line = re.sub(r', "timestamp": "[^"]*"', "", line)
                    yield f"cli {label} {command} {line}"
                yield f"cli {label} {command} exit={code}"


if __name__ == "__main__":
    for lines in (workload_lines(), acceptance_lines(), fallback_lines(),
                  cli_lines()):
        for line in lines:
            print(line, flush=True)
