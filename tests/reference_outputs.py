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
  timestamp removed, and the sha256 of the ``u.txt`` and ``v.txt`` that
  ``solve --out`` writes for each;
- ``scale_to_ell`` of the coupled sine bubble (b, b) at amplitude 1 and at
  1e-200, where its ray coefficients underflow and it rescales to peak 1
  first, and the margins and trend ratios of
  ``sample_structural_hypotheses`` on the coupled config;
- the exit code and error record of every single-fault usage error of
  README's config format, on the decoupled config: each command-line
  override, one malformed value per type and per value flag, one
  out-of-range value per rule, each float key at nan and at inf, and a
  file that is not UTF-8;
- the ``dump`` stream of a config whose out-of-range file value a
  command-line value replaces, a fraction among them.

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
from quasivar.cli import RunConfig, main  # noqa: E402

from test_acceptance import COUPLED, DECOUPLED, DECOUPLED_1D  # noqa: E402
from test_cli import COUPLED_TEXT, DECOUPLED_TEXT, with_values  # noqa: E402
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


def run_main(*argv) -> tuple[int, list[str]]:
    """main's exit code and output lines, the header timestamp removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, [re.sub(r', "timestamp": "[^"]*"', "", line)
                  for line in out.getvalue().splitlines()]


def dump_lines():
    with tempfile.TemporaryDirectory() as tmp:
        for label, text in (("coupled", COUPLED_TEXT),
                            ("decoupled", DECOUPLED_TEXT)):
            path = os.path.join(tmp, f"{label}.txt")
            Path(path).write_text(text)
            out = os.path.join(tmp, label)
            code = run_main("solve", "--config", path, "--out", out)[0]
            for name in ("u.txt", "v.txt"):
                digest = hashlib.sha256(
                    Path(out, name).read_bytes()).hexdigest()
                yield f"dump {label} solve exit={code} {name} {digest}"


def model_lines():
    grid = qv.Grid(2, 33)
    b = qv.mpsolver._structured_start(grid, 0).u
    for amplitude in (1.0, 1e-200):
        scaled = qv.scale_to_ell(qv.FieldPair(b, b) * amplitude, COUPLED, 0.1)
        yield (f"scale_to_ell amplitude={amplitude!r} {sha(scaled)} "
               f"ell={qv.ell_norm(scaled, COUPLED)!r}")
    report = qv.sample_structural_hypotheses(qv.ModelFunctions(COUPLED),
                                             n_samples=2000, seed=0)
    for m in report.margins:
        yield f"structural {m.id} min_margin={m.min_margin!r}"
    for t in report.trends:
        yield f"structural {t.id} ratios={[float(r) for r in t.ratios]!r}"


USAGE_OVERRIDES = (("--grid-n", "2"), ("--seed", "-1"),
                   ("--seed", str(2 ** 64)), ("--tol", "0"), ("--tol", "nan"),
                   ("--tol", "inf"), ("--seed", "x"), ("--grid-n", "1.5"),
                   ("--tol", "a/b"))
# one fault per config: values out of range, then malformed ones
USAGE_ERRORS = (
    ("tol", "nan"), ("r0", "inf"), ("p1", "-inf"), ("dimension", "3"),
    ("dimension", "0"), ("n", "2"), ("path_points", "2"), ("count", "0"),
    ("n_geo_samples", "0"), ("gradcheck_runs", "0"), ("r0", "0"),
    ("r0", "-1"), ("tol", "0"), ("epsilon_reg", "-1"), ("seed", "-1"),
    ("seed", str(2 ** 64)), ("N", "0"), ("p1", "1"), ("p2", "1"),
    ("s1", "-0.5"), ("s2", "-0.5"), ("q1", "0.5"), ("q2", "0.5"),
    ("theta1", "0"), ("theta2", "0"), ("c_star", "-1"),
    ("p3", "2"), ("quiet", "maybe"), ("n", "x"), ("n", "1.5"),
    ("tol", "1/0"), ("tol", "a/b"), ("max_iters", "-1"),
    ("nontrivial_floor", "0"))
# then every float key at nan and inf, but the pairs pinned above
USAGE_ERRORS += tuple(
    (f.name, value) for f in dataclasses.fields(RunConfig)
    if f.type == "float" for value in ("nan", "inf")
    if (f.name, value) not in USAGE_ERRORS)
# a file value out of range that the command-line value replaces
FLAG_OVER_FILE = ((("n", "2"), ("--grid-n", "9")),
                  (("tol", "0"), ("--tol", "1e-6")),
                  (("tol", "0"), ("--tol", "1/8")))


def usage_lines():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.txt")
        Path(path).write_text(DECOUPLED_TEXT)
        for option, value in USAGE_OVERRIDES:
            code, lines = run_main("check", "--config", path, option, value)
            yield f"usage {option} {value} exit={code} {' '.join(lines)}"
        for key, value in USAGE_ERRORS:
            Path(path).write_text(with_values(DECOUPLED_TEXT, {key: value}))
            code, lines = run_main("check", "--config", path)
            yield f"usage {key} = {value} exit={code} {' '.join(lines)}"
        for (key, value), (option, flag) in FLAG_OVER_FILE:
            Path(path).write_text(with_values(DECOUPLED_TEXT, {key: value}))
            code, lines = run_main("dump", "--config", path, option, flag)
            yield (f"override {key} = {value} {option} {flag} exit={code} "
                   f"{' '.join(lines)}")
        Path(path).write_bytes(b"n = 9\n# \xff\n")
        code, lines = run_main("check", "--config", path)
        yield f"usage non-utf-8 exit={code} {' '.join(lines)}"


if __name__ == "__main__":
    for lines in (workload_lines(), acceptance_lines(), fallback_lines(),
                  cli_lines(), dump_lines(), model_lines(), usage_lines()):
        for line in lines:
            print(line, flush=True)
