"""Command-line front end: config ingestion, subcommands, JSON-lines output.

Config files are flat ``key = value`` text with ``#`` comments; keys must
match RunConfig field names exactly (unknown keys are a usage error).
Every run emits a header record (tool, version, config hash, seed,
timestamp) followed by result records, one JSON object per line, all
floats serialized with 17 significant digits.  Exit codes: 0 success,
1 semantic failure (inadmissible config, non-convergence), 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .eigen import first_eigenpair, rayleigh_quotient
from .energy import dJ_apply, j_value
from .exponents import (ExponentConfig, InfeasibleIntervalError,
                        NonAdmissibleConfigError, check_model_hypotheses,
                        compute_model_constants, derive_auxiliary_exponents)
from .grid import (Grid, GridFunction, dump_field, random_field_pair,
                   sine_modes)
from .model import ModelFunctions
from .mpsolver import (SolverParams, certify_geometry, mountain_pass_search,
                       multiplicity_search, verify_candidate)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_EXPONENT_FIELDS = ("N", "p1", "p2", "s1", "s2", "q1", "q2", "gamma1",
                    "gamma2", "theta1", "theta2", "c_star", "exj01_literal")


class ConfigError(ValueError):
    """Malformed config file, unknown key or out-of-range value."""


@dataclass
class RunConfig:
    """Flat run configuration: exponents, grid, solver, and output knobs."""

    # exponent/parameter tuple
    N: int = 2
    p1: float = 2.0
    p2: float = 2.0
    s1: float = 0.0
    s2: float = 0.0
    q1: float = 4.0
    q2: float = 4.0
    gamma1: float = 2.0
    gamma2: float = 2.0
    theta1: float = 0.25
    theta2: float = 0.25
    c_star: float = 0.0
    exj01_literal: bool = False
    # grid
    dimension: int = 2
    n: int = 33
    # solver
    tol: float = 1e-6
    max_iters: int = 10_000
    path_points: int = 33
    seed: int = 0
    epsilon_reg: float = 1e-8
    nontrivial_floor: float = 1e-3
    r0: float = 0.1
    n_geo_samples: int = 256
    count: int = 4
    # gradcheck
    gradcheck_runs: int = 5
    # output
    out: str = ""
    quiet: bool = False

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.dimension not in (1, 2):
            raise ConfigError("dimension must be 1 or 2")
        for name, low in (("n", 3), ("path_points", 3), ("count", 1),
                          ("n_geo_samples", 1), ("gradcheck_runs", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be at least {low}")
        for name in ("r0", "tol"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        if self.epsilon_reg < 0:
            raise ConfigError("epsilon_reg must be non-negative")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be in [0, 2^64)")
        try:
            self.exponent_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def exponent_config(self) -> ExponentConfig:
        return ExponentConfig(**{k: getattr(self, k) for k in _EXPONENT_FIELDS})

    def grid(self) -> Grid:
        return Grid(self.dimension, self.n)

    def solver_params(self) -> SolverParams:
        return SolverParams(tol=self.tol, max_iters=self.max_iters,
                            path_points=self.path_points,
                            nontrivial_floor=self.nontrivial_floor)


def _coerce(name: str, raw: str, target_type) -> object:
    raw = raw.strip()
    if target_type is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"key '{name}': expected boolean, got '{raw}'")
    if target_type is int:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"key '{name}': expected integer, got '{raw}'") from exc
    if target_type is float:
        try:
            return float(raw)  # accepts fractions via eval-free parsing below
        except ValueError:
            # allow simple rational literals like 1/8
            if "/" in raw:
                num, _, den = raw.partition("/")
                try:
                    return float(num) / float(den)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ConfigError(
                        f"key '{name}': expected number, got '{raw}'") from exc
            raise ConfigError(f"key '{name}': expected number, got '{raw}'")
    return raw


def parse_config(path: str) -> RunConfig:
    """Parse a flat key = value config file.

    Unknown keys, malformed values and out-of-range values raise
    ``ConfigError``.
    """
    field_types = {f.name: f.type for f in fields(RunConfig)}
    type_map = {"int": int, "float": float, "bool": bool, "str": str}
    values: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in field_types:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        tname = field_types[key]
        tname = tname if isinstance(tname, str) else tname.__name__
        values[key] = _coerce(key, raw, type_map[tname])
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# -- JSON-lines serialization -------------------------------------------------


def _json_scalar(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(x, ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"unserializable value of type {type(x)!r}")


def json_line(obj) -> str:
    """One-line JSON with floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {json_line(v)}"
                          for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(json_line(v) for v in obj) + "]"
    return _json_scalar(obj)


class Emitter:
    """Serialized JSON-lines writer with a quiet mode for detail records."""

    def __init__(self, stream=None, quiet: bool = False):
        self.stream = stream or sys.stdout
        self.quiet = quiet

    def emit(self, record: dict, detail: bool = False) -> None:
        if detail and self.quiet:
            return
        self.stream.write(json_line(record) + "\n")
        self.stream.flush()


def config_hash(rc: RunConfig) -> str:
    blob = "\n".join(f"{f.name}={getattr(rc, f.name)!r}"
                     for f in fields(RunConfig) if f.name != "out")
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def emit_header(em: Emitter, rc: RunConfig, command: str) -> None:
    em.emit({"record": "header", "tool": "quasivar", "version": __version__,
             "command": command, "config_hash": config_hash(rc),
             "seed": rc.seed, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                         time.gmtime())})


def _asdict_numbers(obj) -> dict:
    out = {}
    for f in dataclasses.fields(obj):
        val = getattr(obj, f.name)
        if isinstance(val, (bool, int, float, str, type(None), np.floating)):
            out[f.name] = val
    return out


def _write_dump(rc: RunConfig, name: str, gf: GridFunction,
                em: Emitter) -> None:
    if not rc.out:
        return
    os.makedirs(rc.out, exist_ok=True)
    path = os.path.join(rc.out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_field(gf))
    em.emit({"record": "field_dump", "name": name, "path": path}, detail=True)


# -- subcommands ---------------------------------------------------------------


def cmd_check(rc: RunConfig, em: Emitter) -> int:
    cfg = rc.exponent_config()
    report = check_model_hypotheses(cfg)
    for rec in report.records:
        em.emit({"record": "inequality", "id": rec.id,
                 "satisfied": rec.satisfied, "margin": rec.margin,
                 "strict": rec.strict, "note": rec.note}, detail=True)
    em.emit({"record": "check_summary", "admissible": report.admissible,
             "failing": report.failing()})
    return EXIT_OK if report.admissible else EXIT_FAIL


def cmd_derive(rc: RunConfig, em: Emitter) -> int:
    cfg = rc.exponent_config()
    try:
        der = derive_auxiliary_exponents(cfg)
    except InfeasibleIntervalError as exc:
        em.emit({"record": "error", "message": str(exc)})
        return EXIT_FAIL
    em.emit({"record": "derived_exponents", **_asdict_numbers(der)})
    return EXIT_OK


def cmd_constants(rc: RunConfig, em: Emitter) -> int:
    cfg = rc.exponent_config()
    try:
        consts = compute_model_constants(cfg)
    except (NonAdmissibleConfigError, InfeasibleIntervalError) as exc:
        em.emit({"record": "error", "message": str(exc)})
        return EXIT_FAIL
    em.emit({"record": "model_constants", **_asdict_numbers(consts)})
    return EXIT_OK


def gradcheck_slope(cfg: ExponentConfig, grid: Grid, seed: int,
                    epsilon_reg: float = 1e-8,
                    steps: tuple[float, ...] = (1e-2, 10 ** -2.5, 1e-3,
                                                10 ** -3.5, 1e-4),
                    ) -> tuple[float, list[float]]:
    """Observed order of the central-difference error against dJ_apply.

    Returns (slope, errors): the least-squares slope of log error vs log h
    over the given step sizes, expected ~2 for the C^1 energy integrands.
    """
    mf = ModelFunctions(cfg, epsilon_reg=epsilon_reg)
    rng = np.random.default_rng(seed)
    modes = sine_modes(grid, 3)
    fp = random_field_pair(grid, rng, modes)
    d = random_field_pair(grid, rng, modes)
    exact = dJ_apply(fp, d, mf)
    scale = max(1.0, abs(exact))
    errors = []
    for h in steps:
        fd = (j_value(fp + h * d, mf) - j_value(fp - h * d, mf)) / (2.0 * h)
        errors.append(abs(fd - exact) / scale)
    hs = np.log(np.asarray(steps))
    es = np.log(np.maximum(errors, 1e-300))
    slope = float(np.polyfit(hs, es, 1)[0])
    return slope, errors


def cmd_gradcheck(rc: RunConfig, em: Emitter) -> int:
    cfg = rc.exponent_config()
    grid = rc.grid()
    ok = True
    for k in range(rc.gradcheck_runs):
        slope, errors = gradcheck_slope(cfg, grid, seed=rc.seed + k,
                                        epsilon_reg=rc.epsilon_reg)
        passed = 1.8 <= slope <= 2.2
        ok = ok and passed
        em.emit({"record": "gradcheck", "seed": rc.seed + k,
                 "slope": slope, "errors": errors, "passed": passed})
    em.emit({"record": "gradcheck_summary", "passed": ok})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_eigen(rc: RunConfig, em: Emitter) -> int:
    grid = rc.grid()
    pair = first_eigenpair(rc.p1, grid, epsilon_reg=rc.epsilon_reg)
    em.emit({"record": "eigenpair", "p": pair.p, "lambda1": pair.lambda1,
             "rayleigh_quotient": rayleigh_quotient(pair.phi1, pair.p),
             "iterations": pair.iterations, "residual": pair.residual,
             "converged": pair.converged})
    _write_dump(rc, "phi1.txt", pair.phi1, em)
    return EXIT_OK if pair.converged else EXIT_FAIL


def cmd_certify(rc: RunConfig, em: Emitter) -> int:
    cfg = rc.exponent_config()
    grid = rc.grid()
    mf = ModelFunctions(cfg, epsilon_reg=rc.epsilon_reg)
    cert = certify_geometry(cfg, grid, rc.r0, n_samples=rc.n_geo_samples,
                            seed=rc.seed, mf=mf)
    em.emit({"record": "geometry_certificate", "r0": cert.r0,
             "rho0": cert.rho0, "samples": cert.samples,
             "endpoint_level": cert.endpoint_level,
             "validated": cert.validated})
    return EXIT_OK if cert.validated else EXIT_FAIL


def _candidate_record(kind: str, cand, rec) -> dict:
    return {"record": kind, "level": cand.level, "residual": cand.residual,
            "nontriviality": cand.nontriviality, "linf_u": cand.linf_u,
            "linf_v": cand.linf_v, "iterations": cand.iterations,
            "converged": cand.converged, "collapsed": cand.collapsed,
            "provenance": cand.provenance,
            "verified_level": rec.level, "verified_residual": rec.residual,
            "cerami_residual": rec.cerami_residual, "trivial": rec.trivial,
            "semitrivial": rec.semitrivial,
            "positive_level": rec.positive_level}


def cmd_solve(rc: RunConfig, em: Emitter) -> int:
    cfg = rc.exponent_config()
    grid = rc.grid()
    mf = ModelFunctions(cfg, epsilon_reg=rc.epsilon_reg)
    params = rc.solver_params()
    cert = certify_geometry(cfg, grid, rc.r0, n_samples=rc.n_geo_samples,
                            seed=rc.seed, mf=mf)
    em.emit({"record": "geometry_certificate", "r0": cert.r0,
             "rho0": cert.rho0, "validated": cert.validated}, detail=True)
    if not cert.validated:
        em.emit({"record": "error", "message": "geometry not validated"})
        return EXIT_FAIL
    cand = mountain_pass_search(cfg, grid, cert, params, mf)
    rec = verify_candidate(cand, cfg, grid, mf,
                           nontrivial_floor=params.nontrivial_floor)
    em.emit(_candidate_record("candidate", cand, rec))
    _write_dump(rc, "u.txt", cand.fields.u, em)
    _write_dump(rc, "v.txt", cand.fields.v, em)
    return EXIT_OK if cand.converged and not rec.trivial else EXIT_FAIL


def cmd_multi(rc: RunConfig, em: Emitter) -> int:
    cfg = rc.exponent_config()
    grid = rc.grid()
    mf = ModelFunctions(cfg, epsilon_reg=rc.epsilon_reg)
    params = rc.solver_params()
    cands = multiplicity_search(cfg, grid, rc.count,
                                seeds=[rc.seed + k for k in range(rc.count)],
                                params=params, mf=mf, r0=rc.r0,
                                n_geo_samples=rc.n_geo_samples)
    for m, cand in enumerate(cands):
        rec = verify_candidate(cand, cfg, grid, mf,
                               nontrivial_floor=params.nontrivial_floor)
        em.emit(_candidate_record("candidate", cand, rec))
        _write_dump(rc, f"u_{m}.txt", cand.fields.u, em)
        _write_dump(rc, f"v_{m}.txt", cand.fields.v, em)
    em.emit({"record": "multi_summary", "requested": rc.count,
             "found": len(cands),
             "levels": [c.level for c in cands]})
    return EXIT_OK if cands else EXIT_FAIL


def cmd_dump(rc: RunConfig, em: Emitter) -> int:
    record = {"record": "config"}
    record.update({f.name: getattr(rc, f.name) for f in fields(RunConfig)})
    em.emit(record)
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "derive": cmd_derive,
    "constants": cmd_constants,
    "gradcheck": cmd_gradcheck,
    "eigen": cmd_eigen,
    "certify": cmd_certify,
    "solve": cmd_solve,
    "multi": cmd_multi,
    "dump": cmd_dump,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasivar",
        description="Variational toolkit for coupled quasilinear elliptic "
                    "systems: hypothesis checking, eigenpairs, and "
                    "mountain-pass critical-point search.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to key=value config")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", default=None, help="directory for field dumps")
        p.add_argument("--grid-n", type=int, default=None,
                       help="override nodes per axis")
        p.add_argument("--tol", type=float, default=None, help="override tol")
        p.add_argument("--quiet", action="store_true",
                       help="suppress detail records")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    em = Emitter(quiet=False)
    overrides = {"seed": args.seed, "out": args.out, "n": args.grid_n,
                 "tol": args.tol, "quiet": args.quiet or None}
    try:
        rc = parse_config(args.config)
        rc = dataclasses.replace(
            rc, **{k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        em.emit({"record": "error", "message": str(exc)})
        return EXIT_USAGE
    em.quiet = rc.quiet
    emit_header(em, rc, args.command)
    try:
        return _COMMANDS[args.command](rc, em)
    except Exception as exc:
        em.emit({"record": "error", "type": type(exc).__name__,
                 "message": str(exc)})
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
