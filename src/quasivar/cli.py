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
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

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


class ConfigError(ValueError):
    """Malformed config file, unknown key or out-of-range value."""


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration: exponents, grid, solver, and output knobs.

    Frozen: ``grid``, ``model`` and ``params`` are built once, as cached
    attributes that ``fields`` (so ``config_hash`` and ``dump``) skips."""

    # exponent/parameter tuple
    N: int = 2
    p1: float = 2.0
    p2: float = 2.0
    s1: float = 0.0
    s2: float = 0.0
    q1: float = 4.0
    q2: float = 4.0
    gamma1: float = ExponentConfig.gamma1
    gamma2: float = ExponentConfig.gamma2
    theta1: float = ExponentConfig.theta1
    theta2: float = ExponentConfig.theta2
    c_star: float = ExponentConfig.c_star
    exj01_literal: bool = ExponentConfig.exj01_literal
    # grid
    dimension: int = 2
    n: int = 33
    # solver
    tol: float = SolverParams.tol
    max_iters: int = SolverParams.max_iters
    path_points: int = SolverParams.path_points
    seed: int = 0
    epsilon_reg: float = ModelFunctions.epsilon_reg
    nontrivial_floor: float = SolverParams.nontrivial_floor
    r0: float = 0.1
    n_geo_samples: int = 256
    count: int = 4
    # gradcheck
    gradcheck_runs: int = 5
    # output
    out: str = ""
    quiet: bool = False

    def __post_init__(self):
        for name in ("count", "n_geo_samples", "gradcheck_runs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if not math.isfinite(self.r0):
            raise ConfigError("r0 must be finite")
        if self.r0 <= 0:
            raise ConfigError("r0 must be positive")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must be in [0, 2^64)")
        try:  # the objects built from the other values check them
            self.grid, self.params, self.model
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @functools.cached_property
    def grid(self) -> Grid:
        return Grid(self.dimension, self.n)

    @functools.cached_property
    def model(self) -> ModelFunctions:
        cfg = ExponentConfig(**{f.name: getattr(self, f.name)
                                for f in fields(ExponentConfig)})
        return ModelFunctions(cfg, epsilon_reg=self.epsilon_reg)

    @functools.cached_property
    def params(self) -> SolverParams:
        return SolverParams(**{f.name: getattr(self, f.name)
                               for f in fields(SolverParams)})


_BOOLEANS = {"true": True, "1": True, "yes": True,
             "false": False, "0": False, "no": False}


def _number(raw: str) -> float:
    """A float literal or a simple fraction such as 1/8."""
    num, slash, den = raw.partition("/")
    return float(num) / float(den) if slash else float(raw)


# per field type: the name of what a value must be, and its parser
_PARSERS = {"bool": ("boolean", lambda raw: _BOOLEANS[raw.lower()]),
            "int": ("integer", int), "float": ("number", _number),
            "str": ("string", str)}


def _coerce(name: str, raw: str, type_name: str) -> object:
    raw = raw.strip()
    expected, parse = _PARSERS[type_name]
    try:
        return parse(raw)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(
            f"key '{name}': expected {expected}, got '{raw}'") from exc


def parse_config(path: str, **overrides) -> RunConfig:
    """Parse a flat key = value config file.

    Each override that is not None is raw text, parsed by a file value's
    rules, and replaces the file's value before any check.  Unknown keys,
    malformed values and out-of-range values raise ``ConfigError``.
    """
    field_types = {f.name: f.type for f in fields(RunConfig)}
    values: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        values[key] = _coerce(key, raw, field_types[key])
    values.update((k, _coerce(k, raw, field_types[k]))
                  for k, raw in overrides.items() if raw is not None)
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
    report = check_model_hypotheses(rc.model.cfg)
    for rec in report.records:
        em.emit({"record": "inequality", "id": rec.id,
                 "satisfied": rec.satisfied, "margin": rec.margin,
                 "strict": rec.strict, "note": rec.note}, detail=True)
    em.emit({"record": "check_summary", "admissible": report.admissible,
             "failing": report.failing()})
    return EXIT_OK if report.admissible else EXIT_FAIL


def _exponent_record(record: str, compute, rc: RunConfig,
                     em: Emitter) -> int:
    """compute(cfg)'s fields as one record, or the error that the config
    fails the hypotheses compute needs: ``derive`` and ``constants``."""
    try:
        result = compute(rc.model.cfg)
    except (NonAdmissibleConfigError, InfeasibleIntervalError) as exc:
        em.emit({"record": "error", "message": str(exc)})
        return EXIT_FAIL
    em.emit({"record": record, **asdict(result)})
    return EXIT_OK


cmd_derive = functools.partial(_exponent_record, "derived_exponents",
                               derive_auxiliary_exponents)
cmd_constants = functools.partial(_exponent_record, "model_constants",
                                  compute_model_constants)


# the central-difference steps h of gradcheck_slope
_GRADCHECK_STEPS = (1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4)


def gradcheck_slope(mf: ModelFunctions, grid: Grid,
                    seed: int) -> tuple[float, list[float]]:
    """Observed order of the central-difference error against dJ_apply.

    Returns (slope, errors): the least-squares slope of log error vs log h
    over ``_GRADCHECK_STEPS``, expected ~2 for the C^1 energy integrands.
    """
    rng = np.random.default_rng(seed)
    modes = sine_modes(grid, 3)
    fp = random_field_pair(grid, rng, modes)
    d = random_field_pair(grid, rng, modes)
    exact = dJ_apply(fp, d, mf)
    scale = max(1.0, abs(exact))
    errors = []
    for h in _GRADCHECK_STEPS:
        fd = (j_value(fp + h * d, mf) - j_value(fp - h * d, mf)) / (2.0 * h)
        errors.append(abs(fd - exact) / scale)
    hs = np.log(np.asarray(_GRADCHECK_STEPS))
    es = np.log(np.maximum(errors, 1e-300))
    slope = float(np.polyfit(hs, es, 1)[0])
    return slope, errors


def cmd_gradcheck(rc: RunConfig, em: Emitter) -> int:
    ok = True
    for k in range(rc.gradcheck_runs):
        slope, errors = gradcheck_slope(rc.model, rc.grid, seed=rc.seed + k)
        passed = 1.8 <= slope <= 2.2
        ok = ok and passed
        em.emit({"record": "gradcheck", "seed": rc.seed + k,
                 "slope": slope, "errors": errors, "passed": passed})
    em.emit({"record": "gradcheck_summary", "passed": ok})
    return EXIT_OK if ok else EXIT_FAIL


def cmd_eigen(rc: RunConfig, em: Emitter) -> int:
    pair = first_eigenpair(rc.p1, rc.grid, epsilon_reg=rc.epsilon_reg)
    em.emit({"record": "eigenpair", "p": pair.p, "lambda1": pair.lambda1,
             "rayleigh_quotient": rayleigh_quotient(pair.phi1, pair.p),
             "iterations": pair.iterations, "residual": pair.residual,
             "converged": pair.converged})
    _write_dump(rc, "phi1.txt", pair.phi1, em)
    return EXIT_OK if pair.converged else EXIT_FAIL


def _certify(rc: RunConfig):
    return certify_geometry(rc.model.cfg, rc.grid, rc.r0,
                            n_samples=rc.n_geo_samples, seed=rc.seed,
                            mf=rc.model)


def cmd_certify(rc: RunConfig, em: Emitter) -> int:
    cert = _certify(rc)
    em.emit({"record": "geometry_certificate", "r0": cert.r0,
             "rho0": cert.rho0, "samples": cert.samples,
             "endpoint_level": cert.endpoint_level,
             "validated": cert.validated})
    return EXIT_OK if cert.validated else EXIT_FAIL


def _emit_candidate(rc: RunConfig, em: Emitter, cand, suffix: str = ""):
    """Verify cand, emit its record and dump u{suffix}.txt, v{suffix}.txt."""
    rec = verify_candidate(cand, rc.model.cfg, cand.fields.grid, rc.model,
                           rc.params)
    em.emit({"record": "candidate", "level": cand.level,
             "residual": cand.residual, "nontriviality": cand.nontriviality,
             "linf_u": cand.linf_u, "linf_v": cand.linf_v,
             "iterations": cand.iterations, "converged": cand.converged,
             "collapsed": cand.collapsed, "provenance": cand.provenance,
             "verified_level": rec.level, "verified_residual": rec.residual,
             "cerami_residual": rec.cerami_residual, "trivial": rec.trivial,
             "semitrivial": rec.semitrivial,
             "positive_level": rec.positive_level})
    _write_dump(rc, f"u{suffix}.txt", cand.fields.u, em)
    _write_dump(rc, f"v{suffix}.txt", cand.fields.v, em)
    return rec


def cmd_solve(rc: RunConfig, em: Emitter) -> int:
    cert = _certify(rc)
    em.emit({"record": "geometry_certificate", "r0": cert.r0,
             "rho0": cert.rho0, "validated": cert.validated}, detail=True)
    if not cert.validated:
        em.emit({"record": "error", "message": "geometry not validated"})
        return EXIT_FAIL
    cand = mountain_pass_search(rc.model.cfg, rc.grid, cert, rc.params,
                                rc.model)
    rec = _emit_candidate(rc, em, cand)
    return EXIT_OK if cand.converged and not rec.trivial else EXIT_FAIL


def cmd_multi(rc: RunConfig, em: Emitter) -> int:
    cands = multiplicity_search(rc.model.cfg, rc.grid, rc.count,
                                seeds=[rc.seed + k for k in range(rc.count)],
                                params=rc.params, mf=rc.model, r0=rc.r0,
                                n_geo_samples=rc.n_geo_samples)
    for m, cand in enumerate(cands):
        _emit_candidate(rc, em, cand, f"_{m}")
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


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError, not exit."""

    def error(self, message):
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="quasivar",
        description="Variational toolkit for coupled quasilinear elliptic "
                    "systems: hypothesis checking, eigenpairs, and "
                    "mountain-pass critical-point search.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True,
                        help="path to key=value config")
    parser.add_argument("--seed", help="override seed")
    parser.add_argument("--out", help="directory for field dumps")
    parser.add_argument("--grid-n", dest="n", help="override nodes per axis")
    parser.add_argument("--tol", help="override tol")
    parser.add_argument("--quiet", action="store_const", const="true",
                        help="suppress detail records")
    em = Emitter(quiet=False)
    try:
        args = vars(parser.parse_args(argv))
        command, path = args.pop("command"), args.pop("config")
        rc = parse_config(path, **args)
    except ConfigError as exc:
        em.emit({"record": "error", "message": str(exc)})
        return EXIT_USAGE
    em.quiet = rc.quiet
    emit_header(em, rc, command)
    try:
        return _COMMANDS[command](rc, em)
    except Exception as exc:
        em.emit({"record": "error", "type": type(exc).__name__,
                 "message": str(exc)})
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
