"""Show that every output check of the benchmark fires on a corrupted output.

    python3 perfbench/selftest.py

Runs one pass of each workload at the default seed and confirms that its
checks pass, then corrupts one output at a time and confirms that the
check guarding it reports a failure.  Exits 1 if a check stays silent.
Takes about half a minute on two cores.
"""

from __future__ import annotations

import sys
from dataclasses import replace

from worker import set_up
from workloads import DEFAULT_SEED, WORKLOADS


def _solve_cases():
    def rec(**kw):
        return lambda out, st: ((out[0], out[1], replace(out[2], **kw)), st)
    return [
        ("certificate not validated",
         lambda out, st: ((replace(out[0], validated=False),) + out[1:], st)),
        ("residual", rec(residual=1.0)),
        ("candidate is trivial", rec(trivial=True)),
        ("< rho0", lambda out, st: rec(level=out[0].rho0 - 1.0)(out, st)),
        ("to 4 decimals", lambda out, st: rec(level=out[2].level + 1e-3)(
            out, st)),
        ("differ from the first pass",
         lambda out, st: (out, {"fields_sha256": "0" * 64})),
    ]


def _multi_cases():
    def scaled(out, st):
        first = replace(out[0], fields=out[0].fields * 1.01)
        return [first] + out[1:], st
    return [
        ("does not re-verify", scaled),
        ("apart up to sign", lambda out, st: (
            out + [replace(out[0], fields=-out[0].fields)], st)),
        ("reference levels not found", lambda out, st: (out[1:], st)),
    ]


def _certify_cases():
    def first(**kw):
        return lambda out, st: ([replace(out[0], **kw)] + out[1:], st)
    return [
        ("not validated", first(validated=False)),
        ("ell_norm(min_sample)",
         lambda out, st: first(min_sample=out[0].min_sample * 1.01)(out, st)),
        ("!= rho0", lambda out, st: first(rho0=out[0].rho0 * 1.5)(out, st)),
        ("endpoint energy is not negative",
         lambda out, st: first(endpoint=out[0].min_sample)(out, st)),
        ("endpoint lies inside the sphere",
         lambda out, st: first(endpoint=out[0].min_sample)(out, st)),
    ]


CASES = {"coupled-solve": _solve_cases, "decoupled-multi": _multi_cases,
         "coupled-certify": _certify_cases}


def main() -> int:
    silent = 0
    for name, cases in CASES.items():
        workload = WORKLOADS[name]
        qv, cfg, grid, mf, _ = set_up(workload)
        outputs = workload.run(qv, cfg, grid, mf, DEFAULT_SEED)
        state: dict = {}
        clean = workload.check(qv, cfg, grid, mf, DEFAULT_SEED, outputs, state)
        print(f"{name}: clean output, {len(clean)} failures")
        silent += bool(clean)
        for expected, corrupt in cases():
            bad, bad_state = corrupt(outputs, dict(state))
            fails = workload.check(qv, cfg, grid, mf, DEFAULT_SEED, bad,
                                   bad_state)
            fired = any(expected in msg for _, msg in fails)
            silent += not fired
            print(f"  {'fires ' if fired else 'SILENT'} {expected!r}: "
                  f"{[msg for _, msg in fails]}")
    print("all checks fire" if not silent else f"{silent} checks silent")
    return 1 if silent else 0


if __name__ == "__main__":
    sys.exit(main())
