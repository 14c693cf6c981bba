"""One benchmark process: set up, run passes of a workload, check outputs.

Started by run.py in a fresh process whose BLAS/OpenMP pools are capped
at one thread.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--setup-only]

A pass starts only while the time measured so far, plus the length of
the pass before it, stays within --seconds; the first pass always runs.
Without --trace only the certify and search calls are timed, and the
speed probe of speed.py samples the host all through the passes, whose
times exclude it; with --trace 1 every layer is timed and the probe is
off.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OP_SPANS = ("mpsolver.certify_geometry", "mpsolver.mountain_pass_search")


def set_up(workload):
    """Import the package from this checkout and build the pass inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import quasivar as qv
    cfg = qv.ExponentConfig(**workload.config)
    grid = qv.Grid(2, workload.n)
    mf = qv.ModelFunctions(cfg)
    grid.laplacian_solve(grid.zeros() + 1.0)  # factorizes the stiffness
    setup_s = time.perf_counter() - t0
    if not Path(qv.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"quasivar imported from {qv.__file__}, "
                         f"not from {ROOT / 'src'}")
    return qv, cfg, grid, mf, setup_s


def run_passes(workload, qv, cfg, grid, mf, seed, seconds, trace):
    from speed import SpeedProbe
    from tracer import ALL_SPANS, Tracer, layer_metrics

    probe = None if trace else SpeedProbe(workload.chunk)
    tracer = (Tracer(ALL_SPANS) if trace
              else Tracer(OP_SPANS, clock=probe.clock))
    state: dict = {}
    passes = []
    if probe is not None:
        probe.start()
    begin = time.perf_counter()
    while True:
        failures, error = [], None
        first_chunk = len(probe.durations) if probe is not None else 0
        with tracer.installed(), tracer.pass_span():
            try:
                outputs = workload.run(qv, cfg, grid, mf, seed)
            except Exception:
                error = traceback.format_exc(limit=3)
        rec = tracer.passes()[-1]
        if probe is not None:
            chunks = (probe.durations[first_chunk:]
                      or probe.durations[-1:])
            rec["chunk_s"] = sum(chunks) / len(chunks)
        if error is None:
            try:
                failures = workload.check(qv, cfg, grid, mf, seed, outputs,
                                          state)
            except Exception:
                error = traceback.format_exc(limit=3)
        failed_ops = (set(workload.operations) if error is not None
                      else {op for op, _ in failures})
        durations = rec["durations"]
        passes.append({
            "wall_s": rec["wall_s"],
            "chunk_s": rec.get("chunk_s"),
            "certify_s": durations.get("mpsolver.certify_geometry", []),
            "search_s": durations.get("mpsolver.mountain_pass_search", []),
            "attempted": len(workload.operations),
            "failed": len(failed_ops),
            "failures": [f"{op}: {msg}" for op, msg in failures],
            "error": error,
            "verified": state.pop("verified", 0) if error is None else 0,
            "layers": layer_metrics(rec) if trace else None,
        })
        elapsed = time.perf_counter() - begin
        if elapsed + rec["wall_s"] > seconds:
            break
    if probe is not None:
        probe.stop()
        state["probe_chunks"] = len(probe.durations)
    if trace:
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{workload.name}-seed{seed}.tsv.gz"
        tracer.write(span_file)
        state["span_file"] = str(span_file.relative_to(ROOT))
    return passes, state


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    qv, cfg, grid, mf, setup_s = set_up(workload)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        import numpy
        import scipy
        passes, state = run_passes(workload, qv, cfg, grid, mf, args.seed,
                                   args.seconds, args.trace)
        result.update(
            passes=passes, state=state,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            versions={"python": platform.python_version(),
                      "numpy": numpy.__version__, "scipy": scipy.__version__,
                      "quasivar": qv.__version__})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
