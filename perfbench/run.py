"""quasivar benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

NAME is coupled-solve, decoupled-multi, coupled-certify, or ``all`` to
run the three in turn.  Run it from the root of a checkout: the package
is imported from ./src, never from an installed copy, and the command
fails without printing a result when ./src/quasivar is missing.

Set-up is timed in SETUP_RUNS fresh processes, half of them before the
workload process and half after it, and in the workload process itself;
``setup_s`` is the median.  Spreading them over the run samples the
host's speed at its start and its end.  The workload process
runs passes for --seconds.  Every child gets one BLAS/OpenMP thread.

Output per workload: a ``report`` line with every figure (each timing as
its median, its highest percentile with at least ten samples beyond it,
and its sample count), the checked outputs and the environment; then
the result object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the ``end_to_end`` metrics of BENCHMARK.json,
with --trace 1 its ``per_layer`` metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 6          # --setup-only processes per workload run
DEADLINE_S = 170.0      # one workload's processes all end within this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and parse its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another process")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise TimeoutError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(samples: list[float], unit: str) -> dict | None:
    """Median, highest percentile with >= 10 samples beyond it, count."""
    if not samples:
        return None
    s = sorted(samples)
    n = len(s)
    median = statistics.median_low if unit == "count" else statistics.median
    tail = None
    for p in (99, 95, 90, 75, 50):
        k = math.ceil(p / 100 * n) - 1          # nearest-rank index
        if n - 1 - k >= 10:
            tail = {"p": p, "value": s[k]}
            break
    return {"median": median(s), "tail": tail, "n": n, "unit": unit,
            "samples": samples}


def end_to_end(res: dict, setup: list[float], name: str) -> tuple[dict, dict]:
    """Values of the end-to-end metrics, and the report of every figure."""
    passes = res["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report = {
        "setup_s": summary(setup, "s"),
        "wall_s": summary([p["wall_s"] for p in passes], "s"),
        "wall_norm": summary([p["wall_s"] / p["chunk_s"] for p in passes],
                             "chunk"),
        "chunk_s": summary([p["chunk_s"] for p in passes], "s"),
        "certify_s": summary([d for p in passes for d in p["certify_s"]], "s"),
        "search_s": summary([d for p in passes for d in p["search_s"]], "s"),
        "verified_results": summary([p["verified"] for p in passes], "count"),
        "failed_frac": {"value": failed / attempted, "unit": "ratio",
                        "failed": failed, "attempted": attempted},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    if name != "coupled-certify":
        report["verified_candidates"] = report["verified_results"]
    values = {k: v.get("median", v.get("value"))
              for k, v in report.items() if v is not None}
    return values, report


def per_layer(res: dict) -> tuple[dict, dict]:
    """Per-layer metrics: the median over the run's traced passes."""
    passes = res["passes"]
    names = passes[0]["layers"].keys()
    values = {}
    for name in names:
        column = [p["layers"][name] for p in passes]
        median = (statistics.median_low if isinstance(column[0], int)
                  else statistics.median)
        values[name] = median(column)
    values["trace.wall_s"] = statistics.median(p["wall_s"] for p in passes)
    report = {
        "calls_differ_between_passes": sorted(
            name for name in names if name.endswith(".calls")
            and len({p["layers"][name] for p in passes}) > 1),
        "layers": values,
    }
    return values, report


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 specs: list[dict]) -> None:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    load = os.getloadavg()

    def setups(count):
        return [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                for _ in range(count)]

    setup = setups(SETUP_RUNS // 2)
    res = run_worker(common + ["--seconds", str(seconds),
                               "--trace", str(trace)], deadline)
    setup += [res["setup_s"]] + setups(SETUP_RUNS - SETUP_RUNS // 2)

    passes = res["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values, details = (per_layer(res) if trace
                       else end_to_end(res, setup, name))
    print(json.dumps({
        "record": "report", "workload": name, "seed": seed,
        "seconds": seconds, "trace": trace, "passes": len(passes),
        "metrics": details, "outputs": res["state"],
        "failures": [f for p in passes for f in p["failures"]],
        "errors": [p["error"] for p in passes if p["error"]],
        "environment": {**res["versions"], "nproc": os.cpu_count(),
                        "affinity": len(os.sched_getaffinity(0)),
                        "loadavg_start": load,
                        "platform": platform.platform()},
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
                    for s in specs}}), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="quasivar benchmark")
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quasivar" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'quasivar'} not found; run the "
              "benchmark from a quasivar checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            run_workload(name, args.seed, args.seconds, args.trace, specs)
        except (TimeoutError, RuntimeError, KeyError) as exc:
            print(f"error: {name}: {exc!r}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
