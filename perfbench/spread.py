"""Spread of benchmark runs, and the change between two sets of runs.

    python3 perfbench/spread.py RUNS [BASE]

RUNS and BASE are files holding the stdout of run.py invocations, one
after another.  For every workload and metric of BENCHMARK.json this
prints the median over the runs and the spread, the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as
a share of the median.  With BASE it also prints how much worse the
median of RUNS is than the median of BASE, as a share of BASE's median,
and flags a change beyond the metric's bound.  Exits 1 when a spread
(other than that of setup_s) or a change exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, metric): [values]} from the report/result line pairs."""
    values = defaultdict(list)
    workload = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if obj.get("record") == "report":
            workload = obj["workload"]
        elif "metrics" in obj and workload is not None:
            for name, m in obj["metrics"].items():
                values[(workload, name)].append(m["value"])
            workload = None
    return values


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    runs = load(argv[0])
    base = load(argv[1]) if len(argv) == 2 else None
    bad = 0
    print(f"{'workload':16} {'metric':36} {'n':>3} {'median':>12} "
          f"{'spread':>7} {'bound':>6}" + ("  change" if base else ""))
    for (workload, name), vals in sorted(runs.items()):
        spec = specs.get(name, {})
        bound = spec.get("bound")
        med = statistics.median(vals)
        s = spread(vals) if len(vals) >= 2 else float("nan")
        flag = ""
        if bound is not None and name != "setup_s" and s > bound:
            flag, bad = " SPREAD", bad + 1
        line = (f"{workload:16} {name:36} {len(vals):3d} {med:12.6g} "
                f"{s:7.3f} {bound if bound is not None else '':>6}")
        if base and (workload, name) in base:
            ref = statistics.median(base[(workload, name)])
            worse = med - ref if spec.get("better") == "lower" else ref - med
            change = worse / ref if ref else 0.0
            line += f"  {change:+.3f}"
            if bound is not None and change > bound:
                flag, bad = flag + " WORSE", bad + 1
        print(line + flag)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
