"""Consistency of the committed ``BENCH_*.json`` before/after records.

Every performance claim carries one of these files.  Each end-to-end row
holds, per metric and side (parent, change), the raw samples and their
median and inclusive quartiles; the checks below keep those summaries
honest and the claimed workload present.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def _rows(path: Path) -> dict:
    return json.loads(path.read_text())["end_to_end"]["workloads"]


def _metrics(row: dict) -> dict:
    """The summarized metrics of a row: a summary dict on each side.

    Per-run lists such as ``failed`` may sit beside them unsummarized."""
    return {name: entry for name, entry in row.items()
            if isinstance(entry, dict)
            and all(isinstance(entry.get(s), dict) for s in SIDES)}


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_claimed_workload_present(path):
    e2e = json.loads(path.read_text())["end_to_end"]
    metric, workload = e2e["claimed"].split(" on ")
    rows = [row for name, row in e2e["workloads"].items()
            if name.split()[0] == workload]
    assert rows, f"no {workload} row for the claim {e2e['claimed']!r}"
    assert all(metric in _metrics(row) for row in rows)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_rows_have_five_pairs(path):
    for name, row in _rows(path).items():
        assert row["pairs"] >= 5, name


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_summaries_match_samples(path):
    for name, row in _rows(path).items():
        assert _metrics(row), name
        for metric, entry in _metrics(row).items():
            for side in SIDES:
                where = f"{name} {metric} {side}"
                s = entry[side]
                samples = s["samples"]
                assert s["n"] == len(samples), where
                q1, _, q3 = statistics.quantiles(samples, n=4,
                                                 method="inclusive")
                assert s["median"] == pytest.approx(
                    statistics.median(samples), rel=1e-3), where
                assert s["q1"] == pytest.approx(q1, rel=1e-3), where
                assert s["q3"] == pytest.approx(q3, rel=1e-3), where
