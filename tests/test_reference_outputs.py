"""The reference outputs print the committed bytes.

``reference_outputs.py`` prints every checked figure of quasivar, one line
each, and ``reference_outputs.txt`` holds the bytes it printed on the
pinned numpy and scipy.  This test runs the script under ``-W error`` and
names the first line that differs.  Other versions may round differently,
so there the test skips.  A change that moves these bytes on purpose
regenerates the copy with

    PYTHONPATH=src python tests/reference_outputs.py > tests/reference_outputs.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import quasivar

HERE = Path(__file__).resolve().parent
PINNED = {"numpy": "2.4.6", "scipy": "1.17.1"}
INSTALLED = {"numpy": np.__version__, "scipy": scipy.__version__}


@pytest.mark.skipif(
    INSTALLED != PINNED,
    reason=f"the committed reference outputs hold the bits of numpy "
           f"{PINNED['numpy']} and scipy {PINNED['scipy']}; installed are "
           f"numpy {INSTALLED['numpy']} and scipy {INSTALLED['scipy']}")
def test_reference_outputs_match_the_committed_copy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(quasivar.__file__)))
    run = subprocess.run(
        [sys.executable, "-W", "error", str(HERE / "reference_outputs.py")],
        capture_output=True, env=env)
    assert run.returncode == 0, run.stderr.decode(errors="replace")
    printed = run.stdout.splitlines(keepends=True)
    committed = (HERE / "reference_outputs.txt").read_bytes().splitlines(
        keepends=True)
    for number, (got, want) in enumerate(zip(printed, committed), 1):
        assert got == want, (f"line {number} differs\n"
                             f"committed: {want!r}\nprinted:   {got!r}")
    assert len(printed) == len(committed), (
        f"{len(printed)} lines printed, {len(committed)} committed")
