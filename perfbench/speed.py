"""Machine-speed probe sampled all through a timed run.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent within a minute, and the drift reaches this process
as slower CPU time, not as time spent descheduled.  No statistic of the
run's own timings can remove it, so the workload process also times a
fixed reference chunk of work every PERIOD_S seconds, from a SIGALRM
handler, while the passes run.  The chunk calls nothing of quasivar, so
a change to the package moves the passes and leaves the chunk alone.

Kinds of work slow down by different amounts on this host: sparse LU
solves on small systems more than elementwise math on large arrays.  So
each workload names the chunk that does the kind of work it spends its
time in (see CHUNKS).

``clock()`` is ``time.perf_counter()`` minus the time spent in chunks,
so spans timed with it exclude the probe.  A pass's ``wall_norm`` is its
wall time on that clock divided by the mean chunk time sampled during
it: the pass's length in chunks, which a slowdown of the host leaves
unchanged.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.02         # time between the end of one chunk and the next


def _sparse_chunk():
    """SuperLU solves, small-array numpy calls and Python arithmetic,
    the mix of the solve workloads (Laplacian solves, model evaluations,
    the Newton-Krylov polish); 1-2 ms."""
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    m = 31                          # interior nodes per axis of an n=33 grid
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    lu = spla.splu((sp.kron(t, sp.identity(m))
                    + sp.kron(sp.identity(m), t)).tocsc())
    rhs = np.linspace(0.5, 1.5, m * m)
    x = np.linspace(0.1, 1.0, 33 * 33)

    def chunk():
        y = rhs
        for _ in range(15):
            y = lu.solve(y)
            y = y / abs(y).max()
        for _ in range(25):
            (abs(x) ** 1.5 * x).sum()
        s = 0.0
        for i in range(1500):
            s += (i % 7) * 0.5
    return chunk


def _array_chunk():
    """Elementwise powers and roots on arrays the size of an n=65 grid's
    element gradients, the work of ell_norm in certify; 1-2 ms."""
    import numpy as np

    x = np.linspace(0.1, 1.0, 2 * 64 * 64 * 2)

    def chunk():
        for _ in range(15):
            np.sqrt(abs(x) ** 1.5 * x + 1.0).sum()
    return chunk


CHUNKS = {"sparse": _sparse_chunk, "array": _array_chunk}


class SpeedProbe:
    def __init__(self, kind: str):
        self._chunk = CHUNKS[kind]()
        self.spent = 0.0
        self.durations: list[float] = []
        self._running = False

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._chunk()
        dur = time.perf_counter() - t0
        self.durations.append(dur)
        self.spent += dur
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def clock(self) -> float:
        """perf_counter() minus the time spent in chunks so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def start(self) -> None:
        for _ in range(3):          # warm the caches the chunk uses
            self._chunk()
        self._running = True
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling.  The handler stays installed: a SIGALRM already
        pending when the timer is disarmed still reaches it, and under
        the default disposition it would end the process."""
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
