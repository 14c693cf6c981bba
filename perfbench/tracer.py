"""Outside-in tracer for quasivar's public functions.

Each traced function is wrapped at every module of the package that
binds it by name (``energy.j_value``, ``mpsolver.j_value``,
``quasivar.j_value``, ...), so calls made inside the package are seen
and not only the calls the benchmark makes.  Methods are wrapped on
their class.  The Newton-Krylov polish is private, so its boundary is
the public ``scipy.optimize.root`` call that mpsolver makes.

Spans (name, parent, start, end) are kept in flat arrays and written out
once, when the run ends; self time is a span's duration minus the
durations of its direct children.  Spans are opened inside a pass span,
so every figure can be given per pass.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

PASS = "bench.pass"

# span name -> (module, attribute) of the module-level public functions
FUNCTIONS = {
    "grid.ell_norm": ("quasivar.grid", "ell_norm"),
    "energy.j_value": ("quasivar.energy", "j_value"),
    "energy.dJ_loads": ("quasivar.energy", "dJ_loads"),
    "energy.gradient_representative": ("quasivar.energy",
                                       "gradient_representative"),
    "eigen.first_eigenpair": ("quasivar.eigen", "first_eigenpair"),
    "mpsolver.certify_geometry": ("quasivar.mpsolver", "certify_geometry"),
    "mpsolver.scale_to_ell": ("quasivar.mpsolver", "scale_to_ell"),
    "mpsolver.mountain_pass_search": ("quasivar.mpsolver",
                                      "mountain_pass_search"),
    "mpsolver.multiplicity_search": ("quasivar.mpsolver",
                                     "multiplicity_search"),
    "mpsolver.verify_candidate": ("quasivar.mpsolver", "verify_candidate"),
}
MODEL_EVALS = ("A_eval", "a_eval", "At_eval", "B_eval", "b_eval", "Bt_eval",
               "G_eval", "Gu_eval", "Gv_eval")
POLISH = "mpsolver.polish"
ALL_SPANS = (tuple(FUNCTIONS) + ("grid.laplacian_solve", "model.eval", POLISH))
COUNTERS = ("grid.gridfunction.validations", "eigen.iterations",
            "mpsolver.search.iterations", "mpsolver.polish.failed",
            "mpsolver.polish.rejected", "mpsolver.polish.kept")


class Tracer:
    """Records spans for the named functions while installed.

    ``spans`` selects the span names to record (default: all of
    ALL_SPANS); the counters are kept only when every span is traced.
    ``clock`` times the spans (default: ``time.perf_counter``).
    """

    def __init__(self, spans=ALL_SPANS, clock=time.perf_counter):
        self.traced = tuple(spans)
        self.clock = clock
        self.full = set(self.traced) == set(ALL_SPANS)
        self.names = [PASS] + list(self.traced)
        self._ids = {name: k for k, name in enumerate(self.names)}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.pass_counts: list[Counter] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    def _count(self, key: str, amount: int = 1) -> None:
        self.pass_counts[-1][key] += amount

    @contextmanager
    def pass_span(self):
        """Root span of one pass; counters restart with it."""
        self.pass_counts.append(Counter())
        i = self._open(0)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name, fn, on_result=None, on_error=None):
        nid = self._ids[name]

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if on_error is not None:
                    on_error()
                raise
            finally:
                self._close(i)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "quasivar" and not modname.startswith("quasivar."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _polish_outcome(self, args, sol) -> None:
        """Classify a polish by mpsolver's trust-region rule."""
        import numpy as np
        x0 = np.asarray(args[1])
        if not sol.success:
            self._count("mpsolver.polish.failed")
        elif (np.linalg.norm(sol.x - x0)
              > 0.5 * max(np.linalg.norm(x0), 1.0)):
            self._count("mpsolver.polish.rejected")
        else:
            self._count("mpsolver.polish.kept")

    def install(self) -> None:
        import quasivar.grid
        import quasivar.model
        import scipy.optimize

        hooks = {}
        if self.full:
            hooks = {
                "eigen.first_eigenpair": lambda a, r: self._count(
                    "eigen.iterations", r.iterations),
                "mpsolver.mountain_pass_search": lambda a, r: self._count(
                    "mpsolver.search.iterations", r.iterations),
            }
            validate = quasivar.grid.GridFunction.__post_init__

            def counted_validate(gf):
                self._count("grid.gridfunction.validations")
                return validate(gf)

            self._patch(quasivar.grid.GridFunction, "__post_init__",
                        counted_validate)
        for name in self.traced:
            if name in FUNCTIONS:
                modname, attr = FUNCTIONS[name]
                original = getattr(sys.modules[modname], attr)
                self._patch_everywhere(
                    original, self._wrap(name, original, hooks.get(name)))
            elif name == "grid.laplacian_solve":
                cls = quasivar.grid.Grid
                self._patch(cls, "laplacian_solve",
                            self._wrap(name, cls.laplacian_solve))
            elif name == "model.eval":
                cls = quasivar.model.ModelFunctions
                for attr in MODEL_EVALS:
                    self._patch(cls, attr, self._wrap(name, getattr(cls, attr)))
            elif name == POLISH:
                self._patch(scipy.optimize, "root", self._wrap(
                    name, scipy.optimize.root, self._polish_outcome,
                    lambda: self._count("mpsolver.polish.failed")))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------

    def passes(self) -> list[dict]:
        """Per pass: wall time, durations per span name, calls and self time.

        Parents are opened before their children, so one forward sweep
        finds each span's pass and sums each parent's child time.
        """
        n = len(self.start)
        child = [0.0] * n
        owner = [0] * n
        out: list[dict] = []
        for i in range(n):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p < 0:
                owner[i] = len(out)
                out.append({"wall_s": dur, "durations": {}, "calls": Counter(),
                            "self_s": Counter()})
                continue
            owner[i] = owner[p]
            child[p] += dur
        for i in range(n):
            if self.parent[i] < 0:
                continue
            rec = out[owner[i]]
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            rec["durations"].setdefault(name, []).append(dur)
            rec["calls"][name] += 1
            rec["self_s"][name] += dur - child[i]
        for rec, counts in zip(out, self.pass_counts):
            rec["counts"] = counts
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                        f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


def layer_metrics(rec: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, self_s, counts = rec["calls"], rec["self_s"], rec["counts"]
    out = {}
    for name in ALL_SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for key in COUNTERS:
        out[key] = counts[key]
    polish = calls[POLISH]
    out["mpsolver.polish.kept_ratio"] = (
        counts["mpsolver.polish.kept"] / polish if polish else 0.0)
    return out
