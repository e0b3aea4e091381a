"""Span tracer that times casemix's public functions from outside the package.

`install()` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent span, op id) in memory. Modules bind
functions by name (`from .glm import fit_logistic`), so the wrapper is bound
into every `casemix.*` namespace that holds the original object, and methods
are replaced on their class. `Tracer.missed_bindings()` reports any module
global that still holds an original after installation.

Per-call facts that need the arguments or the result (fit fingerprints,
Newton iterations, system size, test counts) are collected in a child span
named `trace.hook`, so their cost never lands in a layer's self time.
"""

from __future__ import annotations

import hashlib
import inspect
import sys
import threading
import time
from collections import Counter

import numpy as np

HOOK = "trace.hook"
HOOKED = ("glm.logistic", "glm.multinomial", "ipd.load", "variance.build_system",
          "variance.bootstrap", "het.tests", "simlab.study")
_MISSING = object()

# (module, attribute path, span name). A span name is the layer plus what the
# call does; per-layer metrics aggregate spans by name. Calls left unwrapped
# count in their caller's self time: EstimatingSystem.sandwich (condition
# check and inverse) in variance.sandwich, SimulationReport.write_tables and
# the CSV/JSON writes of `analyze` in cli.main.
TARGETS = (
    ("casemix.ipd", "load_ipd", "ipd.load"),
    ("casemix.ipd", "IpdDataset.subset", "ipd.subset"),
    ("casemix.ipd", "IpdDataset.mask", "ipd.mask"),
    ("casemix.formula", "ModelFormula.design_matrix", "formula.design"),
    ("casemix.glm", "fit_logistic", "glm.logistic"),
    ("casemix.glm", "fit_multinomial", "glm.multinomial"),
    ("casemix.transport", "standardized_grid", "transport.grid"),
    ("casemix.transport", "effect_matrix", "transport.effect"),
    ("casemix.transport", "common_control_check", "transport.control_check"),
    ("casemix.variance", "sandwich_cov", "variance.sandwich"),
    ("casemix.variance", "build_system", "variance.build_system"),
    ("casemix.variance", "EstimatingSystem.bread", "variance.bread"),
    ("casemix.variance", "EstimatingSystem.meat", "variance.meat"),
    ("casemix.variance", "bootstrap_cov", "variance.bootstrap"),
    ("casemix.meta", "pool_matrix", "meta.pool"),
    ("casemix.het", "all_tests", "het.tests"),
    ("casemix.simlab", "run_study", "simlab.study"),
    ("casemix.simlab", "generate_setting", "simlab.generate"),
    ("casemix.simlab", "true_values_oracle", "simlab.oracle"),
    ("casemix.cli", "main", "cli.main"),
)


def _digest(h, a) -> None:
    if a is None:
        h.update(b"none")
        return
    a = np.ascontiguousarray(a)
    h.update(str((a.dtype.str, a.shape)).encode())
    h.update(a.tobytes())


def _fit_fingerprint(fn, args, kwargs) -> str:
    """Hash of (design, response, weights, reference) of one fit call."""
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    h = hashlib.blake2b(digest_size=16)
    h.update(fn.__name__.encode())
    _digest(h, bound.get("X"))
    _digest(h, bound.get("y", bound.get("categories")))
    _digest(h, bound.get("weights"))
    h.update(repr(bound.get("reference")).encode())
    return h.hexdigest()


class Tracer:
    """In-memory spans and counts for one op (one child process)."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list = []           # [name, start, end, parent, op_id]
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.fingerprints: set = set()
        self._local = threading.local()     # per-thread stack of open span ids
        self._lock = threading.Lock()       # span ids are list positions
        self._originals: dict = {}          # id(original) -> original

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               stack[-1] if stack else -1, self.op_id])
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        tracer = self
        hooked = name in HOOKED

        def traced(*args, **kwargs):
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid)
                tracer.counts[name + ".failed"] += 1
                raise
            tracer._close(sid)
            if not hooked:
                return result
            hid = tracer._open(HOOK)
            try:
                tracer._after(name, fn, args, kwargs, result)
            finally:
                tracer._close(hid)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _after(self, name, fn, args, kwargs, result) -> None:
        """Counts that need the call's arguments or its result."""
        if name in ("glm.logistic", "glm.multinomial"):
            self.fingerprints.add(_fit_fingerprint(fn, args, kwargs))
            self.counts["glm.newton_iters"] += int(result.iterations)
        elif name == "ipd.load":
            self.counts["ipd.load_rows"] += int(result.n)
        elif name == "variance.build_system":
            self.maxima["variance.theta_dim"] = max(self.maxima["variance.theta_dim"],
                                                    int(result.m))
            self.maxima["variance.psi_bytes"] = max(self.maxima["variance.psi_bytes"],
                                                    int(result.n) * int(result.m) * 8)
        elif name == "variance.bootstrap":
            self.counts["variance.boot_replicates"] += int(result.replicates)
            self.counts["variance.boot_excluded"] += int(
                sum(int(v.sum()) for v in result.excluded.values()))
        elif name == "het.tests":
            self.counts["het.tests_run"] += len(result)
            self.counts["het.tests_infeasible"] += sum(1 for r in result if not r.feasible)
        elif name == "simlab.study":
            self.counts["simlab.reps_failed"] += sum(result.failure_counts().values())

    def install(self) -> None:
        """Wrap every target and rebind it wherever casemix holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "casemix" or n.startswith("casemix."))]
        for modname, path, name in TARGETS:
            owner = sys.modules[modname]
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            original = owner.__dict__[parts[-1]]
            wrapper = self.wrap(name, original)
            self._originals[id(original)] = original
            if len(parts) > 1:          # method: replace on the class
                setattr(owner, parts[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def missed_bindings(self) -> list:
        """Module globals or class attributes in casemix still bound to an
        original (unwrapped) traced object."""
        missed = []
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == "casemix" or modname.startswith("casemix.")):
                continue
            for attr, value in vars(mod).items():
                if self._originals.get(id(value), _MISSING) is value:
                    missed.append(f"{modname}.{attr}")
                if isinstance(value, type):
                    missed += [f"{modname}.{attr}.{cattr}" for cattr, cval in vars(value).items()
                               if self._originals.get(id(cval), _MISSING) is cval]
        return missed

    def record(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "maxima": dict(self.maxima),
                "distinct_fits": len(self.fingerprints)}


def self_times(spans: list) -> dict:
    """Per span name: (calls, summed self time). A span's self time is its
    duration minus the durations of its direct children; spans nest within
    one thread, so the children of a span never overlap."""
    child_sum = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_sum[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child_sum[i])
    return out
