"""Span recording around csorbit's public functions, installed from outside.

``Tracer.install`` wraps each function named in ``SPANS`` and rebinds the
name wherever a csorbit module holds it, so calls made through ``from .orbit
import group_action`` in ``realize`` are recorded as well as attribute calls
such as ``orbit.kernel(...)``.  ``scipy.linalg.expm`` and
``numpy.linalg.lstsq`` are rebound on their own modules, which is where
csorbit looks them up.  ``MultiPoly.eval`` is only counted: it runs about
10^5 times per su3(3,3) check, and a span per call would cost more than the
call.

Spans are kept in memory as ``[name, parent, request, start, end]`` and
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# span name -> (module, attribute) pairs whose calls the span records
SPANS = {
    "catalog.load_model": [("csorbit.catalog", "load_model")],
    "algebra.validate_model": [("csorbit.algebra", "validate_model")],
    "algebra.covector_numeric": [("csorbit.algebra", "covector_numeric")],
    "orbit.coherent_vector": [("csorbit.orbit", "coherent_vector")],
    "orbit.coherent_covector": [("csorbit.orbit", "coherent_covector")],
    "orbit.kernel": [("csorbit.orbit", "kernel")],
    "orbit.kernel_eval": [("csorbit.orbit", "kernel_eval")],
    "orbit.extract_coordinates": [("csorbit.orbit", "extract_coordinates")],
    "orbit.group_action": [("csorbit.orbit", "group_action")],
    "orbit.group_element": [("csorbit.orbit", "group_element")],
    "realize.realize_all": [("csorbit.realize", "realize_all")],
    "realize.realize_generator": [("csorbit.realize", "realize_generator")],
    "realize.intertwining_residual": [("csorbit.realize", "intertwining_residual")],
    "realize.homomorphism_residual": [("csorbit.realize", "homomorphism_residual")],
    "realize.flow_crosscheck": [("csorbit.realize", "flow_crosscheck")],
    "realize.cocycle_residual": [("csorbit.realize", "cocycle_residual")],
    "analysis.quadrature_rule": [("csorbit.analysis", "quadrature_rule")],
    "analysis.parseval_residual": [("csorbit.analysis", "parseval_residual")],
    "analysis.reproducing_residual": [("csorbit.analysis", "reproducing_residual")],
    "analysis.adjoint_residual": [("csorbit.analysis", "adjoint_residual")],
    "cli.run": [("csorbit.cli", "run")],
    "polyops.render": [("csorbit.polyops", "render_poly"), ("csorbit.polyops", "render_diffop")],
    "ext.expm": [("scipy.linalg", "expm")],
    "ext.lstsq": [("numpy.linalg", "lstsq")],
}
REQUEST = "request"
COUNTS = ("polyops.MultiPoly.eval.calls", "ext.lstsq.cells")


def csorbit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "csorbit" or name.startswith("csorbit.")]


def lru_caches() -> list:
    """The package's lru_cache functions, found by their ``cache_info``."""
    found = {}
    for mod in csorbit_modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_info", None)):
                found[id(obj)] = obj
    return list(found.values())


def cache_stats(caches) -> dict:
    infos = [c.cache_info() for c in caches]
    return {
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
        "entries": sum(i.currsize for i in infos),
    }


class Tracer:
    """Records spans while active; wrappers pass straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._request = -1

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, parent, self._request, time.perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        cells = name == "ext.lstsq"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if cells:
                rows, cols = args[0].shape
                self.counts[COUNTS[1]] += rows * cols
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def _rebind(owner, attr: str, wrapper) -> None:
        orig = getattr(owner, attr)
        for holder in [owner] + csorbit_modules():
            for key, val in list(vars(holder).items()):
                if val is orig:
                    setattr(holder, key, wrapper)

    def install(self) -> None:
        """Wrap every function in ``SPANS`` and ``MultiPoly.eval``."""
        for name, targets in SPANS.items():
            for modname, attr in targets:
                owner = sys.modules[modname]
                self._rebind(owner, attr, self._span(name, getattr(owner, attr)))
        poly = sys.modules["csorbit.polyops"].MultiPoly
        self._rebind(poly, "eval", self._counted(COUNTS[0], poly.eval))

    def begin(self, request: int) -> None:
        """Open the root span of one request and start recording."""
        self._request = request
        self.active = True
        self._open(self._name_id(REQUEST))

    def end(self) -> None:
        self._close(self._stack[-1])
        self.active = False

    def layers(self) -> dict:
        """Per span name: number of calls and summed self time."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for (nid, _, _, start, end), inner in zip(self.spans, child_time):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - inner
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": ["name", "parent", "request", "start", "end"], "spans": self.spans}, fh)
