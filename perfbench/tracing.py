"""Outside-in layer trace: spans around the module-level names entopt looks up.

Each wrapped name is replaced, in every entopt module namespace that holds
it, by a wrapper that records a span (name, start, end, parent) in memory.
Nothing inside the package changes; the wrappers are removed when the traced
pass ends. A name that no longer exists is reported as absent with the reason,
and every metric that needs it is reported absent too.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span label, owning module, attribute). Order only fixes span-name ids.
TARGETS = [
    ("cli.main", "entopt.cli", "main"),
    ("spin_model.build_hamiltonian", "entopt.spin_model", "build_hamiltonian"),
    ("spin_model.canonicalize", "entopt.spin_model", "canonicalize"),
    ("linalg.hermitian_eigen", "entopt.linalg", "hermitian_eigen"),
    ("thermal.gibbs_state", "entopt.thermal", "gibbs_state"),
    ("thermal.purity", "entopt.thermal", "purity"),
    ("measures.entanglement_report", "entopt.measures", "entanglement_report"),
    ("measures.negativity", "entopt.measures", "negativity"),
    ("measures.concurrence", "entopt.measures", "concurrence"),
    ("measures.pi_measure", "entopt.measures", "pi_measure"),
    ("measures.min_pt_eigenvalue", "entopt.measures", "min_pt_eigenvalue"),
    ("measures.necessary_condition", "entopt.measures", "necessary_condition"),
    ("closed_form.negativity_tilde", "entopt.closed_form", "negativity_tilde"),
    ("optimizer.enhancement_curve", "entopt.optimizer", "enhancement_curve"),
    ("optimizer.optimal_field", "entopt.optimizer", "optimal_field"),
    ("optimizer.stationarity", "entopt.optimizer", "_stationarity_scaled"),
    ("optimizer.brentq", "entopt.optimizer", "brentq"),
    ("optimizer.boundary_temperature", "entopt.optimizer", "boundary_temperature"),
    ("optimizer.phase_diagram", "entopt.optimizer", "phase_diagram"),
    ("optimizer.verify_hypothesis1", "entopt.optimizer", "verify_hypothesis1"),
    ("optimizer.search.restart", "entopt.optimizer", "minimize"),
    ("optimizer.search.make_objective", "entopt.optimizer", "_make_search_objective"),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh"),
    ("numpy.linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
]
OBJECTIVE = "optimizer.search.objective"
EIGENSOLVERS = ("linalg.hermitian_eigen", "numpy.linalg.eigh", "numpy.linalg.eigvalsh")
PT_MEASURES = ("measures.negativity", "measures.min_pt_eigenvalue", "measures.pi_measure")


class Tracer:
    """Spans in flat arrays, so a few hundred thousand cost a few MB."""

    def __init__(self):
        self.names: list = []
        self.name_id: dict = {}
        self.span_name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.open = [-1]
        self.counts: Counter = Counter()
        self.absent: dict = {}
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        open_, clock = self.open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(open_[-1])
            self.end.append(0.0)
            open_.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                open_.pop()

        return traced

    def _wrapper(self, name: str, fn):
        if name == "optimizer.search.restart":
            inner = self.wrap(name, fn)

            def restart(*args, **kwargs):
                res = inner(*args, **kwargs)
                self.counts["nfev"] += int(res.nfev)
                self.counts["failed_restarts"] += not res.success
                return res

            return restart
        if name == "optimizer.search.make_objective":
            return lambda *args, **kwargs: self.wrap(OBJECTIVE, fn(*args, **kwargs))
        return self.wrap(name, fn)

    def install(self) -> None:
        """Wrap every target in each namespace that holds it (the package, its modules)."""
        namespaces = [m for n, m in sys.modules.items() if n == "entopt" or n.startswith("entopt.")]
        for name, owner, attr in TARGETS:
            module = sys.modules.get(owner)
            original = getattr(module, attr, None)
            if original is None:
                self.absent[name] = f"{owner}.{attr} does not exist"
                continue
            wrapper = self._wrapper(name, original)
            holders = [module] + [ns for ns in namespaces if ns is not module]
            for ns in holders:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._restore.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._restore):
            setattr(ns, key, original)
        self._restore.clear()

    def stats(self) -> "SpanStats":
        return SpanStats(self)


class SpanStats:
    """Per-name call counts, inclusive and self time, and parent-name counts."""

    def __init__(self, tracer: Tracer):
        names = np.asarray(tracer.span_name)
        parent = np.asarray(tracer.parent)
        dur = np.asarray(tracer.end) - np.asarray(tracer.start)
        cover = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(cover, parent[has_parent], dur[has_parent])
        self_time = dur - cover
        self.ids = tracer.name_id
        self.absent = tracer.absent
        self.counts = tracer.counts
        k = len(tracer.names)
        self.calls = np.bincount(names, minlength=k)
        self.total = np.bincount(names, weights=dur, minlength=k)
        self.self_total = np.bincount(names, weights=self_time, minlength=k)
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        self._pairs = Counter(zip(names.tolist(), parent_name.tolist()))

    def need(self, *labels) -> None:
        for label in labels:
            if label in self.absent:
                raise LookupError(self.absent[label])

    def n(self, label: str) -> int:
        self.need(label)
        i = self.ids.get(label)
        return 0 if i is None else int(self.calls[i])

    def seconds(self, label: str, self_only: bool = False) -> float:
        self.need(label)
        i = self.ids.get(label)
        return 0.0 if i is None else float((self.self_total if self_only else self.total)[i])

    def per_call_us(self, label: str, self_only: bool = False) -> float:
        calls = self.n(label)
        if calls == 0:
            raise LookupError(f"{label} was not called")
        return 1e6 * self.seconds(label, self_only) / calls

    def under(self, labels, parents) -> int:
        """Spans named in labels whose direct parent span is named in parents."""
        ids = {self.ids.get(x) for x in labels}
        pids = {self.ids.get(x) for x in parents}
        return sum(c for (a, b), c in self._pairs.items() if a in ids and b in pids)
