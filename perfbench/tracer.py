"""Timing wrappers over the public functions and methods of ``matchflow``.

``Tracer.install`` replaces every public function of each ``matchflow``
module, and every public method of the classes a module defines, with a
wrapper that records a span (name, start, end, parent).  The CLI calls other
modules through module attributes (``ingest.load_and_clean``,
``wavelet.cwt`` ...), so each layer is timed from outside without changing
``src/``.  Calls through names imported with ``from x import y`` stay inside
the caller's span.

Spans are kept in memory; ``layer_metrics`` turns them into self times per
layer.  A span's self time is its duration minus its children's.  Each span
is charged to the layer of its own name in ``SPAN_LAYERS``, else to its
parent's layer when the parent is in the same module, else to its module's
entry in ``MODULE_LAYERS``.  Self times add up to the root spans exactly, so
the layers' times add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

MODULES = ("ahp", "classifier", "cli", "ingest", "labels", "metrics", "momentum",
           "plots", "sweep", "trend", "wavelet")

SPAN_LAYERS = {
    "ingest.load_and_clean": "ingest.parse",
    "ingest.parse_match_csv": "ingest.parse",
    "ingest.clean_timelines": "ingest.clean",
    "ingest.clean_with_report": "ingest.clean",
    "ingest.clean": "ingest.clean",
    "ingest.write_clean_csv": "ingest.write",
    "ingest.derive_features": "ingest.features",
    "classifier.train": "classifier.train",
    "classifier.SoftmaxModel.predict": "classifier.predict",
    "classifier.SoftmaxModel.predict_proba": "classifier.predict",
    "trend.randomness_test": "trend.randomness",
    "wavelet.cwt": "wavelet.cwt",
}
MODULE_LAYERS = {
    "ahp": "ahp",
    "classifier": "classifier.other",
    "cli": "cli.self",
    "ingest": "ingest.other",
    "labels": "labels",
    "metrics": "metrics",
    "momentum": "momentum",
    "plots": "plots",
    "sweep": "sweep",
    "trend": "trend.fit",
    "wavelet": "wavelet.other",
}
LAYERS = tuple(dict.fromkeys(list(SPAN_LAYERS.values()) + list(MODULE_LAYERS.values())))
COUNTS = ("ingest.rows", "ingest.rejected_rows", "ingest.repairs", "ingest.features_calls",
          "momentum.calls", "classifier.iters", "classifier.loss_evals", "classifier.converged",
          "wavelet.cells")


def _count_load(counts, result):
    timelines, report = result
    totals = report.to_dict()["totals"]
    counts["ingest.rows"] += sum(len(t) for t in timelines)
    counts["ingest.rejected_rows"] += totals.pop("rejected_rows")
    counts["ingest.repairs"] += sum(totals.values())


def _count_train(counts, model):
    counts["classifier.iters"] += model.n_iters
    counts["classifier.converged"] += int(bool(model.converged))


# Counts read from return values, keyed by span name.
OBSERVERS = {
    "ingest.load_and_clean": _count_load,
    "classifier.train": _count_train,
    "wavelet.cwt": lambda counts, s: counts.update({"wavelet.cells": s.coefficients.size}),
}
# Counts of calls, keyed by span name.
CALL_COUNTS = {
    "ingest.derive_features": "ingest.features_calls",
    "momentum.momentum_series": "momentum.calls",
    "classifier.nll_and_grad": "classifier.loss_evals",
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        call_count = CALL_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if call_count:
                self.counts[call_count] += 1
            if observe:
                observe(self.counts, result)
            return result

        return traced

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        for short in MODULES:
            module = importlib.import_module(f"matchflow.{short}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._replace(module, attr, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._install_methods(short, obj)

    def _install_methods(self, short, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._replace(cls, attr, self._wrap(name, member))
            elif isinstance(member, (classmethod, staticmethod)):
                self._replace(cls, attr, type(member)(self._wrap(name, member.__func__)))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict:
        """Self seconds per layer plus the counts, summed over every op."""
        layers = []
        for name, _, _, parent, _ in self.spans:
            layer = SPAN_LAYERS.get(name)
            if layer is None:
                module = name.split(".")[0]
                if parent >= 0 and self.spans[parent][0].split(".")[0] == module:
                    layer = layers[parent]
                else:
                    layer = MODULE_LAYERS[module]
            layers.append(layer)
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, own in zip(layers, self.self_times()):
            out[layer] += own
        out.update({name: self.counts[name] for name in COUNTS})
        return out

    def root_total(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)
