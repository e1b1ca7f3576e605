"""Span tracing of pdinfer's public functions, installed from outside the package.

The tracer replaces each traced function with a timing wrapper in every
``pdinfer`` module that holds a reference to it: the defining module and
every module that imported the name (``pdinfer.classify.partition_of``,
``pdinfer.cli.read_dataset``, the package root, ...). Calls made through any
of those names then record a span ``(name, parent, start, end)``; spans stay
in memory and are written out once at the end of a run. ``uninstall``
restores the original objects, so untraced phases run the unmodified code.

Only public entry points are wrapped, never per-iteration internals such as
``expected_distinct`` or the greedy sweep helpers. A public function calling
another public function of its own module through a module global (for
example ``fit_psi`` -> ``fit_psi_pooled``) also yields a span, which is why
``estimation.fit_psi_pooled`` sees every fit.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

#: module -> public functions traced in it. ``Class.method`` names a
#: classmethod, patched on the class itself.
TRACED = {
    "sampling": ("sample_sequence", "sample_labeled_dataset"),
    "core": ("SpeciesCounts.from_values", "partition_of", "esf_log_pmf"),
    "estimation": ("fit_psi_pooled",),
    "hypothesis": ("lm_test", "lr_test"),
    "dataio": ("read_dataset", "write_dataset", "write_classification"),
    "classify": (
        "counts_by_class",
        "train_from_counts",
        "classify_marginal",
        "classify_simultaneous",
    ),
    "experiment": ("run_convergence_experiment",),
    "cli": ("main",),
}

LAYERS = tuple(TRACED)
JOB_SPAN = "harness.job"

# spans are lists [name, parent id or None, start, end]
_NAME, _PARENT, _START, _END = range(4)


def _span_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.split('.')[-1]}"


class Tracer:
    """Collects spans and boundary counters for the calls it wraps."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.max_residual = 0.0
        self._stack: list[int] = []
        self._marginal_of: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.jobs = 0

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int) -> None:
        self.spans[span_id][_END] = time.perf_counter()
        self._stack.pop()

    def job(self, call):
        """Run ``call()`` as one job: a root span the layer spans nest under."""
        self.jobs += 1
        span_id = self._open(JOB_SPAN)
        try:
            return call()
        finally:
            self._close(span_id)

    def _wrap(self, name: str, function):
        observe = _OBSERVERS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(span_id)
            if observe is not None:
                observe(self, span_id, args, kwargs, result)
            return result

        return traced

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a pdinfer module binds it."""
        if self._patches:
            return
        package = [
            module
            for module_name, module in list(sys.modules.items())
            if module_name == "pdinfer" or module_name.startswith("pdinfer.")
        ]
        for module_name, attributes in TRACED.items():
            home = sys.modules[f"pdinfer.{module_name}"]
            for attribute in attributes:
                name = _span_name(module_name, attribute)
                if "." in attribute:
                    class_name, method = attribute.split(".")
                    owner = getattr(home, class_name)
                    original = owner.__dict__[method]
                    wrapped = classmethod(self._wrap(name, original.__func__))
                    self._patch(owner, method, original, wrapped)
                    continue
                original = getattr(home, attribute)
                wrapped = self._wrap(name, original)
                for module in package:
                    for bound_name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, bound_name, original, wrapped)

    def _patch(self, owner: object, name: str, original: object, wrapped: object) -> None:
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Put every original function back."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Per span name: total self time, call count, total inclusive time."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] is not None:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        self_time: defaultdict[str, float] = defaultdict(float)
        inclusive: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for span_id, span in enumerate(self.spans):
            duration = span[_END] - span[_START]
            self_time[span[_NAME]] += duration - child_time[span_id]
            inclusive[span[_NAME]] += duration
            calls[span[_NAME]] += 1
        return dict(self_time), dict(calls), dict(inclusive)

    def write(self, path: str | os.PathLike) -> None:
        """Write the spans as JSON lines: id, name, parent, start, end."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            for span_id, (name, parent, start, end) in enumerate(self.spans):
                record = {"id": span_id, "name": name, "parent": parent,
                          "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")


# -- boundary counters ---------------------------------------------------------
# Each observer runs after its span has closed, so its cost is not charged to
# the layer it observes.


def _parent_name(tracer: Tracer, span_id: int) -> str | None:
    parent = tracer.spans[span_id][_PARENT]
    return None if parent is None else tracer.spans[parent][_NAME]


def _duration(tracer: Tracer, span_id: int) -> float:
    span = tracer.spans[span_id]
    return span[_END] - span[_START]


def _observe_sample(tracer, span_id, args, kwargs, result) -> None:
    tracer.counters["sampling.observations"] += result.values.size


def _observe_fit(tracer, span_id, args, kwargs, result) -> None:
    tracer.counters["estimation.fits"] += 1
    tracer.counters["estimation.iterations"] += result.iterations
    if result.converged:
        tracer.max_residual = max(tracer.max_residual, result.residual)
    else:
        tracer.counters["estimation.degenerate"] += 1


def _observe_read(tracer, span_id, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.counters["dataio.bytes_read"] += os.path.getsize(path)


def _observe_write(tracer, span_id, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.counters["dataio.bytes_written"] += os.path.getsize(path)
    tracer.counters["dataio.write_time"] += _duration(tracer, span_id)


def _observe_marginal(tracer, span_id, args, kwargs, result) -> None:
    parent = tracer.spans[span_id][_PARENT]
    if _parent_name(tracer, span_id) == "classify.classify_simultaneous":
        # the simultaneous classifier's starting point; compared on its return
        tracer._marginal_of[parent] = result.labeling
        return
    tracer.counters["classify.items"] += result.labeling.size
    tracer.counters["classify.time"] += _duration(tracer, span_id)


def _observe_simultaneous(tracer, span_id, args, kwargs, result) -> None:
    marginal = tracer._marginal_of.pop(span_id)
    tracer.counters["classify.items"] += result.labeling.size
    tracer.counters["classify.time"] += _duration(tracer, span_id)
    tracer.counters["classify.simultaneous_items"] += result.labeling.size
    tracer.counters["classify.moved"] += int((result.labeling != marginal).sum())
    tracer.counters["classify.sweeps"] += result.sweeps


_OBSERVERS = {
    "sampling.sample_sequence": _observe_sample,
    "estimation.fit_psi_pooled": _observe_fit,
    "dataio.read_dataset": _observe_read,
    "dataio.write_dataset": _observe_write,
    "dataio.write_classification": _observe_write,
    "classify.classify_marginal": _observe_marginal,
    "classify.classify_simultaneous": _observe_simultaneous,
}


# -- per-layer metrics -----------------------------------------------------------

_SPAN_METRICS = (
    "sampling.sample_sequence.calls",
    "sampling.sample_sequence.self_s",
    "core.from_values.calls",
    "core.from_values.self_s",
    "core.partition_of.self_s",
    "core.esf_log_pmf.self_s",
    "estimation.fit_psi_pooled.self_s",
    "hypothesis.lm_test.calls",
    "hypothesis.lm_test.self_s",
    "hypothesis.lr_test.calls",
    "hypothesis.lr_test.self_s",
    "dataio.read_dataset.calls",
    "dataio.read_dataset.self_s",
    "dataio.write_dataset.self_s",
    "dataio.write_classification.self_s",
    "classify.counts_by_class.self_s",
    "classify.train_from_counts.self_s",
    "classify.classify_marginal.self_s",
    "classify.classify_simultaneous.calls",
    "classify.classify_simultaneous.self_s",
    "experiment.run_convergence_experiment.self_s",
    "cli.main.calls",
    "cli.main.self_s",
)

#: name -> unit of every metric a traced run reports. Calls and self times
#: are per job of the traced phase, so they compare across commits however
#: many jobs fit in a run.
PER_LAYER_UNITS = {
    **{
        name: "calls/job" if name.endswith(".calls") else "s/job"
        for name in _SPAN_METRICS
    },
    **{f"{layer}.self_s": "s/job" for layer in LAYERS},
    "harness.self_s": "s/job",
    "sampling.obs_per_s": "obs/s",
    "estimation.fits": "fits/job",
    "estimation.iterations_per_fit": "iter/fit",
    "estimation.max_residual": "species",
    "estimation.degenerate_frac": "ratio",
    "dataio.read_mb_per_s": "MB/s",
    "dataio.write_mb_per_s": "MB/s",
    "classify.sweeps_per_call": "sweeps/call",
    "classify.moved_frac": "ratio",
    "classify.items_per_s": "items/s",
    "trace.overhead_frac": "ratio",
    "fail_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except the two the run itself supplies.

    ``trace.overhead_frac`` and ``fail_ratio`` need the untraced phase and
    the failure count, which only the caller has.
    """
    self_time, calls, inclusive = tracer.self_times()
    jobs = tracer.jobs
    c = tracer.counters
    metrics: dict[str, float] = {}
    for name in _SPAN_METRICS:
        span, _, kind = name.rpartition(".")
        table = calls if kind == "calls" else self_time
        metrics[name] = _ratio(table.get(span, 0), jobs)
    layer_time = dict.fromkeys(LAYERS + ("harness",), 0.0)
    for span, seconds in self_time.items():
        layer_time[span.split(".")[0]] += seconds
    for layer, seconds in layer_time.items():
        metrics[f"{layer}.self_s"] = _ratio(seconds, jobs)
    metrics["sampling.obs_per_s"] = _ratio(
        c["sampling.observations"], self_time.get("sampling.sample_sequence", 0.0)
    )
    metrics["estimation.fits"] = _ratio(c["estimation.fits"], jobs)
    metrics["estimation.iterations_per_fit"] = _ratio(
        c["estimation.iterations"], c["estimation.fits"]
    )
    metrics["estimation.max_residual"] = tracer.max_residual
    metrics["estimation.degenerate_frac"] = _ratio(
        c["estimation.degenerate"], c["estimation.fits"]
    )
    metrics["dataio.read_mb_per_s"] = _ratio(
        c["dataio.bytes_read"] / 1e6, inclusive.get("dataio.read_dataset", 0.0)
    )
    metrics["dataio.write_mb_per_s"] = _ratio(
        c["dataio.bytes_written"] / 1e6, c["dataio.write_time"]
    )
    metrics["classify.sweeps_per_call"] = _ratio(
        c["classify.sweeps"], calls.get("classify.classify_simultaneous", 0)
    )
    metrics["classify.moved_frac"] = _ratio(
        c["classify.moved"], c["classify.simultaneous_items"]
    )
    metrics["classify.items_per_s"] = _ratio(c["classify.items"], c["classify.time"])
    return metrics
