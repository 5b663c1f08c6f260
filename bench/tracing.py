"""Per-layer spans for the traced benchmark run.

The recorder times each mindsets layer from outside: it replaces public
functions with wrappers at the names their callers look them up by (for
example ``mindsets.cli.read_trace`` or ``mindsets.evolution.apply_step``),
and records one span per call while a job is running. Spans hold name,
start, end, parent span and job id; they stay in memory and are written
out once, when the run ends. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter
from pathlib import Path
from time import perf_counter

import mindsets.categories as categories
import mindsets.cli as cli
import mindsets.evolution as evolution
import mindsets.io as io_mod
import mindsets.scenarios as scenarios
from mindsets.universe import Snapshot

# the package root rebinds the name `classify` to the function
classify_mod = importlib.import_module("mindsets.classify")


def _witness_count(args, result) -> dict[str, int]:
    if hasattr(result, "witnesses"):
        return {"classify.witnesses": len(result.witnesses)}
    return {"classify.witnesses": int(result is not None)}


def _bytes_read(args, result) -> dict[str, int]:
    return {"io.bytes_read": os.path.getsize(args[0])}


def _bytes_written(args, result) -> dict[str, int]:
    return {"io.bytes_written": os.path.getsize(args[1])}


def _triples(args, result) -> dict[str, int]:
    return {"categories.check_functor_laws.triples": result.triples_checked}


# (owner, attribute, span name, counts taken from the call's arguments and result)
SPANS = [
    (cli, "main", "cli.main", None),
    (cli, "make_scenario", "scenarios.make_scenario", None),
    (cli, "write_trace", "io.write_trace", _bytes_written),
    (cli, "read_trace", "io.read_trace", _bytes_read),
    (cli, "render_report", "io.render_report", None),
    (cli, "classify", "classify.classify", _witness_count),
    (classify_mod, "classify", "classify.classify", _witness_count),
    (cli, "activity", "classify.activity", None),
    (classify_mod, "activity", "classify.activity", None),
    (classify_mod, "witness_input", "classify.witness", _witness_count),
    (classify_mod, "witness_processing", "classify.witness", _witness_count),
    (classify_mod, "witness_output", "classify.witness", _witness_count),
    (io_mod, "build_trace", "evolution.build_trace", None),
    (scenarios, "build_trace", "evolution.build_trace", None),
    (evolution, "apply_step", "evolution.apply_step", None),
    (Snapshot, "region_counts", "universe.region_counts", None),
    (cli, "functor_from_trace", "categories.functor_from_trace", None),
    (categories, "carrier_at", "universe.carrier_at", None),
    (cli, "check_functor_laws", "categories.check_functor_laws", _triples),
    (cli, "mimicry_functor", "categories.mimicry_functor", None),
]

# called O(n^3) times per law sweep: counted, not timed, to keep the run small
COUNTED = [
    (categories, "compose_morphisms", "categories.compose_morphisms.calls"),
]

# the per-layer metrics the traced run reports, in BENCHMARK.json order
TIMES = [
    "universe.region_counts.s",
    "evolution.apply_step.s",
    "classify.classify.s",
    "classify.activity.s",
    "classify.witness.s",
    "io.read_trace.self_s",
    "evolution.build_trace.self_s",
    "scenarios.make_scenario.self_s",
    "io.write_trace.s",
    "io.render_report.s",
    "categories.functor_from_trace.self_s",
    "categories.check_functor_laws.s",
    "categories.mimicry_functor.s",
    "universe.carrier_at.s",
    "cli.main.self_s",
]
COUNTS = [
    "universe.region_counts.calls",
    "evolution.apply_step.calls",
    "classify.witnesses",
    "io.read_trace.calls",
    "io.bytes_read",
    "io.bytes_written",
    "categories.compose_morphisms.calls",
    "categories.check_functor_laws.triples",
    "universe.carrier_at.calls",
    "cli.main.calls",
]


class Recorder:
    """Spans and counts of the calls made while ``job`` is set.

    Outside a job (set-up, correctness checks) the wrappers call straight
    through, so only timed work is attributed to the layers.
    """

    def __init__(self) -> None:
        self.job: int | None = None
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _timed(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, job)
            if count is not None:
                counts.update(count(args, result))
            return result

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.job is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for owner, attr, name, count in SPANS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._timed(name, original, count))
        for owner, attr, name in COUNTED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._counted(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Seconds (total and self) and call counts per span name.

        A span's self time is its duration minus that of its direct child
        spans; calls nest strictly because the benchmark runs one thread.
        """
        total: Counter[str] = Counter()
        child: list[float] = [0.0] * len(self.spans)
        calls: Counter[str] = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: Counter[str] = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            own[name] += end - start - inner
        seconds = {f"{n}.s": v for n, v in total.items()}
        seconds.update({f"{n}.self_s": v for n, v in own.items()})
        counts = {f"{n}.calls": c for n, c in calls.items()}
        counts.update(self.counts)
        return seconds, counts

    def write(self, path: Path) -> None:
        """Write every span, one JSON list per line: name, start, end, parent, job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(recorder: Recorder, steps: int, overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each as (value, unit); absent layers read 0."""
    seconds, counts = recorder.layer_totals()
    metrics: dict[str, tuple[float, str]] = {}
    for name in TIMES:
        metrics[name] = (seconds.get(name, 0.0), "s")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "B" if name.startswith("io.bytes") else "count")
    metrics["universe.region_counts.per_step"] = (
        counts.get("universe.region_counts.calls", 0) / steps,
        "calls/step",
    )
    metrics["tracing.overhead"] = (overhead, "ratio")
    return metrics
