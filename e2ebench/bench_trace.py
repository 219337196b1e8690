"""Spans recorded by the benchmark around calls into the program's layers.

The program is not instrumented: :func:`layer_hooks` lists the public
functions and methods the benchmark wraps for the length of one traced
repetition, and :func:`patched` swaps the wrappers in and restores the
originals afterwards.  Spans live in memory (:class:`Recorder`) and are
reduced to per-layer totals when the repetition ends.

A layer's *self time* is its span minus the part of that interval covered
by its child spans (:func:`self_times`); min-cost allocation, for example,
nests collection and truth previews inside ``MinCostAllocator.run``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "int | None"
    day: "int | None"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span and counter store for one traced repetition."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.values: dict = {}
        self.day: "int | None" = None
        self._stack: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.day))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans) -> list:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    own = []
    for index, span in enumerate(spans):
        clipped = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(index, ())
            if c.end > span.start and c.start < span.end
        ]
        own.append(max(0.0, span.duration - _covered(clipped)))
    return own


def spanned(recorder: Recorder, name, original, after=None):
    """Wrap ``original`` so each call records a span (and optional counts).

    ``name`` is a string or ``name(args, kwargs)``; ``after(recorder,
    args, kwargs, result)`` runs once the span has closed, so its work is
    not charged to the layer.
    """

    def wrapper(*args, **kwargs):
        index = recorder.open(name(args, kwargs) if callable(name) else name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = []
    try:
        for owner, attribute, value in replacements:
            saved.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, value)
        yield
    finally:
        for owner, attribute, value in reversed(saved):
            setattr(owner, attribute, value)


# ---------------------------------------------------------------------- #
# The program's layers
# ---------------------------------------------------------------------- #


def _after_clustering(recorder, args, kwargs, result):
    clustering, vectors = args[0], args[1]
    recorder.count("clustering.calls")
    recorder.count("clustering.points", len(vectors))
    recorder.count("clustering.merges", len(result.merges))
    recorder.values["clustering.domains"] = result.domain_count
    recorder.values["clustering.cache_hit_ratio"] = float(clustering.cache_stats()["hit_rate"])


def _count_greedy(recorder, stats) -> None:
    if stats is not None:
        recorder.count("allocation.picks", stats.picks)
        recorder.count("allocation.evaluations", stats.evaluations)


def _after_max_quality(recorder, args, kwargs, result):
    recorder.count("allocation.greedy_calls")
    _count_greedy(recorder, args[0].last_stats)


def _after_min_cost(recorder, args, kwargs, result):
    recorder.count("allocation.mincost_rounds", result.round_count)
    _count_greedy(recorder, result.greedy_stats)


def _count_solve(position: int):
    """Counts for one truth solve whose observations are argument ``position``."""

    def after(recorder, args, kwargs, result):
        observations = args[position] if len(args) > position else kwargs["observations"]
        recorder.count("truth.solves")
        recorder.count("truth.iterations", result.iterations)
        recorder.count("truth.nonconverged", 0 if result.converged else 1)
        recorder.count("truth.observations", observations.observation_count)

    return after


def _incorporate_span(args, kwargs) -> str:
    commit = kwargs.get("commit", args[4] if len(args) > 4 else True)
    return "truth.update" if commit else "truth.preview"


def _after_observe(recorder, args, kwargs, result):
    recorder.count("collect.pairs", len(args[1]))


def _after_offer(recorder, args, kwargs, result):
    if not result.admitted:
        recorder.count("admission.shed")


def _after_screen(recorder, args, kwargs, result):
    recorder.count("sanitize.rejected_reports", len(result.rejected))


def _after_wal(recorder, args, kwargs, result):
    recorder.count("wal.records")


def _after_checkpoint(recorder, args, kwargs, result):
    recorder.count("checkpoint.bytes", result.stat().st_size)


def _pipeline(recorder, original):
    """Span an ``ETA2System`` entry point and its ``observe`` callback.

    ``warmup``/``step`` take ``(tasks, observe)``; the callback is the
    simulation layer's collection round, so it gets its own span (the
    parent of the world's ``observe_pairs``).
    """

    def wrapper(system, tasks, source, *args, **kwargs):
        if callable(source):
            source = spanned(recorder, "simulation.observe", source)
        index = recorder.open("pipeline")
        try:
            return original(system, tasks, source, *args, **kwargs)
        finally:
            recorder.close(index)

    return wrapper


def layer_hooks(recorder: Recorder) -> list:
    """``(owner, attribute, wrapper)`` for every layer boundary the trace covers."""
    import repro.core.pipeline as pipeline
    from repro.clustering.dynamic import DynamicHierarchicalClustering
    from repro.core.allocation.baselines import RandomAllocator
    from repro.core.allocation.max_quality import MaxQualityAllocator
    from repro.core.allocation.min_cost import MinCostAllocator
    from repro.core.update import ExpertiseUpdater
    from repro.reliability.checkpoint import CheckpointManager
    from repro.reliability.sanitize import ObservationSanitizer
    from repro.serve.admission import AdmissionController
    from repro.serve.wal import WriteAheadLog
    from repro.simulation.world import World

    def wrap(owner, attribute, name, after=None):
        return (owner, attribute, spanned(recorder, name, vars(owner)[attribute], after))

    def count_semantics(rec, args, kwargs, result):
        rec.count("semantics.calls")

    return [
        wrap(pipeline, "semantics_for_descriptions", "semantics", count_semantics),
        wrap(DynamicHierarchicalClustering, "fit", "clustering", _after_clustering),
        wrap(DynamicHierarchicalClustering, "add", "clustering", _after_clustering),
        wrap(RandomAllocator, "allocate", "allocation.warmup"),
        wrap(MaxQualityAllocator, "allocate", "allocation.greedy", _after_max_quality),
        wrap(MinCostAllocator, "run", "allocation.mincost", _after_min_cost),
        wrap(pipeline, "estimate_truth", "truth.batch", _count_solve(0)),
        wrap(ExpertiseUpdater, "incorporate", _incorporate_span, _count_solve(1)),
        wrap(World, "observe_pairs", "collect", _after_observe),
        wrap(AdmissionController, "offer", "admission", _after_offer),
        wrap(ObservationSanitizer, "screen_reports", "sanitize", _after_screen),
        wrap(WriteAheadLog, "append", "wal", _after_wal),
        wrap(CheckpointManager, "save", "checkpoint", _after_checkpoint),
    ] + [
        (pipeline.ETA2System, name, _pipeline(recorder, vars(pipeline.ETA2System)[name]))
        for name in ("warmup", "step", "step_from_batch")
    ]


#: The step phases the program's own ``PhaseTimer`` reports, and the spans
#: whose totals should add up to each (allocation counts min-cost's self
#: time, because the timer credits nested collection and previews to
#: ``collect`` and ``truth``).
PHASE_SPANS = {
    "identify": ("semantics", "clustering"),
    "allocate": ("allocation.warmup", "allocation.greedy", "allocation.mincost"),
    "collect": ("simulation.observe",),
    "truth": ("truth.batch", "truth.update", "truth.preview"),
}


def phase_totals(recorder: Recorder) -> dict:
    """Span-derived seconds per :data:`PHASE_SPANS` phase."""
    own = self_times(recorder.spans)
    totals = {}
    for phase, names in PHASE_SPANS.items():
        totals[phase] = sum(
            own[i] if span.name == "allocation.mincost" else span.duration
            for i, span in enumerate(recorder.spans)
            if span.name in names
        )
    return totals


def layer_metrics(recorder: Recorder) -> dict:
    """Per-layer busy times and counts of one traced repetition."""
    own = self_times(recorder.spans)

    def busy(name):
        return sum(s.duration for s in recorder.spans if s.name == name)

    def own_total(name):
        return sum(own[i] for i, s in enumerate(recorder.spans) if s.name == name)

    counts = recorder.counts
    picks = counts["allocation.picks"]
    return {
        "semantics.busy_s": busy("semantics"),
        "semantics.calls": counts["semantics.calls"],
        "clustering.busy_s": busy("clustering"),
        "clustering.calls": counts["clustering.calls"],
        "clustering.points": counts["clustering.points"],
        "clustering.merges": counts["clustering.merges"],
        "clustering.domains": recorder.values.get("clustering.domains", 0),
        "clustering.cache_hit_ratio": recorder.values.get("clustering.cache_hit_ratio", 0.0),
        "allocation.warmup_busy_s": busy("allocation.warmup"),
        "allocation.greedy_busy_s": busy("allocation.greedy"),
        "allocation.greedy_calls": counts["allocation.greedy_calls"],
        "allocation.mincost_self_s": own_total("allocation.mincost"),
        "allocation.mincost_rounds": counts["allocation.mincost_rounds"],
        "allocation.picks": picks,
        "allocation.evaluations": counts["allocation.evaluations"],
        "allocation.evals_per_pick": counts["allocation.evaluations"] / picks if picks else 0.0,
        "truth.batch_busy_s": busy("truth.batch"),
        "truth.update_busy_s": busy("truth.update"),
        "truth.preview_busy_s": busy("truth.preview"),
        "truth.solves": counts["truth.solves"],
        "truth.iterations": counts["truth.iterations"],
        "truth.nonconverged": counts["truth.nonconverged"],
        "truth.observations": counts["truth.observations"],
        "collect.busy_s": busy("collect"),
        "collect.pairs": counts["collect.pairs"],
        "admission.busy_s": busy("admission"),
        "admission.shed": counts["admission.shed"],
        "sanitize.busy_s": busy("sanitize"),
        "sanitize.rejected_reports": counts["sanitize.rejected_reports"],
        "wal.append_busy_s": busy("wal"),
        "wal.records": counts["wal.records"],
        "checkpoint.busy_s": busy("checkpoint"),
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "pipeline.self_s": own_total("pipeline"),
    }
