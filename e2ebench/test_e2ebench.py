"""Tests for the benchmark's own helpers, at a tiny size.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench_stats  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from bench_trace import Recorder, Span, self_times  # noqa: E402


# ---------------------------------------------------------------------- #
# Percentiles and the sample-count rule
# ---------------------------------------------------------------------- #


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert bench_stats.percentile(samples, 0.5).value == 50
    assert bench_stats.percentile(samples, 0.99).value == 99
    assert bench_stats.percentile(reversed(samples), 0.9).value == 90


def test_p99_needs_a_thousand_samples():
    assert not bench_stats.percentile(range(999), 0.99).meets_rule
    assert bench_stats.percentile(range(1000), 0.99).meets_rule
    assert bench_stats.percentile(range(1000), 0.99).beyond == 10


def test_small_sample_p99_is_the_maximum_and_flagged():
    result = bench_stats.percentile([3.0, 1.0, 2.0], 0.99)
    assert result.value == 3.0
    assert result.samples == 3
    assert not result.meets_rule


def test_trimmed_mean_drops_a_fifth_at_each_end():
    assert bench_stats.trimmed_mean([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0
    assert bench_stats.trimmed_mean([5.0, 1.0]) == 3.0  # too few values to trim


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        bench_stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        bench_stats.percentile([1.0], 1.0)


# ---------------------------------------------------------------------- #
# Self time with nested spans
# ---------------------------------------------------------------------- #


def test_self_time_subtracts_nested_children():
    # The min-cost shape: run() holds collection rounds and truth previews.
    spans = [
        Span("allocation.mincost", 0.0, 10.0, None, 1),
        Span("simulation.observe", 1.0, 2.0, 0, 1),
        Span("collect", 1.2, 1.8, 1, 1),
        Span("truth.preview", 3.0, 6.0, 0, 1),
        Span("simulation.observe", 7.0, 7.5, 0, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 1.0 - 3.0 - 0.5)
    assert own[1] == pytest.approx(1.0 - 0.6)
    assert own[2] == pytest.approx(0.6)
    assert own[3] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        Span("parent", 0.0, 4.0, None, None),
        Span("a", 1.0, 3.0, 0, None),
        Span("b", 2.0, 5.0, 0, None),  # overlaps a and runs past the parent
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_recorder_nests_spans_and_tracks_day():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    recorder.day = 3
    outer = recorder.open("pipeline")
    middle = recorder.open("allocation.mincost")
    recorder.close(recorder.open("truth.preview"))
    recorder.close(middle)
    recorder.close(outer)
    names = [(s.name, s.parent, s.day) for s in recorder.spans]
    assert names == [("pipeline", None, 3), ("allocation.mincost", 0, 3), ("truth.preview", 1, 3)]
    assert [s.duration for s in recorder.spans] == [5.0, 3.0, 1.0]
    assert self_times(recorder.spans) == [2.0, 2.0, 1.0]


def test_recorder_rejects_out_of_order_close():
    recorder = Recorder()
    outer = recorder.open("outer")
    recorder.open("inner")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_spanned_wrapper_records_and_counts():
    recorder = Recorder()

    def work(x):
        return x * 2

    wrapped = bench_trace.spanned(
        recorder, "layer", work, after=lambda rec, args, kwargs, result: rec.count("n", result)
    )
    assert wrapped(4) == 8
    assert [s.name for s in recorder.spans] == ["layer"]
    assert recorder.counts["n"] == 8


def test_patched_restores_attributes():
    class Owner:
        def method(self):
            return "original"

    with bench_trace.patched([(Owner, "method", lambda self: "patched")]):
        assert Owner().method() == "patched"
    assert Owner().method() == "original"


# ---------------------------------------------------------------------- #
# Failure counting
# ---------------------------------------------------------------------- #


def test_tally_counts_failures_with_reasons():
    tally = bench_stats.Tally()
    for ok, reason in [(True, None), (False, "queue_full"), (False, "queue_full"), (True, None)]:
        tally.record(ok, reason)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_ratio == 0.5
    assert tally.ok_ratio == 0.5
    assert tally.reasons == {"queue_full": 2}
    merged = tally.merge(bench_stats.Tally(attempted=4, failed=0))
    assert merged.failed_ratio == 0.25


def test_empty_tally_has_no_failures():
    assert bench_stats.Tally().failed_ratio == 0.0


# ---------------------------------------------------------------------- #
# Workloads at a tiny size
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_tiny_workload_is_deterministic_and_traced(name, tmp_path):
    run = bench_workloads.WORKLOADS[name]
    plain = run(7, size="tiny", workdir=tmp_path)
    recorder = Recorder()
    traced = run(7, size="tiny", recorder=recorder, workdir=tmp_path)
    assert plain.problems == []
    assert plain.fingerprint == traced.fingerprint
    assert plain.tally.attempted >= len(plain.day_s) > 0
    layers = bench_trace.layer_metrics(recorder)
    assert layers["pipeline.self_s"] > 0.0
    assert layers["truth.solves"] >= 1
    if name == "serve-replay":
        assert layers["clustering.busy_s"] == 0.0
        assert layers["allocation.greedy_busy_s"] == 0.0
        assert layers["wal.records"] > 0
    else:
        assert layers["collect.pairs"] > 0
    assert list(tmp_path.iterdir()) == []
