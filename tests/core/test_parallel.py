"""Bit-identity and failure-path tests for the domain-sharded MLE engine.

Every assertion on truths/sigmas/expertise here is *exact* (bitwise, via
``np.testing.assert_array_equal``): the engine's contract is that domain
sharding is a pure execution strategy, never a numerical change.
"""

import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.parallel import (
    ParallelConfig,
    ParallelTruthEngine,
    plan_shards,
)
from repro.core.robust import RobustConfig
from repro.core.truth import estimate_truth
from repro.core.update import ExpertiseUpdater
from repro.observability.tracer import RunTracer
from repro.reliability.retry import RetryPolicy
from repro.truthdiscovery.base import ObservationMatrix


def make_observations(seed=0, n_users=17, n_tasks=60, n_domains=7, density=0.3):
    rng = np.random.default_rng(seed)
    mask = rng.random((n_users, n_tasks)) < density
    for task in np.flatnonzero(~mask.any(axis=0)):
        mask[rng.integers(n_users), task] = True
    values = np.where(mask, rng.normal(5.0, 2.0, (n_users, n_tasks)), 0.0)
    domains = rng.integers(0, n_domains, n_tasks)
    return ObservationMatrix(values=values, mask=mask), domains


def engine(n_shards, **kwargs):
    kwargs.setdefault("use_processes", False)
    return ParallelTruthEngine(ParallelConfig(n_shards=n_shards, **kwargs))


def assert_estimate_equal(serial, parallel):
    np.testing.assert_array_equal(serial.truths, parallel.truths)
    np.testing.assert_array_equal(serial.sigmas, parallel.sigmas)
    np.testing.assert_array_equal(serial.expertise, parallel.expertise)
    assert serial.domain_ids == parallel.domain_ids
    assert serial.iterations == parallel.iterations
    assert serial.converged == parallel.converged
    assert serial.final_delta == parallel.final_delta or (
        np.isnan(serial.final_delta) and np.isnan(parallel.final_delta)
    )
    assert serial.used_fallback == parallel.used_fallback


def assert_incorporate_equal(serial, parallel):
    np.testing.assert_array_equal(serial.truths, parallel.truths)
    np.testing.assert_array_equal(serial.sigmas, parallel.sigmas)
    assert serial.iterations == parallel.iterations
    assert serial.converged == parallel.converged
    assert sorted(serial.expertise) == sorted(parallel.expertise)
    for domain in serial.expertise:
        np.testing.assert_array_equal(serial.expertise[domain], parallel.expertise[domain])
    assert serial.final_delta == parallel.final_delta or (
        np.isnan(serial.final_delta) and np.isnan(parallel.final_delta)
    )


class TestShardPlanning:
    def test_whole_domains_ascending_tasks(self):
        observations, domains = make_observations(seed=1)
        columns = np.asarray(domains)
        counts = observations.mask.sum(axis=0)
        plans = plan_shards(columns, counts, int(columns.max()) + 1, 3)
        assert len(plans) == 3
        seen_domains: set = set()
        seen_tasks: list = []
        for plan in plans:
            assert list(plan.task_indices) == sorted(plan.task_indices)
            for col in plan.domain_cols:
                assert col not in seen_domains  # whole domains, no splits
                seen_domains.add(col)
            seen_tasks.extend(plan.task_indices.tolist())
            # every task in the shard belongs to one of its domains
            assert set(columns[plan.task_indices].tolist()) <= set(plan.domain_cols)
        assert sorted(seen_tasks) == list(range(observations.n_tasks))

    def test_plan_is_deterministic(self):
        observations, domains = make_observations(seed=2)
        counts = observations.mask.sum(axis=0)
        n_domains = int(np.max(domains)) + 1
        first = plan_shards(domains, counts, n_domains, 4)
        second = plan_shards(domains, counts, n_domains, 4)
        assert [p.domain_cols for p in first] == [p.domain_cols for p in second]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.task_indices, b.task_indices)

    def test_more_shards_than_domains_clamps(self):
        domains = np.array([0, 0, 1])
        plans = plan_shards(domains, np.array([2, 1, 3]), 2, 8)
        assert len(plans) == 2


class TestEstimateBitIdentity:
    @pytest.mark.parametrize("n_shards", [2, 3, 7])
    def test_matches_serial_exactly(self, n_shards):
        observations, domains = make_observations(seed=3)
        serial = estimate_truth(observations, domains)
        parallel = engine(n_shards).estimate_truth(observations, domains)
        assert_estimate_equal(serial, parallel)

    def test_warm_start_and_taskless_domain(self):
        observations, domains = make_observations(seed=4, n_domains=5)
        domain_ids = tuple(range(6))  # domain 5 has no tasks at all
        rng = np.random.default_rng(7)
        warm = rng.uniform(0.2, 3.0, (observations.n_users, len(domain_ids)))
        serial = estimate_truth(
            observations, domains, initial_expertise=warm, domain_ids=domain_ids
        )
        parallel = engine(3).estimate_truth(
            observations, domains, initial_expertise=warm, domain_ids=domain_ids
        )
        assert_estimate_equal(serial, parallel)

    def test_unobserved_tasks_stay_nan(self):
        observations, domains = make_observations(seed=5)
        mask = observations.mask.copy()
        mask[:, [3, 11, 40]] = False
        sparse = ObservationMatrix(values=observations.values, mask=mask)
        serial = estimate_truth(sparse, domains)
        parallel = engine(4).estimate_truth(sparse, domains)
        assert np.isnan(parallel.truths[3])
        assert_estimate_equal(serial, parallel)

    def test_low_iteration_cap_non_convergence(self):
        observations, domains = make_observations(seed=6)
        serial = estimate_truth(observations, domains, max_iterations=2)
        parallel = engine(3).estimate_truth(observations, domains, max_iterations=2)
        assert not parallel.converged
        assert_estimate_equal(serial, parallel)

    def test_single_domain_delegates_to_serial(self):
        observations, _ = make_observations(seed=7)
        domains = np.zeros(observations.n_tasks, dtype=int)
        serial = estimate_truth(observations, domains)
        parallel = engine(4).estimate_truth(observations, domains)
        assert_estimate_equal(serial, parallel)

    def test_robust_config_delegates_to_serial(self):
        observations, domains = make_observations(seed=8)
        robust = RobustConfig(method="huber")
        serial = estimate_truth(observations, domains, robust=robust)
        parallel = engine(3).estimate_truth(observations, domains, robust=robust)
        assert_estimate_equal(serial, parallel)

    def test_trace_events_mirror_serial(self):
        observations, domains = make_observations(seed=9)
        serial_tracer = RunTracer()
        estimate_truth(observations, domains, tracer=serial_tracer)
        parallel_tracer = RunTracer()
        engine(3).estimate_truth(observations, domains, tracer=parallel_tracer)

        def mle_core(tracer):
            return [
                (record["type"], record.get("data"))
                for record in tracer.events()
                if record["type"].startswith("mle.") and not record["type"].startswith("mle.shard.")
            ]

        assert mle_core(serial_tracer) == mle_core(parallel_tracer)
        shard_types = {
            record["type"]
            for record in parallel_tracer.events()
            if record["type"].startswith("mle.shard.")
        }
        assert shard_types == {"mle.shard.plan", "mle.shard.done"}


class TestIncorporateBitIdentity:
    def run_days(self, n_shards, days=4, commit=True):
        observations, domains = make_observations(seed=10)
        serial_updater = ExpertiseUpdater(observations.n_users, alpha=0.5)
        parallel_updater = ExpertiseUpdater(observations.n_users, alpha=0.5)
        warm = estimate_truth(observations, domains)
        serial_updater.seed_from_batch(observations, domains, warm)
        parallel_updater.seed_from_batch(observations, domains, warm)
        sharded = engine(n_shards)
        for day in range(days):
            day_obs, day_domains = make_observations(seed=100 + day, n_tasks=40)
            serial = serial_updater.incorporate(day_obs, day_domains, commit=commit)
            parallel = sharded.incorporate(
                parallel_updater, day_obs, day_domains, commit=commit
            )
            assert_incorporate_equal(serial, parallel)
        # the committed running sums must match bitwise so later days agree
        assert serial_updater.domain_ids == parallel_updater.domain_ids
        for domain in serial_updater.domain_ids:
            np.testing.assert_array_equal(
                serial_updater.expertise_column(domain),
                parallel_updater.expertise_column(domain),
            )

    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    def test_multi_day_matches_serial(self, n_shards):
        self.run_days(n_shards)

    def test_preview_commit_false_leaves_sums_untouched(self):
        observations, domains = make_observations(seed=11)
        updater = ExpertiseUpdater(observations.n_users)
        warm = estimate_truth(observations, domains)
        updater.seed_from_batch(observations, domains, warm)
        before = {d: updater.expertise_column(d).copy() for d in updater.domain_ids}
        day_obs, day_domains = make_observations(seed=12, n_tasks=30)
        serial_preview = ExpertiseUpdater(observations.n_users)
        serial_preview.seed_from_batch(observations, domains, warm)
        serial = serial_preview.incorporate(day_obs, day_domains, commit=False)
        parallel = engine(3).incorporate(updater, day_obs, day_domains, commit=False)
        assert_incorporate_equal(serial, parallel)
        for domain in before:
            np.testing.assert_array_equal(before[domain], updater.expertise_column(domain))

    def test_robust_config_delegates_to_serial(self):
        observations, domains = make_observations(seed=13)
        serial_updater = ExpertiseUpdater(observations.n_users)
        parallel_updater = ExpertiseUpdater(observations.n_users)
        robust = RobustConfig(method="trimmed")
        serial = serial_updater.incorporate(observations, domains, robust=robust)
        parallel = engine(3).incorporate(
            parallel_updater, observations, domains, robust=robust
        )
        assert_incorporate_equal(serial, parallel)

    def test_trace_events_mirror_serial(self):
        observations, domains = make_observations(seed=14)
        serial_updater = ExpertiseUpdater(observations.n_users)
        parallel_updater = ExpertiseUpdater(observations.n_users)
        serial_tracer = RunTracer()
        serial_updater.incorporate(observations, domains, tracer=serial_tracer)
        parallel_tracer = RunTracer()
        engine(3).incorporate(parallel_updater, observations, domains, tracer=parallel_tracer)

        def mle_core(tracer):
            return [
                (record["type"], record.get("data"))
                for record in tracer.events()
                if record["type"].startswith("mle.") and not record["type"].startswith("mle.shard.")
            ]

        assert mle_core(serial_tracer) == mle_core(parallel_tracer)


class TestDegenerateDomains:
    """Satellite: single-task / single-user / zero-variance domains.

    These are the shapes that historically tripped per-domain code: a
    domain whose only task has one observer produces a zero residual and
    a floored sigma; the solve must converge cleanly (no non-convergence
    warnings) and the sharded path must agree bitwise.
    """

    def make_degenerate(self):
        # domain 0: one task, one observer, zero variance.  domain 1: a
        # single user observing two identical values (zero variance
        # again, sigma floored).  domain 2: a normal domain.
        n_users, n_tasks = 6, 7
        values = np.zeros((n_users, n_tasks))
        mask = np.zeros((n_users, n_tasks), dtype=bool)
        domains = np.array([0, 1, 1, 2, 2, 2, 2])
        mask[3, 0] = True
        values[3, 0] = 4.25
        mask[1, 1] = mask[1, 2] = True
        values[1, 1] = values[1, 2] = 2.0
        rng = np.random.default_rng(21)
        for task in range(3, 7):
            observers = rng.choice(n_users, size=3, replace=False)
            mask[observers, task] = True
            values[observers, task] = rng.normal(1.0, 0.5, 3)
        return ObservationMatrix(values=values, mask=mask), domains

    def test_estimate_converges_cleanly_and_agrees(self, caplog):
        observations, domains = self.make_degenerate()
        with caplog.at_level(logging.WARNING):
            serial = estimate_truth(observations, domains)
            parallel = engine(3).estimate_truth(observations, domains)
        assert serial.converged and parallel.converged
        assert caplog.records == []
        assert parallel.truths[0] == 4.25
        assert parallel.truths[1] == 2.0
        assert_estimate_equal(serial, parallel)

    def test_incorporate_converges_cleanly_and_agrees(self, caplog):
        observations, domains = self.make_degenerate()
        serial_updater = ExpertiseUpdater(observations.n_users)
        parallel_updater = ExpertiseUpdater(observations.n_users)
        with caplog.at_level(logging.WARNING):
            serial = serial_updater.incorporate(observations, domains)
            parallel = engine(3).incorporate(parallel_updater, observations, domains)
        assert serial.converged and parallel.converged
        assert caplog.records == []
        assert_incorporate_equal(serial, parallel)


class TestProcessPool:
    def test_pool_mode_bitwise_identical(self):
        observations, domains = make_observations(seed=15, n_tasks=40)
        serial = estimate_truth(observations, domains)
        pooled = ParallelTruthEngine(
            ParallelConfig(n_shards=2, use_processes=True, chunk_iterations=4)
        )
        try:
            parallel = pooled.estimate_truth(observations, domains)
            again = pooled.estimate_truth(observations, domains)  # pool reuse
        finally:
            pooled.close()
        assert_estimate_equal(serial, parallel)
        assert_estimate_equal(serial, again)

    def test_pool_mode_incorporate_bitwise_identical(self):
        observations, domains = make_observations(seed=16, n_tasks=40)
        serial_updater = ExpertiseUpdater(observations.n_users)
        parallel_updater = ExpertiseUpdater(observations.n_users)
        pooled = ParallelTruthEngine(ParallelConfig(n_shards=2, use_processes=True))
        try:
            serial = serial_updater.incorporate(observations, domains)
            parallel = pooled.incorporate(parallel_updater, observations, domains)
        finally:
            pooled.close()
        assert_incorporate_equal(serial, parallel)

    def test_pool_solves_print_no_resource_tracker_traceback(self):
        """Workers share the coordinator's resource tracker: two pooled
        solves (the second evicts the first segment from the workers'
        cache) must leave the tracker nothing to complain about when the
        coordinator unlinks each segment."""
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.core.parallel import ParallelConfig, ParallelTruthEngine
            from repro.truthdiscovery.base import ObservationMatrix

            rng = np.random.default_rng(3)
            mask = rng.random((12, 40)) < 0.4
            mask[0] = True
            values = np.where(mask, rng.normal(5.0, 2.0, mask.shape), 0.0)
            observations = ObservationMatrix(values=values, mask=mask)
            domains = rng.integers(0, 4, 40)
            engine = ParallelTruthEngine(ParallelConfig(n_shards=2, use_processes=True))
            try:
                for _ in range(2):
                    engine.estimate_truth(observations, domains)
                assert engine.fallbacks == 0
            finally:
                engine.close()
            print("solved")
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "solved"
        assert "Traceback" not in out.stderr, out.stderr
        assert "KeyError" not in out.stderr, out.stderr

    def test_timeout_falls_back_to_serial(self):
        observations, domains = make_observations(seed=17, n_tasks=30)
        broken = ParallelTruthEngine(
            ParallelConfig(
                n_shards=2,
                use_processes=True,
                job_timeout=1e-9,  # every chunk "times out" immediately
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
            )
        )
        tracer = RunTracer()
        try:
            result = broken.estimate_truth(observations, domains, tracer=tracer)
        finally:
            broken.close()
        serial = estimate_truth(observations, domains)
        assert broken.fallbacks == 1
        assert [r["type"] for r in tracer.events() if r["type"] == "mle.shard.fallback"]
        # the fallback result is the serial result, so nothing is lost
        assert_estimate_equal(serial, result)
        # no partial events from the failed pooled attempts leaked out
        iteration_events = [r for r in tracer.events() if r["type"] == "mle.iteration"]
        assert len(iteration_events) == serial.iterations


class TestMetrics:
    def test_shard_seconds_histogram_observed(self):
        from repro.observability.metrics import MetricsRegistry

        observations, domains = make_observations(seed=18)
        metrics = MetricsRegistry()
        engine(2).estimate_truth(observations, domains, metrics=metrics)
        names = [metric.name for metric in metrics.metrics()]
        assert "repro_mle_shard_seconds" in names
