"""Tests for the ETA2System closed loop (Figure 1)."""

import numpy as np
import pytest

from repro.core.pipeline import ETA2System, IncomingTask, default_embedding
from repro.semantics.vocab import DOMAIN_VOCABULARIES


def _known_domain_tasks(rng, count, n_domains=3):
    return [
        IncomingTask(
            processing_time=float(rng.uniform(0.5, 1.5)),
            domain=int(rng.integers(n_domains)),
        )
        for _ in range(count)
    ]


def _text_tasks(rng, count):
    from repro.datasets.templates import generate_question

    tasks = []
    for _ in range(count):
        domain = DOMAIN_VOCABULARIES[int(rng.integers(len(DOMAIN_VOCABULARIES)))]
        question, _, _ = generate_question(domain, rng)
        tasks.append(IncomingTask(processing_time=float(rng.uniform(0.5, 1.5)), description=question))
    return tasks


class _SyntheticWorld:
    """A tiny ground-truth world for driving the pipeline in tests."""

    def __init__(self, n_users, n_domains, seed=0):
        self.rng = np.random.default_rng(seed)
        self.expertise = self.rng.uniform(0.3, 3.0, (n_users, n_domains))
        self.truths = {}

    def observe_factory(self, tasks):
        truths = self.rng.uniform(0.0, 20.0, len(tasks))
        sigmas = self.rng.uniform(0.5, 2.0, len(tasks))
        domains = np.array([task.domain for task in tasks])

        def observe(pairs):
            return [
                truths[task]
                + self.rng.standard_normal() * sigmas[task] / self.expertise[user, domains[task]]
                for user, task in pairs
            ]

        return observe, truths, sigmas


@pytest.fixture
def system():
    rng = np.random.default_rng(1)
    capacities = rng.uniform(6.0, 10.0, 20)
    return ETA2System(n_users=20, capacities=capacities, gamma=0.3, alpha=0.5, seed=3)


def test_requires_warmup_before_step(system):
    rng = np.random.default_rng(2)
    tasks = _known_domain_tasks(rng, 5)
    with pytest.raises(RuntimeError):
        system.step(tasks, lambda pairs: [0.0] * len(pairs))


def test_warmup_then_steps_with_known_domains(system):
    rng = np.random.default_rng(3)
    world = _SyntheticWorld(20, 3, seed=4)

    tasks = _known_domain_tasks(rng, 20)
    observe, truths, sigmas = world.observe_factory(tasks)
    warm = system.warmup(tasks, observe)
    assert system.is_warmed_up
    assert warm.task_domains.shape == (20,)
    warm_error = np.nanmean(np.abs(warm.truths - truths) / sigmas)

    errors = [warm_error]
    for _ in range(3):
        tasks = _known_domain_tasks(rng, 20)
        observe, truths, sigmas = world.observe_factory(tasks)
        step = system.step(tasks, observe)
        errors.append(float(np.nanmean(np.abs(step.truths - truths) / sigmas)))
    assert errors[-1] < errors[0]
    assert len(system.iteration_log) == 4


def test_double_warmup_rejected(system):
    rng = np.random.default_rng(5)
    world = _SyntheticWorld(20, 3, seed=6)
    tasks = _known_domain_tasks(rng, 10)
    observe, _, _ = world.observe_factory(tasks)
    system.warmup(tasks, observe)
    with pytest.raises(RuntimeError):
        system.warmup(tasks, observe)


def test_text_tasks_are_clustered(system):
    rng = np.random.default_rng(7)
    tasks = _text_tasks(rng, 24)
    observe = lambda pairs: [float(rng.normal(10.0, 1.0)) for _ in pairs]
    result = system.warmup(tasks, observe)
    assert result.task_domains.shape == (24,)
    assert len(result.new_domains) >= 2  # several topical domains appear
    # Follow-up step classifies new text tasks into existing domains.
    more = _text_tasks(rng, 12)
    step = system.step(more, observe)
    assert step.task_domains.shape == (12,)


def test_mixed_batch_rejected(system):
    rng = np.random.default_rng(8)
    tasks = _known_domain_tasks(rng, 2) + _text_tasks(rng, 2)
    with pytest.raises(ValueError):
        system.warmup(tasks, lambda pairs: [0.0] * len(pairs))


def test_min_cost_mode_runs_and_reports_cost():
    rng = np.random.default_rng(9)
    capacities = rng.uniform(8.0, 12.0, 15)
    system = ETA2System(
        n_users=15,
        capacities=capacities,
        allocator="min-cost",
        min_cost_round_budget=30.0,
        seed=10,
    )
    world = _SyntheticWorld(15, 3, seed=11)
    tasks = _known_domain_tasks(rng, 15)
    observe, _, _ = world.observe_factory(tasks)
    system.warmup(tasks, observe)
    tasks = _known_domain_tasks(rng, 15)
    observe, _, _ = world.observe_factory(tasks)
    result = system.step(tasks, observe)
    assert result.allocation_cost > 0
    assert result.pair_count == result.observations.observation_count


def test_incoming_task_validation():
    with pytest.raises(ValueError):
        IncomingTask(processing_time=0.0, domain=0)
    with pytest.raises(ValueError):
        IncomingTask(processing_time=1.0)  # neither description nor domain
    with pytest.raises(ValueError):
        IncomingTask(processing_time=1.0, description="x", domain=1)  # both
    with pytest.raises(ValueError):
        IncomingTask(processing_time=1.0, domain=0, cost=-1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ETA2System(n_users=2, capacities=[1.0])  # wrong length
    with pytest.raises(ValueError):
        ETA2System(n_users=1, capacities=[1.0], allocator="nope")


def test_default_embedding_is_deterministic():
    a = default_embedding(dim=16, seed=0)
    b = default_embedding(dim=16, seed=0)
    assert np.array_equal(a.vector("decibel"), b.vector("decibel"))


def test_expertise_matrix_grows_with_domains(system):
    rng = np.random.default_rng(12)
    world = _SyntheticWorld(20, 4, seed=13)
    tasks = _known_domain_tasks(rng, 16, n_domains=4)
    observe, _, _ = world.observe_factory(tasks)
    system.warmup(tasks, observe)
    matrix = system.expertise_matrix()
    assert set(matrix.domain_ids) <= {0, 1, 2, 3}
    assert matrix.n_users == 20


# --- one step driver: live and replayed days agree -----------------------


def _protected_system(allocator, seed=21):
    rng = np.random.default_rng(seed)
    system = ETA2System(
        n_users=18,
        capacities=rng.uniform(6.0, 10.0, 18),
        allocator=allocator,
        min_cost_round_budget=25.0,
        seed=seed,
    )
    system.enable_guards("repair")
    system.enable_reputation()
    return system


def _recording(observe, log):
    """``observe`` that also logs each delivered ``(user, task, value)``."""

    def recorded(pairs):
        values = observe(pairs)
        log.extend((user, task, value) for (user, task), value in zip(pairs, values))
        return values

    return recorded


@pytest.mark.parametrize("allocator", ["max-quality", "min-cost"])
def test_step_from_batch_replays_live_days_bit_identically(allocator):
    rng = np.random.default_rng(22)
    world = _SyntheticWorld(18, 3, seed=23)
    live, replay = _protected_system(allocator), _protected_system(allocator)
    for day in range(3):
        tasks = _known_domain_tasks(rng, 16)
        observe, _, _ = world.observe_factory(tasks)
        log = []
        entry = live.warmup if day == 0 else live.step
        expected = entry(tasks, _recording(observe, log))
        got = replay.step_from_batch(tasks, log)
        assert got.observations.observation_count == len(log)
        for field in ("truths", "sigmas", "task_expertise", "task_domains"):
            assert np.array_equal(
                getattr(got, field), getattr(expected, field), equal_nan=True
            ), (day, field)
        assert got.mle_iterations == expected.mle_iterations
        assert got.converged == expected.converged
        assert got.guard_report is not None and expected.guard_report is not None
    assert replay.iteration_log == live.iteration_log
    assert replay.completed_steps == live.completed_steps == 3
    assert np.array_equal(replay.reputation.eligible, live.reputation.eligible)


def _phase_spans(records):
    return [
        ("+" if record["type"] == "phase.start" else "-") + record["data"]["phase"]
        for record in records
        if record["type"] in ("phase.start", "phase.end")
    ]


_ONE_ROUND = ["+identify", "-identify", "+allocate", "+collect", "-collect", "-allocate"]
_TRUTH = ["+truth", "-truth"]


@pytest.mark.parametrize("allocator", ["max-quality", "min-cost"])
def test_phase_span_sequence_of_each_step_kind(allocator):
    from repro.observability import RunTracer

    rng = np.random.default_rng(24)
    world = _SyntheticWorld(18, 3, seed=25)
    live, replay = _protected_system(allocator), _protected_system(allocator)
    live.enable_telemetry(RunTracer())
    replay.enable_telemetry(RunTracer())
    spans = {}
    for kind in ("warm-up", "daily"):
        tasks = _known_domain_tasks(rng, 12)
        observe, _, _ = world.observe_factory(tasks)
        log = []
        entry = live.warmup if kind == "warm-up" else live.step
        for source, system, run in (
            ("live", live, lambda: entry(tasks, _recording(observe, log))),
            ("batch", replay, lambda: replay.step_from_batch(tasks, log)),
        ):
            before = len(system.tracer.events())
            run()
            spans[source, kind] = _phase_spans(system.tracer.events()[before:])

    assert spans["live", "warm-up"] == _ONE_ROUND + _TRUTH
    assert spans["batch", "warm-up"] == _ONE_ROUND + _TRUTH
    assert spans["batch", "daily"] == _ONE_ROUND + _TRUTH
    if allocator == "max-quality":
        assert spans["live", "daily"] == _ONE_ROUND + _TRUTH
    else:
        # Algorithm 2 recruits in rounds: each round collects, then
        # previews the update, all inside the one allocate span.
        daily = spans["live", "daily"]
        assert daily[:3] == ["+identify", "-identify", "+allocate"]
        assert daily[-3:] == ["-allocate"] + _TRUTH
        rounds = daily[3:-3]
        one_round = ["+collect", "-collect"] + _TRUTH
        assert rounds and rounds == one_round * (len(rounds) // 4)


def _all_dropped(pairs):
    return [float("nan")] * len(pairs)


def _assert_degraded(result, n_tasks):
    from repro.core.truth import SIGMA_FLOOR

    assert result.observations.observation_count == 0
    assert np.isnan(result.truths).all() and result.truths.shape == (n_tasks,)
    assert np.array_equal(result.sigmas, np.full(n_tasks, SIGMA_FLOOR))
    assert result.mle_iterations == 0
    assert not result.converged and result.degraded
    assert result.reputation is None and result.guard_report is None
    assert set(result.timings) >= {"identify", "allocate", "collect", "truth"}


@pytest.mark.parametrize("source", ["live", "batch"])
def test_zero_observation_days_are_degraded_at_every_entry_point(source):
    from repro.observability import RunTracer

    rng = np.random.default_rng(26)
    world = _SyntheticWorld(18, 3, seed=27)
    system = _protected_system("max-quality")
    system.enable_telemetry(RunTracer())

    def run(tasks, observe):
        if source == "batch":
            return system.step_from_batch(tasks, [])
        entry = system.step if system.is_warmed_up else system.warmup
        return entry(tasks, observe)

    tasks = _known_domain_tasks(rng, 10)
    cold = run(tasks, _all_dropped)
    _assert_degraded(cold, 10)
    assert cold.task_expertise.shape == (18, 10)
    assert not system.is_warmed_up  # the next day retries warm-up
    assert system.completed_steps == 0 and system.iteration_log == [0]

    observe, _, _ = world.observe_factory(tasks)
    if source == "batch":
        system.step_from_batch(tasks, [(u, t, 5.0 + u % 3) for u in range(18) for t in range(10)])
    else:
        system.warmup(tasks, observe)
    assert system.is_warmed_up and system.completed_steps == 1
    learned = system.expertise_matrix()
    domains = learned.domain_ids

    warm = run(_known_domain_tasks(rng, 8), _all_dropped)
    _assert_degraded(warm, 8)
    # No update: the decay must not erode what the warm-up learned.
    assert np.array_equal(
        system.expertise_matrix().for_tasks(domains), learned.for_tasks(domains)
    )
    assert system.completed_steps == 1 and system.iteration_log[-1] == 0
    degraded = system.tracer.events("step.degraded")
    assert [event["data"]["kind"] for event in degraded] == ["warm-up", "daily"]
