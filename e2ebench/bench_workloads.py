"""The benchmark's workloads: one repetition each, through the public APIs.

``synthetic-mq`` and ``survey-mc`` drive ``run_simulation`` with an
``ETA2Approach``; ``serve-replay`` drives an ``IngestionService`` with a
single closed-loop client.  Every repetition builds its inputs from a seed,
sets the system up from scratch, runs every day, and returns a
:class:`Repetition` holding its timings, outcomes and correctness findings.
Settings are the program's defaults (``repro simulate`` / ``repro serve``:
gamma 0.3, alpha 0.5, serial truth analysis, no resilience, reputation or
guards, telemetry off).
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bench_stats import Tally
from bench_trace import layer_hooks, patched

GAMMA = 0.3
ALPHA = 0.5

#: Measured sizes, and a tiny size for the untimed warm-up and the tests.
SIZES = {
    "synthetic-mq": {
        "full": {"n_users": 500, "n_tasks": 5000, "n_domains": 8, "n_days": 5},
        "tiny": {"n_users": 30, "n_tasks": 120, "n_domains": 3, "n_days": 3},
    },
    "survey-mc": {
        "full": {"n_users": 200, "n_tasks": 2000, "n_days": 5, "round_budget": 100.0},
        "tiny": {"n_users": 30, "n_tasks": 90, "n_days": 3, "round_budget": 20.0},
    },
    "serve-replay": {
        "full": {"n_users": 1000, "n_tasks": 6000, "n_days": 6, "n_domains": 8, "reporters": 3},
        "tiny": {"n_users": 40, "n_tasks": 90, "n_days": 3, "n_domains": 3, "reporters": 3},
    },
}


@dataclass
class Repetition:
    """Outcome of one repetition of a workload on one input."""

    input_seed: int
    setup_s: float
    loop_s: float
    day_s: list
    #: Latency of every call that hands observations to the system.
    submit_s: list
    tasks_with_truth: int
    tally: Tally
    fingerprint: str
    estimation_error: float
    recruit_cost: float
    #: Phase seconds as the program's own PhaseTimer reported them.
    phase_s: dict
    embedding_train_s: float = 0.0
    wal_bytes: int = 0
    #: Correctness findings; empty when every check passed.
    problems: list = field(default_factory=list)


def _step_results(sink: list) -> list:
    """Wrap ``ETA2System.warmup``/``step`` so each ``StepResult`` lands in ``sink``."""
    from repro.core.pipeline import ETA2System

    def keep(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            sink.append(result)
            return result

        return wrapper

    return [
        (ETA2System, name, keep(vars(ETA2System)[name]))
        for name in ("warmup", "step")
    ]


def _traced(recorder):
    """Layer spans when ``recorder`` is set; nothing otherwise."""
    return patched([] if recorder is None else layer_hooks(recorder))


def _check_truths(day_label, truths, observed, problems) -> bool:
    finite = bool(np.all(np.isfinite(np.asarray(truths)[observed])))
    if not finite:
        problems.append(f"{day_label}: an observed task has a non-finite truth")
    return finite


def simulate(name: str, seed: int, size: str = "full", recorder=None, workdir=None) -> Repetition:
    """One run of ``synthetic-mq`` or ``survey-mc`` on input ``seed``."""
    started = time.perf_counter()
    from repro.core.pipeline import default_embedding
    from repro.datasets import survey_dataset, synthetic_dataset
    from repro.simulation.approaches import ETA2Approach
    from repro.perf.timers import merge_timings
    from repro.simulation.engine import SimulationConfig, run_simulation

    params = SIZES[name][size]
    train_s = 0.0
    if name == "synthetic-mq":
        dataset = synthetic_dataset(
            n_users=params["n_users"],
            n_tasks=params["n_tasks"],
            n_domains=params["n_domains"],
            seed=seed,
        )
        approach = ETA2Approach(gamma=GAMMA, alpha=ALPHA)
    else:
        dataset = survey_dataset(n_users=params["n_users"], n_tasks=params["n_tasks"], seed=seed)
        # Trained here, not lazily inside day 0, so it counts as set-up.
        train_start = time.perf_counter()
        embedding = default_embedding()
        train_s = time.perf_counter() - train_start
        approach = ETA2Approach(
            gamma=GAMMA,
            alpha=ALPHA,
            allocator="min-cost",
            min_cost_round_budget=params["round_budget"],
            embedding=embedding,
        )

    day_bounds: list = []
    submit_s: list = []
    run_day = approach.run_day

    def timed_observe(observe):
        def wrapper(pairs):
            start = time.perf_counter()
            values = observe(pairs)
            submit_s.append(time.perf_counter() - start)
            return values

        return wrapper

    def timed_run_day(day, tasks, observe):
        if recorder is not None:
            recorder.day = day
        start = time.perf_counter()
        outcome = run_day(day, tasks, timed_observe(observe))
        day_bounds.append((start, time.perf_counter()))
        return outcome

    approach.run_day = timed_run_day
    steps: list = []
    with patched(_step_results(steps)), _traced(recorder):
        result = run_simulation(
            dataset, approach, SimulationConfig(n_days=params["n_days"], seed=seed)
        )

    problems: list = []
    tally = Tally()
    tasks_with_truth = 0
    phase_s: dict = {}
    for record, step in zip(result.days, steps):
        observed = record.observations.mask.any(axis=0)
        finite = _check_truths(f"day {record.day}", record.truths, observed, problems)
        if step.degraded:
            tally.record(False, "degraded")
        else:
            tally.record(finite, "non_finite_truth")
        tasks_with_truth += int(np.sum(np.isfinite(record.truths)))
        merge_timings(phase_s, record.timings)
    if len(steps) != len(result.days) or len(result.days) != params["n_days"]:
        problems.append(f"ran {len(result.days)} of {params['n_days']} days")
    return Repetition(
        input_seed=seed,
        setup_s=day_bounds[0][0] - started,
        loop_s=day_bounds[-1][1] - day_bounds[0][0],
        day_s=[end - start for start, end in day_bounds],
        submit_s=submit_s,
        tasks_with_truth=tasks_with_truth,
        tally=tally,
        fingerprint=result.fingerprint(),
        estimation_error=result.mean_estimation_error,
        recruit_cost=result.total_cost,
        phase_s=phase_s,
        embedding_train_s=train_s,
        problems=problems,
    )


def _traffic_truths(trace, seed: int, params: dict) -> dict:
    """Ground truth and base numbers per traffic day, for scoring.

    ``generate_traffic`` does not return its world, so the synthetic
    dataset is rebuilt from the same seed stream and checked against the
    trace's tasks before it is trusted.
    """
    from repro.datasets import synthetic_dataset
    from repro.datasets.base import evenly_distributed_days
    from repro.rng import ensure_rng

    data_rng, schedule_rng = ensure_rng(seed).spawn(5)[:2]
    dataset = synthetic_dataset(
        n_users=params["n_users"],
        n_tasks=params["n_tasks"],
        n_domains=params["n_domains"],
        seed=data_rng,
    )
    schedule = evenly_distributed_days(dataset.n_tasks, params["n_days"], schedule_rng)
    days = {}
    for day in trace.days:
        specs = [dataset.tasks[j] for j in np.flatnonzero(schedule == day.day)]
        same = len(specs) == len(day.tasks) and all(
            (s.processing_time, s.cost, s.true_domain) == (t.processing_time, t.cost, t.domain)
            for s, t in zip(specs, day.tasks)
        )
        if not same:
            return {}
        days[day.day] = (
            np.array([s.true_value for s in specs], dtype=float),
            np.array([s.base_number for s in specs], dtype=float),
        )
    return days


def serve_replay(seed: int, size: str = "full", recorder=None, workdir=None) -> Repetition:
    """One closed-loop replay of generated traffic through ``IngestionService``."""
    started = time.perf_counter()
    from repro.core.pipeline import ETA2System
    from repro.reliability.sanitize import IngestSchema
    from repro.serve.service import DayProcessingError, IngestionService
    from repro.simulation.engine import generate_traffic
    from repro.simulation.metrics import normalized_estimation_error

    params = SIZES["serve-replay"][size]
    trace = generate_traffic(
        n_users=params["n_users"],
        n_tasks=params["n_tasks"],
        n_days=params["n_days"],
        n_domains=params["n_domains"],
        reporters_per_task=params["reporters"],
        seed=seed,
    )
    system = ETA2System(
        n_users=trace.n_users, capacities=trace.capacities, gamma=GAMMA, alpha=ALPHA, seed=seed
    )
    schema = IngestSchema(
        n_users=trace.n_users,
        n_tasks=max(len(day.tasks) for day in trace.days),
        min_day=0,
        max_day=trace.days[-1].day,
    )
    wal_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
    try:
        # `repro serve` defaults: max_queue 256, strict schema screening,
        # group commit at day seals, checkpoints under the WAL directory.
        service = IngestionService(system, wal_dir, max_queue=256, schema=schema, sync="commit")
        setup_s = time.perf_counter() - started

        tally = Tally()
        day_s: list = []
        submit_s: list = []
        results: list = []
        loop_start = time.perf_counter()
        with _traced(recorder):
            for day in trace.days:
                if recorder is not None:
                    recorder.day = day.day
                service.open_day(day.day, day.tasks)
                for batch in day.batches:
                    start = time.perf_counter()
                    outcome = service.submit(batch)
                    submit_s.append(time.perf_counter() - start)
                    tally.record(outcome.accepted, outcome.reason)
                start = time.perf_counter()
                try:
                    results.append((day, service.seal_day()))
                except DayProcessingError:
                    tally.record(False, "day_processing_error")
                day_s.append(time.perf_counter() - start)
        loop_s = time.perf_counter() - loop_start
        service.close()
        wal_bytes = sum(path.stat().st_size for path in wal_dir.glob("wal-*.jsonl"))
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)

    problems: list = []
    if service.applied_days != len(trace.days):
        problems.append(f"applied {service.applied_days} of {len(trace.days)} days")
    truths = _traffic_truths(trace, seed, params)
    if not truths:
        problems.append("rebuilt ground truth does not match the generated traffic")
    errors = []
    tasks_with_truth = 0
    cost = 0.0
    for day, result in results:
        observed = result.observations.mask.any(axis=0)
        tally.record(_check_truths(f"day {day.day}", result.truths, observed, problems), "non_finite_truth")
        tasks_with_truth += int(np.sum(np.isfinite(result.truths)))
        cost += float(result.allocation_cost)
        if truths:
            true_values, base_numbers = truths[day.day]
            errors.append(normalized_estimation_error(result.truths, true_values, base_numbers))
    return Repetition(
        input_seed=seed,
        setup_s=setup_s,
        loop_s=loop_s,
        day_s=day_s,
        submit_s=submit_s,
        tasks_with_truth=tasks_with_truth,
        tally=tally,
        fingerprint=service.state_fingerprint(),
        estimation_error=float(np.mean(errors)) if errors else float("nan"),
        recruit_cost=cost,
        phase_s=dict(system.phase_totals),
        wal_bytes=wal_bytes,
        problems=problems,
    )


def quiet_program_logs() -> None:
    """Non-convergence warnings are counted, not printed per day."""
    logging.getLogger("repro").setLevel(logging.ERROR)


WORKLOADS = {
    "synthetic-mq": lambda seed, **kw: simulate("synthetic-mq", seed, **kw),
    "survey-mc": lambda seed, **kw: simulate("survey-mc", seed, **kw),
    "serve-replay": serve_replay,
}
