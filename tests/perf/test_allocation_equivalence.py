"""The lazy-greedy (CELF) allocation kernel must be bit-identical to the
frozen eager reference.

Unlike the MLE equivalence checks (allclose — scatter-sums reorder
additions), the allocation kernel promises *exact* reproduction: the same
picks in the same order, the same assignment matrix, the same objective
and spent cost, on every instance.  The fuzz below therefore asserts
``==``, never ``allclose``, across 200 randomized instances covering the
adversarial structure the kernel's staleness reasoning must survive:

- tie-heavy expertise (few discrete levels shared across users/domains),
- per-task and per-pair (spatial) processing times, also tie-heavy,
- zero-capacity users and eligibility masks,
- cost budgets that block tasks mid-run (Algorithm 2's ``c^o``),
- warm initial assignments (min-cost rounds),
- inactive-task masks and both efficiency definitions
  (``divide_by_time`` on/off).

The CELF invariant test asserts the submodularity precondition the kernel
relies on: re-evaluating a stale heap entry never *increases* its
efficiency (``max_refresh_delta <= 0``), so a stale cached value is always
an upper bound and a fresh top-of-heap entry is the true global argmax.

The small instances above rarely leave more than one stale entry at the
top of the heap, so a second fuzz uses larger domain-structured instances
(one dominant user per domain with tight capacity: when it runs out, a
whole domain's entries go stale at once) where block re-evaluation really
re-evaluates many entries together.  A last fuzz holds the vectorised
warm-up :class:`~repro.core.allocation.baselines.RandomAllocator` to the
frozen pair-by-pair walk, including the generator state it leaves behind.
"""

import numpy as np
import pytest

from repro.core.allocation import lazy_greedy
from repro.core.allocation.base import AllocationProblem, Assignment
from repro.core.allocation.baselines import RandomAllocator
from repro.core.allocation.lazy_greedy import lazy_greedy_allocate
from repro.perf.reference import reference_greedy_allocate, reference_random_allocate


def _random_instance(rng):
    """One randomized allocation instance plus greedy kwargs."""
    n_users = int(rng.integers(2, 12))
    n_tasks = int(rng.integers(2, 14))
    n_domains = int(rng.integers(1, 5))
    domains = rng.integers(0, n_domains, n_tasks)
    if rng.random() < 0.5:
        # Tie-heavy: a handful of discrete expertise levels, so many
        # (user, task) efficiencies collide exactly and the argmax
        # tie-break (lowest task, then lowest user) is exercised hard.
        levels = rng.choice([0.0, 0.5, 1.0, 2.0], size=(n_users, n_domains))
    else:
        levels = rng.gamma(2.0, 1.5, (n_users, n_domains))
    expertise = levels[:, domains]

    roll = rng.random()
    if roll < 0.4:
        # Spatial per-pair times, quantized for more exact ties.
        times = rng.choice([0.5, 1.0, 1.5], size=(n_users, n_tasks))
    elif roll < 0.7:
        times = rng.uniform(0.3, 2.0, (n_users, n_tasks))
    else:
        times = rng.choice([0.5, 1.0, 2.0], size=n_tasks)

    capacities = rng.uniform(0.5, 4.0, n_users)
    capacities[rng.random(n_users) < 0.2] = 0.0

    costs = rng.choice([0.5, 1.0, 2.0], size=n_tasks) if rng.random() < 0.5 else None
    eligible = None
    if rng.random() < 0.3:
        eligible = rng.random(n_users) < 0.7
        if not eligible.any():
            eligible[int(rng.integers(n_users))] = True

    problem = AllocationProblem(
        expertise=expertise,
        processing_times=times,
        capacities=capacities,
        costs=costs,
        eligible=eligible,
    )

    kwargs = {"divide_by_time": bool(rng.random() < 0.7)}
    if rng.random() < 0.4:
        # Small enough to block tasks mid-run once cheap picks accumulate.
        kwargs["cost_budget"] = float(rng.uniform(0.5, n_tasks))
    if rng.random() < 0.3:
        kwargs["active_tasks"] = rng.random(n_tasks) < 0.7

    initial = None
    if rng.random() < 0.3:
        initial = _warm_start(rng, problem, int(rng.integers(1, 6)))
    return problem, initial, kwargs


def _warm_start(rng, problem, n_pairs):
    """A few random feasible pairs, as earlier min-cost rounds leave."""
    initial = Assignment.empty(problem.n_users, problem.n_tasks)
    pair_times = problem.pair_times()
    remaining = problem.capacities.copy()
    for _ in range(n_pairs):
        user = int(rng.integers(problem.n_users))
        task = int(rng.integers(problem.n_tasks))
        if not initial.matrix[user, task] and pair_times[user, task] <= remaining[user]:
            initial.matrix[user, task] = True
            remaining[user] -= pair_times[user, task]
    return initial


@pytest.mark.parametrize("block", range(8))
def test_lazy_greedy_matches_reference_fuzz(block):
    """200 randomized instances (8 blocks x 25): picks bit-identical."""
    rng = np.random.default_rng(1000 + block)
    for _ in range(25):
        problem, initial, kwargs = _random_instance(rng)
        lazy = lazy_greedy_allocate(problem, initial=initial, **kwargs)
        ref = reference_greedy_allocate(problem, initial=initial, **kwargs)
        # Same pairs in the same pick order — not merely the same set.
        assert lazy.added_pairs == ref.added_pairs
        assert np.array_equal(lazy.assignment.matrix, ref.assignment.matrix)
        assert lazy.objective == ref.objective
        assert lazy.spent_cost == ref.spent_cost


def test_celf_invariant_refresh_never_increases():
    """Submodularity in floats: stale heap values are upper bounds."""
    rng = np.random.default_rng(77)
    for _ in range(40):
        problem, initial, kwargs = _random_instance(rng)
        stats = lazy_greedy_allocate(problem, initial=initial, **kwargs).stats
        assert stats.max_refresh_delta <= 0.0


def test_stats_accounting():
    """Every evaluation is pop-triggered; every pick consumes a fresh pop."""
    rng = np.random.default_rng(99)
    for _ in range(20):
        problem, initial, kwargs = _random_instance(rng)
        outcome = lazy_greedy_allocate(problem, initial=initial, **kwargs)
        stats = outcome.stats
        assert stats.picks == len(outcome.added_pairs)
        assert stats.picks <= stats.pops
        assert stats.evaluations <= stats.pops


def test_lazy_on_domain_structured_instance_is_lazy():
    """On the benchmark's domain structure the kernel must do far fewer
    re-evaluations than the eager loop's ~picks * tasks-per-domain."""
    rng = np.random.default_rng(121314)
    domains = rng.integers(0, 4, 400)
    expertise = rng.gamma(2.0, 2.0, (100, 4))[:, domains]
    problem = AllocationProblem(
        expertise=expertise,
        processing_times=rng.uniform(0.5, 1.5, 400),
        capacities=np.full(100, 1.0),
    )
    outcome = lazy_greedy_allocate(problem)
    ref = reference_greedy_allocate(problem)
    assert outcome.added_pairs == ref.added_pairs
    eager_evaluations = outcome.stats.picks * 100  # ~tasks per domain
    assert outcome.stats.evaluations < eager_evaluations / 2


def _domain_instance(rng):
    """A 60x300, 4-domain instance with one dominant user per domain."""
    n_users, n_tasks, n_domains = 60, 300, 4
    domains = rng.integers(0, n_domains, n_tasks)
    if rng.random() < 0.5:
        levels = rng.choice([0.25, 0.5, 1.0], size=(n_users, n_domains))
    else:
        levels = rng.gamma(2.0, 0.5, (n_users, n_domains))
    dominant = rng.choice(n_users, n_domains, replace=False)
    levels[dominant, np.arange(n_domains)] = rng.uniform(4.0, 6.0, n_domains)
    expertise = levels[:, domains]

    if rng.random() < 0.5:
        times = rng.choice([0.5, 1.0, 1.5], size=n_tasks)
    else:
        times = rng.uniform(0.4, 1.6, (n_users, n_tasks))
    capacities = rng.uniform(2.0, 6.0, n_users)
    # Dominant users run out after a handful of picks.
    capacities[dominant] = rng.uniform(1.5, 4.0, n_domains)
    capacities[rng.random(n_users) < 0.1] = 0.0

    costs = rng.choice([0.5, 1.0, 2.0], size=n_tasks) if rng.random() < 0.5 else None
    eligible = None
    if rng.random() < 0.3:
        eligible = rng.random(n_users) < 0.8
        eligible[dominant[0]] = True
    problem = AllocationProblem(
        expertise=expertise,
        processing_times=times,
        capacities=capacities,
        costs=costs,
        eligible=eligible,
    )

    kwargs = {"divide_by_time": bool(rng.random() < 0.7)}
    if rng.random() < 0.4:
        kwargs["cost_budget"] = float(rng.uniform(20.0, 120.0))
    if rng.random() < 0.3:
        kwargs["active_tasks"] = rng.random(n_tasks) < 0.8
    initial = _warm_start(rng, problem, 40) if rng.random() < 0.4 else None
    return problem, initial, kwargs


@pytest.mark.parametrize("block", range(4))
def test_block_reevaluation_matches_reference_fuzz(block, monkeypatch):
    """Domain-structured instances: picks bit-identical to the eager loop
    with stale runs re-evaluated in blocks and one entry at a time."""
    rng = np.random.default_rng(5000 + block)
    multi_entry_blocks = 0
    for _ in range(6):
        problem, initial, kwargs = _domain_instance(rng)
        ref = reference_greedy_allocate(problem, initial=initial, **kwargs)
        lazy = lazy_greedy_allocate(problem, initial=initial, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(lazy_greedy, "BLOCK", 1)
            single = lazy_greedy_allocate(problem, initial=initial, **kwargs)
        for outcome in (lazy, single):
            assert outcome.added_pairs == ref.added_pairs
            assert np.array_equal(outcome.assignment.matrix, ref.assignment.matrix)
            assert outcome.objective == ref.objective
            assert outcome.spent_cost == ref.spent_cost
        assert lazy.stats.max_refresh_delta <= 0.0
        # One-at-a-time re-evaluation surfaces entries in a different
        # order only when some block held more than one stale entry.
        multi_entry_blocks += lazy.stats.pops != single.stats.pops
    assert multi_entry_blocks > 0


def _random_allocation_problem(rng):
    n_users = int(rng.integers(1, 9))
    n_tasks = int(rng.integers(1, 12))
    if rng.random() < 0.5:
        times = rng.choice([0.5, 1.0, 1.5], size=n_tasks)
    else:
        times = rng.uniform(0.3, 2.0, (n_users, n_tasks))
    roll = rng.random()
    if roll < 0.2:
        # Every pair fits: the walk takes the whole matrix.
        capacities = np.full(n_users, 2.0 * n_tasks)
    else:
        capacities = rng.choice([0.5, 1.0, 2.5, 4.0], size=n_users)
        capacities[rng.random(n_users) < 0.2] = 0.0
    eligible = None
    if rng.random() < 0.3:
        eligible = rng.random(n_users) < 0.6
        if not eligible.any():
            eligible[int(rng.integers(n_users))] = True
    return AllocationProblem(
        expertise=np.ones((n_users, n_tasks)),
        processing_times=times,
        capacities=capacities,
        eligible=eligible,
    )


@pytest.mark.parametrize("block", range(4))
def test_random_allocator_matches_reference_fuzz(block):
    """The vectorised warm-up walk: same matrix, same generator state."""
    rng = np.random.default_rng(7000 + block)
    for _ in range(50):
        problem = _random_allocation_problem(rng)
        seed = int(rng.integers(2**32))
        # The allocator draws from the generator it is given.
        allocator_rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        matrix = RandomAllocator(seed=allocator_rng).allocate(problem).matrix
        expected = reference_random_allocate(problem, reference_rng).matrix
        assert np.array_equal(matrix, expected)
        # Same draws as the walk: both generators are left in one state.
        assert allocator_rng.random() == reference_rng.random()
