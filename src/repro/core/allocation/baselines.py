"""Baseline allocators used by the comparison approaches (Section 6.3).

- :class:`RandomAllocator` — tasks are allocated to users uniformly at
  random until capacities are exhausted.  Used in the warm-up period (no
  expertise is known yet) and by the "Baseline" mean approach throughout.
- :class:`ReliabilityGreedyAllocator` — the allocation strategy paired with
  the reliability-based truth-discovery methods: tasks are greedily handed
  to the most reliable users, with shorter tasks prioritised so those users
  can finish as many tasks as possible.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation.base import AllocationProblem, Assignment
from repro.rng import ensure_rng

__all__ = ["RandomAllocator", "ReliabilityGreedyAllocator"]


class RandomAllocator:
    """Uniformly random capacity-filling allocation.

    Semantically a walk over every ``(user, task)`` pair in one random
    order, taking each pair that still fits in its user's remaining
    capacity.  Whether a pair is taken depends only on its own user's
    remaining capacity, so the walk runs for all users at once: the same
    ``permutation(n_users * n_tasks)`` is drawn, inverted and sorted per
    user into each user's visit sequence, and step ``k`` visits every
    user's ``k``-th task together, subtracting ``np.where(fits, t, 0.0)``.
    Each user's capacity therefore falls in the same order by the same
    values as in the pair-by-pair walk (frozen as
    :func:`repro.perf.reference.reference_random_allocate`), so the
    assignment is bit-identical and the generator is left in the same
    state.
    """

    def __init__(self, seed=None):
        self._rng = ensure_rng(seed)

    def allocate(self, problem: AllocationProblem) -> Assignment:
        """Assign random feasible (user, task) pairs until none remain.

        Visits all pairs in random order, taking each one that still fits in
        the user's remaining capacity.  This fills capacity the same way the
        smarter allocators do, so comparisons measure *which* users answer
        which tasks rather than how much data is collected.
        """
        n_users, n_tasks = problem.n_users, problem.n_tasks
        times = problem.pair_times()
        remaining = problem.capacities.astype(float).copy()
        eligible = problem.eligible_mask()
        matrix = np.zeros((n_users, n_tasks), dtype=bool)
        order = self._rng.permutation(n_users * n_tasks)
        # ``position`` inverts the permutation: the step at which the walk
        # reaches each pair.  Sorting each user's row of positions gives
        # that user's tasks in visit order (the same sequence a stable
        # argsort of ``order`` by user yields); column k of ``visits``
        # holds every user's k-th task.
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        visits = np.argsort(position.reshape(n_users, n_tasks).T, axis=0)
        users = np.arange(n_users)
        for tasks in visits:
            step = times[users, tasks]
            fits = eligible & (step <= remaining + 1e-12)
            remaining -= np.where(fits, step, 0.0)
            matrix[users[fits], tasks[fits]] = True
        return Assignment(matrix=matrix)


class ReliabilityGreedyAllocator:
    """Greedy allocation by scalar user reliability.

    Tasks are visited shortest-first (the paper prioritises short tasks for
    high-reliability users so they can finish as many tasks as possible); in
    each pass every task receives one additional user — the most reliable
    user with enough remaining capacity that is not yet assigned to it.
    Passes repeat until no assignment is possible.

    The pass structure matters: if each user instead grabbed the shortest
    tasks independently, all users would pick the *same* few short tasks and
    most tasks would get no observer at all — an allocation no deployed
    system would use and one that degenerates the estimation-error metric
    (it averages over estimated tasks only).
    """

    def __init__(self, reliabilities: np.ndarray):
        reliabilities = np.asarray(reliabilities, dtype=float)
        if reliabilities.ndim != 1:
            raise ValueError("reliabilities must be a 1-D array")
        self._reliabilities = reliabilities

    def allocate(self, problem: AllocationProblem) -> Assignment:
        if self._reliabilities.shape != (problem.n_users,):
            raise ValueError("reliabilities must have one entry per user")
        n_users = problem.n_users
        times = problem.pair_times()
        remaining = problem.capacities.astype(float).copy()
        eligible = problem.eligible_mask()
        matrix = np.zeros((n_users, problem.n_tasks), dtype=bool)
        # Shortest-first by each task's mean time across users.
        task_order = np.argsort(times.mean(axis=0), kind="stable")
        # Each user's rank in the descending-reliability order; ineligible
        # users rank +inf so a masked argmin below returns exactly the user
        # a first-feasible scan down the reliability order would.
        rank = np.empty(n_users, dtype=float)
        rank[np.argsort(-self._reliabilities, kind="stable")] = np.arange(n_users)
        rank[~eligible] = np.inf
        progressed = True
        while progressed:
            progressed = False
            for task in task_order:
                feasible = (
                    ~matrix[:, task]
                    & eligible
                    & (times[:, task] <= remaining + 1e-12)
                )
                if not np.any(feasible):
                    continue
                user = int(np.argmin(np.where(feasible, rank, np.inf)))
                matrix[user, task] = True
                remaining[user] -= times[user, task]
                progressed = True
        return Assignment(matrix=matrix)
