"""Lazy-greedy (CELF) evaluation of Algorithm 1's efficiency greedy.

The eager greedy loop re-evaluates, after every pick, *every* task whose
cached best user just lost capacity, then takes a full ``np.argmax`` over
all tasks — O(n_tasks · n_users) interpreter-level work per pick when one
strong user is the cached best for a whole expertise domain.  But the
Eq. 12 objective is monotone submodular: a task's coverage miss
``prod (1 - p_ij)`` only shrinks as users are added, remaining capacities
only shrink, and therefore every task's best marginal efficiency only ever
*decreases* over the run.  That monotonicity is exactly the CELF
(cost-effective lazy forward selection) precondition: a stale cached
efficiency is always an **upper bound** on the current one, so stale
entries can sit untouched in a max-heap and only entries that surface at
the top ever need re-evaluation.

**Freshness is "the cached user is still feasible".**  The kernel keeps
one heap entry per task holding its efficiency and the first user that
attains it.  A task's miss changes only when that task is picked, and the
kernel re-evaluates a picked task at once, so every heap entry was
evaluated under its task's current miss.  Between picks of a task its
efficiency column ``p_ij · miss_j (/ t_ij)`` is fixed and its feasible set
only shrinks (capacities fall; only the picked pair leaves the
unassigned set).  The cached user is the *first* maximiser, so while it
stays feasible no earlier user can have caught up and no later user can
have overtaken it: the entry is exact iff
``times[user, task] <= remaining[user] + 1e-12`` still holds.  A fresh
top-of-heap entry is therefore the true global maximum.

**Cached efficiency columns and block re-evaluation.**  The kernel keeps
one Fortran-order ``(users × tasks)`` matrix of efficiency columns, built
once per call; a pick rewrites only the picked column.  A re-evaluation is
then the capacity mask times the cached column and one ``argmax``.
When the heap top is stale, the contiguous run of stale entries beneath
it (up to :data:`BLOCK`) is popped and re-evaluated in one
``(users × k)`` masked argmax, then pushed back.  Stale values are upper
bounds and only a fresh top is ever picked, so exactness does not depend
on the block size.

**Bit-identical picks.**  Heap entries order by ``(-efficiency, task)``,
so ties in efficiency break toward the lowest task index — exactly
``np.argmax`` over the per-task efficiency array — and every efficiency is
computed by the same element-wise operations in the same order as the
eager loop's ``best_for_task`` (``p * miss``, then ``/ t``, then the
feasibility mask), with ``np.argmax``'s lowest-user tie-break, so every
value is bit-identical too.  ``tests/perf/test_allocation_equivalence.py``
fuzzes the kernel against the frozen eager copy
(:func:`repro.perf.reference.reference_greedy_allocate`) across spatial
pair-times, eligibility masks, cost budgets, warm starts, tie-heavy
expertise, zero-capacity users and domain-structured instances whose stale
runs fill whole blocks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.allocation.base import AllocationProblem, Assignment, allocation_objective

__all__ = ["GreedyStats", "GreedyOutcome", "lazy_greedy_allocate"]

#: Most stale heap entries re-evaluated together in one masked argmax.
BLOCK = 64


@dataclass(frozen=True)
class GreedyStats:
    """Work counters of one lazy-greedy run (telemetry + CELF audits).

    ``evaluations`` counts per-task masked-argmax re-evaluations after the
    initial build (the build itself evaluates all ``n_tasks`` columns in
    one shot): the picked task after each pick, plus every stale entry
    popped for re-evaluation — a block of ``k`` stale entries counts
    ``k``.  The eager reference instead re-evaluates every task sharing the
    picked user after every pick, so a small ``evaluations / picks`` is
    the laziness paying off (about 5 on the 500-user, 8-domain synthetic
    benchmark days).  ``max_refresh_delta`` is the largest ``fresh -
    stale`` efficiency observed when re-evaluating a stale entry;
    submodularity guarantees it is never positive, and the CELF invariant
    test asserts exactly that.
    """

    picks: int = 0
    pops: int = 0
    evaluations: int = 0
    max_refresh_delta: float = float("-inf")

    def merged(self, other: "GreedyStats | None") -> "GreedyStats":
        """Combine counters across greedy passes (extra pass, min-cost rounds)."""
        if other is None:
            return self
        return GreedyStats(
            picks=self.picks + other.picks,
            pops=self.pops + other.pops,
            evaluations=self.evaluations + other.evaluations,
            max_refresh_delta=max(self.max_refresh_delta, other.max_refresh_delta),
        )


@dataclass(frozen=True)
class GreedyOutcome:
    """Result of one greedy pass."""

    assignment: Assignment
    added_pairs: tuple
    objective: float
    spent_cost: float
    #: Lazy-kernel work counters (None for outcomes built elsewhere).
    stats: "GreedyStats | None" = None


def lazy_greedy_allocate(
    problem: AllocationProblem,
    initial: "Assignment | None" = None,
    divide_by_time: bool = True,
    cost_budget: "float | None" = None,
    active_tasks: "np.ndarray | None" = None,
    accuracy: "np.ndarray | None" = None,
    pair_times: "np.ndarray | None" = None,
) -> GreedyOutcome:
    """Run the Algorithm 1 greedy loop via the CELF priority queue.

    Parameters mirror the public
    :func:`~repro.core.allocation.max_quality.greedy_allocate`;
    ``accuracy`` and ``pair_times`` accept the precomputed Eq. 11 matrix
    and the broadcast processing times so callers that run several passes
    over one problem (extra pass, min-cost rounds) pay for them once.
    """
    n_users, n_tasks = problem.n_users, problem.n_tasks
    p = problem.accuracy_matrix() if accuracy is None else accuracy
    times = problem.pair_times() if pair_times is None else pair_times
    costs = problem.costs
    eligible = problem.eligible_mask()

    if initial is None:
        assigned = np.zeros((n_users, n_tasks), dtype=bool)
    else:
        if initial.matrix.shape != (n_users, n_tasks):
            raise ValueError("initial assignment shape does not match the problem")
        assigned = initial.matrix.copy()
    remaining = problem.capacities - (assigned * times).sum(axis=1)
    if np.any(remaining < -1e-9):
        raise ValueError("initial assignment already exceeds capacities")
    miss = np.prod(np.where(assigned, 1.0 - p, 1.0), axis=0)

    if active_tasks is None:
        active = np.ones(n_tasks, dtype=bool)
    else:
        active = np.asarray(active_tasks, dtype=bool)
        if active.shape != (n_tasks,):
            raise ValueError("active_tasks must have one flag per task")

    # Task-major layout: ``p_f``, ``efficiency`` and ``avail`` are
    # Fortran-order (users x tasks), so one task's users — a column, or a
    # row of the ``.T`` views — are contiguous and a block of tasks is a
    # row gather.  A broadcast per-task time row (stride 0) is already cheap
    # to gather.  ``remaining_eps`` keeps ``remaining + 1e-12`` maintained
    # incrementally.  ``efficiency`` caches every task's efficiency column,
    # ``p * miss`` then ``/ t`` exactly as the eager loop computes it, zeroed
    # where the pair is unavailable (assigned or ineligible — ``avail`` only
    # ever loses entries), so multiplying it by the capacity mask reproduces
    # ``best_for_task``'s masked gains bit for bit (``x * True`` / ``x *
    # False`` equal ``np.where``'s ``x`` / ``0.0`` for these finite
    # non-negative gains).
    times_f = times if times.ndim == 2 and times.strides[0] == 0 else np.asfortranarray(times)
    p_f = np.asfortranarray(p)
    avail = np.asfortranarray(~assigned & eligible[:, None])
    remaining_eps = remaining + 1e-12
    efficiency = np.multiply(p_f, miss[None, :], order="F")
    if divide_by_time:
        efficiency /= times
    efficiency[~avail] = 0.0
    times_t, avail_t, efficiency_t = times_f.T, avail.T, efficiency.T
    feas_buf = np.empty(n_users, dtype=bool)
    gain_buf = np.empty(n_users, dtype=float)
    rows = np.arange(BLOCK)

    # Initial build: one masked argmax over the whole matrix.
    gain = np.where(times <= remaining_eps[:, None], efficiency, 0.0)
    build_user = np.argmax(gain, axis=0)
    build_eff = gain[build_user, np.arange(n_tasks)]
    del gain

    # Entries are (-efficiency, task, cached best user); a task has at most
    # one entry, so the user never takes part in the ordering.
    heap = [
        (-build_eff[task], task, int(build_user[task]))
        for task in np.flatnonzero(active & (build_eff > 0.0)).tolist()
    ]
    heapq.heapify(heap)

    picks = 0
    pops = 0
    evaluations = 0
    max_refresh_delta = float("-inf")
    spent = 0.0
    added: list = []
    while heap:
        _, task, user = heap[0]
        if times_f[user, task] > remaining_eps[user]:
            # Stale top: pop the contiguous run of stale entries and
            # re-evaluate them in one masked argmax.
            block = [heapq.heappop(heap)]
            while len(block) < BLOCK and heap:
                _, task, user = heap[0]
                if times_f[user, task] <= remaining_eps[user]:
                    break
                block.append(heapq.heappop(heap))
            k = len(block)
            pops += k
            evaluations += k
            tasks = np.array([entry[1] for entry in block])
            gain = efficiency_t[tasks]
            gain *= times_t[tasks] <= remaining_eps
            users = gain.argmax(axis=1)
            values = gain[rows[:k], users]
            for (neg_stale, task, _), value, user in zip(block, values.tolist(), users.tolist()):
                # fresh - stale, as fresh + (-stale): entries hold -stale.
                delta = value + neg_stale
                if delta > max_refresh_delta:
                    max_refresh_delta = delta
                if value > 0.0:
                    heapq.heappush(heap, (-value, task, user))
            continue
        heapq.heappop(heap)
        pops += 1
        # Fresh top of heap == the eager loop's np.argmax winner.
        if cost_budget is not None and spent + costs[task] > cost_budget + 1e-12:
            # Cost only grows, so this task can never be afforded again.
            continue
        assigned[user, task] = True
        avail[user, task] = False
        remaining[user] -= times_f[user, task]
        remaining_eps[user] = remaining[user] + 1e-12
        miss[task] *= 1.0 - p_f[user, task]
        spent += costs[task]
        added.append((user, task))
        picks += 1
        # The picked task's column is the only one whose miss changed:
        # rewrite it and re-evaluate the task now.
        column = np.multiply(p_f[:, task], miss[task], out=efficiency_t[task])
        if divide_by_time:
            column /= times_t[task]
        column *= avail_t[task]
        feasible = np.less_equal(times_t[task], remaining_eps, out=feas_buf)
        gain = np.multiply(column, feasible, out=gain_buf)
        next_user = int(gain.argmax())
        value = float(gain[next_user])
        evaluations += 1
        if value > 0.0:
            heapq.heappush(heap, (-value, task, next_user))

    assignment = Assignment(matrix=assigned)
    return GreedyOutcome(
        assignment=assignment,
        added_pairs=tuple(added),
        objective=allocation_objective(problem, assignment, accuracy=p),
        spent_cost=spent,
        stats=GreedyStats(
            picks=picks,
            pops=pops,
            evaluations=evaluations,
            max_refresh_delta=max_refresh_delta,
        ),
    )
