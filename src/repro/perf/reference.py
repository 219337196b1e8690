"""Frozen pre-optimisation kernels, kept as equivalence/speedup yardsticks.

These are verbatim copies of the seed implementations that the performance
layer replaced:

- :func:`reference_linkage_sums` — the O(k²) Python double loop that built
  :class:`~repro.clustering.linkage.AverageLinkage`'s cluster-sum matrix,
- :class:`ReferenceAverageLinkage` — average linkage whose
  ``closest_pair`` rebuilds the full k×k average matrix and takes its
  flattened ``np.argmin`` on every call (the O(k²)-per-merge scan the
  nearest-neighbour cache replaced; merges must stay bit-identical),
- :func:`reference_labels_from_clusters` — the per-point label loop,
- :func:`reference_estimate_truth` — the dense §4.1 batch MLE (full
  ``(n_users, n_tasks)`` products every coordinate iteration),
- :class:`ReferenceDynamicHierarchicalClustering` — dynamic clustering that
  rebuilds the entire pairwise distance matrix from scratch on every
  arrival batch instead of using the grow-only cache,
- :func:`reference_greedy_allocate` — the eager Algorithm 1 greedy that
  re-evaluates every stale task after every pick (the loop the CELF
  lazy-greedy kernel in :mod:`repro.core.allocation.lazy_greedy`
  replaced; picks must stay bit-identical),
- :func:`reference_random_allocate` — the warm-up
  :class:`~repro.core.allocation.baselines.RandomAllocator`'s pair-by-pair
  Python walk over one random permutation (the vectorised per-user walk
  must give the same matrix and leave the generator in the same state),
- :func:`reference_serial_estimate_truth` — the single-process sparse
  §4.1 MLE, frozen at the point the domain-sharded engine
  (:mod:`repro.core.parallel`) was introduced.  The ``mle_parallel``
  kernel in :mod:`repro.perf.baseline` measures shard speedups against
  this copy, and equivalence tests hold the engine to bit-identical
  truths/expertise against it.

They exist so that (a) ``tests/perf/test_equivalence.py`` and
``tests/perf/test_linkage_equivalence.py`` can prove the optimised kernels
produce identical clusters and merges and ``allclose`` truths, and
(b) :mod:`repro.perf.baseline` can record optimised-vs-reference speedups
in ``BENCH_core.json``.  Do not "fix" or optimise this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.clustering.dynamic import DynamicHierarchicalClustering
from repro.clustering.linkage import AverageLinkage
from repro.core.expertise import DEFAULT_EXPERTISE, clamp_expertise, expertise_from_sums
from repro.core.truth import (
    ABSOLUTE_TOLERANCE,
    RELATIVE_TOLERANCE,
    SIGMA_FLOOR,
    TruthAnalysisResult,
    update_truths_for_expertise,
)
from repro.perf.cache import GrowOnlyDistanceMatrix
from repro.truthdiscovery.base import ObservationMatrix

__all__ = [
    "reference_linkage_sums",
    "ReferenceAverageLinkage",
    "reference_labels_from_clusters",
    "reference_estimate_truth",
    "reference_serial_estimate_truth",
    "reference_greedy_allocate",
    "reference_random_allocate",
    "ReferenceDynamicHierarchicalClustering",
]


def reference_greedy_allocate(
    problem,
    initial=None,
    divide_by_time: bool = True,
    cost_budget: "float | None" = None,
    active_tasks: "np.ndarray | None" = None,
):
    """The seed Algorithm 1 greedy loop (see
    :func:`repro.core.allocation.max_quality.greedy_allocate`).

    Eager evaluation: after every pick it immediately re-evaluates the
    chosen task and every task whose cached best user just lost capacity,
    then takes a full ``np.argmax`` over all tasks for the next pick.
    """
    from repro.core.allocation.base import allocation_objective
    from repro.core.allocation.lazy_greedy import GreedyOutcome

    n_users, n_tasks = problem.n_users, problem.n_tasks
    p = problem.accuracy_matrix()
    times = problem.pair_times()  # (n_users, n_tasks); per-task t_j broadcast
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
        active = active.copy()

    spent = 0.0
    budget_blocked = np.zeros(n_tasks, dtype=bool)

    def best_for_task(task: int) -> "tuple[float, int]":
        if not active[task] or budget_blocked[task]:
            return (0.0, -1)
        feasible = (~assigned[:, task]) & eligible & (times[:, task] <= remaining + 1e-12)
        if not np.any(feasible):
            return (0.0, -1)
        gain = p[:, task] * miss[task]
        if divide_by_time:
            gain = gain / times[:, task]
        gain = np.where(feasible, gain, 0.0)
        user = int(np.argmax(gain))
        return (float(gain[user]), user)

    best_eff = np.zeros(n_tasks, dtype=float)
    best_user = np.full(n_tasks, -1, dtype=int)
    for task in range(n_tasks):
        best_eff[task], best_user[task] = best_for_task(task)

    added: list = []
    while True:
        task = int(np.argmax(best_eff))
        if best_eff[task] <= 0.0:
            break
        if cost_budget is not None and spent + costs[task] > cost_budget + 1e-12:
            # Cost only grows, so this task can never be afforded again.
            budget_blocked[task] = True
            best_eff[task], best_user[task] = 0.0, -1
            continue
        user = best_user[task]
        assigned[user, task] = True
        remaining[user] -= times[user, task]
        miss[task] *= 1.0 - p[user, task]
        spent += costs[task]
        added.append((user, task))
        # Stale entries: the chosen task (its coverage changed) and every
        # task whose cached best user was the one whose capacity shrank.
        stale = np.flatnonzero(best_user == user)
        best_eff[task], best_user[task] = best_for_task(task)
        for other in stale:
            if other != task:
                best_eff[other], best_user[other] = best_for_task(int(other))

    from repro.core.allocation.base import Assignment

    assignment = Assignment(matrix=assigned)
    return GreedyOutcome(
        assignment=assignment,
        added_pairs=tuple(added),
        objective=allocation_objective(problem, assignment),
        spent_cost=spent,
    )


def reference_random_allocate(problem, rng: np.random.Generator):
    """The seed ``RandomAllocator.allocate`` walk, drawing from ``rng``.

    Visits every ``(user, task)`` pair of one random permutation in order
    and takes each pair that still fits in its user's remaining capacity.
    """
    from repro.core.allocation.base import Assignment

    n_users, n_tasks = problem.n_users, problem.n_tasks
    times = problem.pair_times()
    remaining = problem.capacities.astype(float).copy()
    eligible = problem.eligible_mask()
    matrix = np.zeros((n_users, n_tasks), dtype=bool)
    order = rng.permutation(n_users * n_tasks)
    for flat in order:
        user, task = divmod(int(flat), n_tasks)
        if eligible[user] and times[user, task] <= remaining[user] + 1e-12:
            matrix[user, task] = True
            remaining[user] -= times[user, task]
    return Assignment(matrix=matrix)


def reference_linkage_sums(base: np.ndarray, groups: Sequence[Sequence[int]]) -> np.ndarray:
    """The seed ``AverageLinkage.__init__`` cluster-sum construction."""
    base = np.asarray(base, dtype=float)
    members = [list(group) for group in groups]
    k = len(members)
    sums = np.zeros((k, k), dtype=float)
    for a in range(k):
        rows = base[np.ix_(members[a], members[a])]
        sums[a, a] = rows.sum() / 2.0
        for b in range(a + 1, k):
            total = base[np.ix_(members[a], members[b])].sum()
            sums[a, b] = total
            sums[b, a] = total
    return sums


class ReferenceAverageLinkage(AverageLinkage):
    """Average linkage with the seed full-scan ``closest_pair``.

    Construction and merging are shared with the optimised class, so any
    divergence is the nearest-neighbour cache's fault.
    """

    def closest_pair(self) -> "tuple[int, int, float]":
        """The seed ``AverageLinkage.closest_pair``, with the seed
        ``average_distances`` inlined (self-contained, so it can also be
        patched onto :class:`AverageLinkage` itself)."""
        if self.cluster_count < 2:
            raise ValueError("need at least two live clusters")
        sizes = self._sizes
        with np.errstate(divide="ignore", invalid="ignore"):
            avg = self._sums / np.outer(sizes, sizes)
        dead = ~self._alive
        avg[dead, :] = np.inf
        avg[:, dead] = np.inf
        np.fill_diagonal(avg, np.inf)
        position = int(np.argmin(avg))
        a, b = divmod(position, avg.shape[1])
        return (min(a, b), max(a, b), float(avg[a, b]))


def reference_labels_from_clusters(clusters, n_points: int) -> np.ndarray:
    """The seed per-point labelling loop of the static clustering front-end."""
    labels = np.full(n_points, -1, dtype=int)
    for cluster_id, members in enumerate(clusters):
        for index in members:
            labels[index] = cluster_id
    if np.any(labels < 0):
        raise AssertionError("internal error: clustering did not cover all points")
    return labels


def _reference_update_expertise(
    observations: ObservationMatrix,
    truths: np.ndarray,
    sigmas: np.ndarray,
    domain_columns: np.ndarray,
    n_domains: int,
) -> np.ndarray:
    """The seed dense Eq. 6 pass (per-domain column scans every iteration)."""
    mask = observations.mask
    safe_truths = np.where(np.isnan(truths), 0.0, truths)
    normalised_sq = np.where(mask, ((observations.values - safe_truths) / sigmas) ** 2, 0.0)

    n_users = observations.n_users
    numerators = np.zeros((n_users, n_domains), dtype=float)
    denominators = np.zeros((n_users, n_domains), dtype=float)
    for k in range(n_domains):
        tasks = np.flatnonzero(domain_columns == k)
        if tasks.size == 0:
            continue
        numerators[:, k] = mask[:, tasks].sum(axis=1)
        denominators[:, k] = normalised_sq[:, tasks].sum(axis=1)
    return expertise_from_sums(numerators, denominators)


def _reference_truths_converged(new: np.ndarray, old: np.ndarray) -> bool:
    both = ~(np.isnan(new) | np.isnan(old))
    if not np.any(both):
        return True
    delta = np.abs(new[both] - old[both])
    scale = np.abs(old[both])
    relative_ok = delta <= RELATIVE_TOLERANCE * np.maximum(scale, 1e-12)
    absolute_ok = delta <= ABSOLUTE_TOLERANCE
    return bool(np.all(relative_ok | absolute_ok))


def reference_estimate_truth(
    observations: ObservationMatrix,
    task_domains,
    initial_expertise: "np.ndarray | None" = None,
    domain_ids: "tuple | None" = None,
    max_iterations: int = 100,
) -> TruthAnalysisResult:
    """The seed dense §4.1 batch MLE (see :func:`repro.core.truth.estimate_truth`)."""
    task_domains = np.asarray(task_domains)
    if task_domains.shape != (observations.n_tasks,):
        raise ValueError("task_domains must have one label per task")
    if observations.observation_count == 0:
        raise ValueError("observation matrix is empty")

    if domain_ids is None:
        domain_ids = tuple(sorted(set(task_domains.tolist())))
    column_of = {domain_id: k for k, domain_id in enumerate(domain_ids)}
    try:
        domain_columns = np.array([column_of[d] for d in task_domains.tolist()], dtype=int)
    except KeyError as missing:
        raise ValueError(f"task domain {missing} not present in domain_ids") from None
    n_domains = len(domain_ids)

    if initial_expertise is None:
        expertise = np.full((observations.n_users, n_domains), DEFAULT_EXPERTISE, dtype=float)
    else:
        expertise = clamp_expertise(np.asarray(initial_expertise, dtype=float).copy())
        if expertise.shape != (observations.n_users, n_domains):
            raise ValueError("initial_expertise has the wrong shape")

    truths = np.full(observations.n_tasks, np.nan)
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        task_expertise = expertise[:, domain_columns]
        new_truths, sigmas = update_truths_for_expertise(observations, task_expertise)
        expertise = _reference_update_expertise(
            observations, new_truths, sigmas, domain_columns, n_domains
        )
        if iterations > 1 and _reference_truths_converged(new_truths, truths):
            truths = new_truths
            converged = True
            break
        truths = new_truths

    task_expertise = expertise[:, domain_columns]
    truths, sigmas = update_truths_for_expertise(observations, task_expertise)
    return TruthAnalysisResult(
        truths=truths,
        sigmas=sigmas,
        expertise=expertise,
        domain_ids=tuple(domain_ids),
        iterations=iterations,
        converged=converged,
    )


def reference_serial_estimate_truth(
    observations: ObservationMatrix,
    task_domains,
    initial_expertise: "np.ndarray | None" = None,
    domain_ids: "tuple | None" = None,
    max_iterations: int = 100,
) -> TruthAnalysisResult:
    """The single-process sparse §4.1 MLE, frozen as the sharding yardstick.

    Verbatim copy of :func:`repro.core.truth.estimate_truth`'s plain path
    (no robust reweighting, no tracing) at the point the domain-sharded
    engine landed: scatter-sum (``np.bincount``) Eq. 5/6 passes over the
    observed entries, loop-invariant structure hoisted out of the
    iteration.  ``BENCH_core.json``'s ``mle_parallel`` speedups are
    measured against this function so later serial-path changes cannot
    move the baseline.
    """
    task_domains = np.asarray(task_domains)
    if task_domains.shape != (observations.n_tasks,):
        raise ValueError("task_domains must have one label per task")
    if observations.observation_count == 0:
        raise ValueError("observation matrix is empty")

    if domain_ids is None:
        domain_ids = tuple(sorted(set(task_domains.tolist())))
    column_of = {domain_id: k for k, domain_id in enumerate(domain_ids)}
    domain_columns = np.array([column_of[d] for d in task_domains.tolist()], dtype=int)
    n_domains = len(domain_ids)
    n_users, n_tasks = observations.n_users, observations.n_tasks

    if initial_expertise is None:
        expertise = np.full((n_users, n_domains), DEFAULT_EXPERTISE, dtype=float)
    else:
        expertise = clamp_expertise(np.asarray(initial_expertise, dtype=float).copy())
        if expertise.shape != (n_users, n_domains):
            raise ValueError("initial_expertise has the wrong shape")

    rows, cols = np.nonzero(observations.mask)
    values = observations.values[rows, cols]
    obs_domain_cols = domain_columns[cols]
    flat_user_domain = rows * n_domains + obs_domain_cols
    task_counts = np.bincount(cols, minlength=n_tasks)
    count_sums = (
        np.bincount(flat_user_domain, minlength=n_users * n_domains)
        .reshape(n_users, n_domains)
        .astype(float)
    )

    def truth_pass(expertise: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        weights = expertise[rows, obs_domain_cols] ** 2
        weight_totals = np.bincount(cols, weights=weights, minlength=n_tasks)
        weighted_values = np.bincount(cols, weights=weights * values, minlength=n_tasks)
        observed = weight_totals > 0
        truths = np.where(
            observed, weighted_values / np.where(observed, weight_totals, 1.0), np.nan
        )
        safe_truths = np.where(np.isnan(truths), 0.0, truths)
        residuals = values - safe_truths[cols]
        weighted_square = np.bincount(cols, weights=weights * residuals**2, minlength=n_tasks)
        variance = np.where(task_counts > 0, weighted_square / np.maximum(task_counts, 1), 0.0)
        sigmas = np.maximum(np.sqrt(variance), SIGMA_FLOOR)
        return truths, sigmas

    def expertise_pass(truths: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        safe_truths = np.where(np.isnan(truths), 0.0, truths)
        normalised_sq = ((values - safe_truths[cols]) / sigmas[cols]) ** 2
        denominators = np.bincount(
            flat_user_domain, weights=normalised_sq, minlength=n_users * n_domains
        ).reshape(n_users, n_domains)
        return expertise_from_sums(count_sums, denominators)

    truths = np.full(n_tasks, np.nan)
    converged = False
    final_delta = float("nan")
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        new_truths, sigmas = truth_pass(expertise)
        expertise = expertise_pass(new_truths, sigmas)
        if iterations > 1 and _reference_truths_converged(new_truths, truths):
            truths = new_truths
            converged = True
            break
        truths = new_truths

    truths, sigmas = truth_pass(expertise)
    return TruthAnalysisResult(
        truths=truths,
        sigmas=sigmas,
        expertise=expertise,
        domain_ids=tuple(domain_ids),
        iterations=iterations,
        converged=converged,
        final_delta=final_delta,
    )


class ReferenceDynamicHierarchicalClustering(DynamicHierarchicalClustering):
    """Dynamic clustering without the incremental cache.

    Every arrival batch recomputes the *full* pairwise distance matrix from
    the accumulated points (the behaviour the grow-only cache replaced).
    Classification, d* handling, and the merge loop are shared with the
    optimised class, so any divergence is the distance bookkeeping's fault.
    """

    def _ingest_distances(self, cross: np.ndarray, inner: np.ndarray) -> None:
        points = self._points.view()
        base = self._distances(points, points)
        np.fill_diagonal(base, 0.0)
        cache = GrowOnlyDistanceMatrix()
        cache.initialise(base)
        self._cache = cache
