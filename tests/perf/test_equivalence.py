"""The optimised kernels must reproduce the frozen seed implementations.

Every kernel the performance layer replaced is checked against its verbatim
pre-optimisation copy in :mod:`repro.perf.reference` on seeded random
inputs: exact cluster structure, and ``allclose`` (rtol 1e-10) truths,
sigmas and expertise for the MLE (bincount scatter-sums order additions
differently than dense pairwise summation, so last-bit drift is expected
and bounded).
"""

import numpy as np
import pytest

from repro.clustering.dynamic import DynamicHierarchicalClustering
from repro.clustering.hierarchical import _labels_from_clusters, hierarchical_clustering
from repro.clustering.linkage import AverageLinkage
from repro.core.parallel import ParallelConfig, ParallelTruthEngine
from repro.core.truth import estimate_truth
from repro.perf.reference import (
    ReferenceAverageLinkage,
    ReferenceDynamicHierarchicalClustering,
    reference_estimate_truth,
    reference_labels_from_clusters,
    reference_linkage_sums,
    reference_serial_estimate_truth,
)
from repro.truthdiscovery.base import ObservationMatrix


def _random_distance_matrix(rng, n):
    points = rng.random((n, 3))
    base = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)
    np.fill_diagonal(base, 0.0)
    return base


def _random_observations(rng, n_users, n_tasks, density=0.25):
    mask = rng.random((n_users, n_tasks)) < density
    for task in np.flatnonzero(~mask.any(axis=0)):
        mask[rng.integers(n_users), task] = True
    values = np.where(mask, rng.normal(5.0, 2.0, (n_users, n_tasks)), 0.0)
    return ObservationMatrix(values=values, mask=mask)


# --------------------------------------------------------------------- #
# AverageLinkage construction
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_linkage_sums_match_reference_singletons(seed):
    rng = np.random.default_rng(seed)
    base = _random_distance_matrix(rng, 40)
    groups = [[i] for i in range(40)]
    engine = AverageLinkage(base, groups)
    assert np.allclose(engine._sums, reference_linkage_sums(base, groups), rtol=1e-12)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_linkage_sums_match_reference_mixed_groups(seed):
    rng = np.random.default_rng(seed)
    n = 30
    base = _random_distance_matrix(rng, n)
    # Random partition with varied group sizes, in shuffled point order.
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=6, replace=False))
    groups = [chunk.tolist() for chunk in np.split(order, cuts)]
    engine = AverageLinkage(base, groups)
    assert np.allclose(engine._sums, reference_linkage_sums(base, groups), rtol=1e-12)


def test_linkage_merge_chain_matches_reference_sums():
    rng = np.random.default_rng(6)
    base = _random_distance_matrix(rng, 25)
    groups = [[i] for i in range(25)]
    optimised = AverageLinkage(base, groups)

    # The full-scan oracle reads only the sums, sizes and liveness, so it
    # can run on the seed construction's sum matrix.
    reference = ReferenceAverageLinkage(base, groups)
    reference._sums = reference_linkage_sums(base, groups)

    log_a = optimised.merge_until(threshold=float(base.max()) * 0.4)
    log_b = reference.merge_until(threshold=float(base.max()) * 0.4)
    assert log_a == log_b
    assert sorted(map(sorted, optimised.members())) == sorted(map(sorted, reference.members()))


def test_labels_from_clusters_matches_reference():
    clusters = ((3, 1), (0, 4, 2), (5,))
    np.testing.assert_array_equal(
        _labels_from_clusters(clusters, 6), reference_labels_from_clusters(clusters, 6)
    )


def test_hierarchical_clustering_labels_unchanged():
    rng = np.random.default_rng(7)
    base = _random_distance_matrix(rng, 60)
    result = hierarchical_clustering(base, gamma=0.4)
    np.testing.assert_array_equal(
        result.labels, reference_labels_from_clusters(result.clusters, 60)
    )


# --------------------------------------------------------------------- #
# Sparse MLE
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_estimate_truth_matches_dense_reference(seed):
    rng = np.random.default_rng(seed)
    observations = _random_observations(rng, 40, 120)
    domains = rng.integers(0, 6, 120)
    a = estimate_truth(observations, domains)
    b = reference_estimate_truth(observations, domains)
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.domain_ids == b.domain_ids
    np.testing.assert_allclose(a.truths, b.truths, rtol=1e-10)
    np.testing.assert_allclose(a.sigmas, b.sigmas, rtol=1e-10)
    np.testing.assert_allclose(a.expertise, b.expertise, rtol=1e-10)


def test_estimate_truth_matches_reference_with_warm_start():
    rng = np.random.default_rng(13)
    observations = _random_observations(rng, 30, 80)
    domains = rng.integers(0, 4, 80)
    warm = np.clip(rng.normal(1.0, 0.4, (30, 4)), 0.05, 10.0)
    a = estimate_truth(observations, domains, initial_expertise=warm, domain_ids=(0, 1, 2, 3))
    b = reference_estimate_truth(
        observations, domains, initial_expertise=warm, domain_ids=(0, 1, 2, 3)
    )
    assert a.iterations == b.iterations
    np.testing.assert_allclose(a.truths, b.truths, rtol=1e-10)
    np.testing.assert_allclose(a.expertise, b.expertise, rtol=1e-10)


def test_estimate_truth_matches_reference_with_empty_domain_column():
    """domain_ids may list domains no current task belongs to."""
    rng = np.random.default_rng(14)
    observations = _random_observations(rng, 20, 40)
    domains = rng.integers(0, 3, 40)  # domain 3 exists but is empty
    a = estimate_truth(observations, domains, domain_ids=(0, 1, 2, 3))
    b = reference_estimate_truth(observations, domains, domain_ids=(0, 1, 2, 3))
    np.testing.assert_allclose(a.truths, b.truths, rtol=1e-10)
    np.testing.assert_allclose(a.expertise, b.expertise, rtol=1e-10)


# --------------------------------------------------------------------- #
# Domain-sharded MLE vs the frozen serial path
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", [15, 16, 17])
def test_serial_reference_matches_live_serial_bitwise(seed):
    """The frozen copy really is verbatim: bit-identical to the live path."""
    rng = np.random.default_rng(seed)
    observations = _random_observations(rng, 30, 90)
    domains = rng.integers(0, 5, 90)
    live = estimate_truth(observations, domains)
    frozen = reference_serial_estimate_truth(observations, domains)
    assert live.iterations == frozen.iterations
    assert live.converged == frozen.converged
    np.testing.assert_array_equal(live.truths, frozen.truths)
    np.testing.assert_array_equal(live.sigmas, frozen.sigmas)
    np.testing.assert_array_equal(live.expertise, frozen.expertise)


@pytest.mark.parametrize("n_shards", [2, 3])
def test_parallel_engine_matches_frozen_serial_bitwise(n_shards):
    """The ``mle_parallel`` kernel's contract: shards reproduce the frozen
    serial yardstick bit for bit, so its BENCH speedups compare equal work."""
    rng = np.random.default_rng(18)
    observations = _random_observations(rng, 30, 90)
    domains = rng.integers(0, 6, 90)
    engine = ParallelTruthEngine(ParallelConfig(n_shards=n_shards, use_processes=False))
    try:
        sharded = engine.estimate_truth(observations, domains)
    finally:
        engine.close()
    frozen = reference_serial_estimate_truth(observations, domains)
    assert sharded.iterations == frozen.iterations
    assert sharded.converged == frozen.converged
    np.testing.assert_array_equal(sharded.truths, frozen.truths)
    np.testing.assert_array_equal(sharded.sigmas, frozen.sigmas)
    np.testing.assert_array_equal(sharded.expertise, frozen.expertise)


# --------------------------------------------------------------------- #
# Dynamic clustering with the grow-only cache
# --------------------------------------------------------------------- #


def _clustered_batches(rng, centers, sizes):
    return [
        np.vstack([rng.normal(centers[i % len(centers)], 0.15, size=(1, 4)) for i in range(size)])
        for size in sizes
    ]


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_dynamic_cached_matches_recomputing_reference(seed):
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    centers = np.random.default_rng(99).uniform(-8, 8, (5, 4))

    cached = DynamicHierarchicalClustering(gamma=0.5)
    reference = ReferenceDynamicHierarchicalClustering(gamma=0.5)
    for clustering, rng in ((cached, rng_a), (reference, rng_b)):
        batches = _clustered_batches(rng, centers, [40, 8, 8, 8])
        clustering.fit(batches[0])
        for batch in batches[1:]:
            clustering.add(batch)

    np.testing.assert_array_equal(cached.labels(), reference.labels())
    assert cached.domain_ids == reference.domain_ids
    assert cached.d_star == pytest.approx(reference.d_star)
    np.testing.assert_allclose(cached._cache.view(), reference._cache.view(), rtol=1e-12)


def test_dynamic_cached_matches_reference_through_domain_merge():
    """A bridging batch that merges two warm-up domains (the §4.2 k1<-k2 case)."""
    left = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2]])
    right = left + 3.0
    bridge = np.array([[3.0 * i / 6.0] * 2 for i in range(1, 6)])

    outcomes = []
    for cls in (DynamicHierarchicalClustering, ReferenceDynamicHierarchicalClustering):
        clustering = cls(gamma=0.7, refresh_d_star=True)
        clustering.fit(np.vstack([left, right]))
        result = clustering.add(bridge)
        outcomes.append((clustering, result))

    (cached, cached_result), (reference, reference_result) = outcomes
    assert cached_result.merges == reference_result.merges
    assert cached_result.new_domains == reference_result.new_domains
    np.testing.assert_array_equal(cached_result.all_labels, reference_result.all_labels)
    assert cached.d_star == pytest.approx(reference.d_star)
    assert len(cached_result.merges) >= 1  # the bridge really merged domains


def test_dynamic_refresh_d_star_tracks_reference():
    rng = np.random.default_rng(23)
    warmup = rng.normal(0.0, 1.0, (30, 4))
    far = rng.normal(12.0, 1.0, (5, 4))  # extends the longest pairwise distance
    warmup_only = DynamicHierarchicalClustering(gamma=0.5)
    warmup_only.fit(warmup)
    cached = DynamicHierarchicalClustering(gamma=0.5, refresh_d_star=True)
    reference = ReferenceDynamicHierarchicalClustering(gamma=0.5, refresh_d_star=True)
    for clustering in (cached, reference):
        clustering.fit(warmup)
        clustering.add(far)
    assert cached.d_star == pytest.approx(reference.d_star)
    assert cached.d_star > warmup_only.d_star
