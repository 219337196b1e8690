"""The nearest-neighbour cache must merge exactly like the full scan.

:class:`~repro.clustering.linkage.AverageLinkage` answers ``closest_pair``
from a per-slot cache (``_row_min`` / ``_row_arg``) that ``merge`` keeps up
to date in O(k).  The frozen oracle,
:class:`~repro.perf.reference.ReferenceAverageLinkage`, rebuilds the whole
average matrix and takes its flattened ``np.argmin`` on every call.  These
tests hold the cache to *identical* merges — same slots, same distance bits,
same members — on seeded instances built to produce ties (integer grids),
mixed initial groups (the dynamic front-end's domains plus singletons),
random thresholds, interleaved external ``closest_pair`` / ``merge`` calls
and NaN distances; and they check the cache invariant after every merge.
The end-to-end test runs a clustering ETA²-mc simulation on text survey
tasks under both implementations and compares fingerprints.
"""

import numpy as np
import pytest

from repro.clustering.linkage import AverageLinkage
from repro.perf.reference import ReferenceAverageLinkage

# Merging across opposite infinities is meant to produce NaN sums.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")

N_INSTANCES = 240


def _assert_cache_invariant(engine):
    """``_row_min``/``_row_arg`` are each row's min and first argmin."""
    avg = engine.average_distances()
    np.testing.assert_array_equal(engine._row_min, avg.min(axis=1))
    np.testing.assert_array_equal(engine._row_arg, avg.argmin(axis=1))


def _checked(engine):
    """Make every ``merge`` (also those ``merge_until`` makes) check the cache."""
    merge = engine.merge

    def checked_merge(a, b):
        kept = merge(a, b)
        _assert_cache_invariant(engine)
        return kept

    engine.merge = checked_merge
    return engine


def _bits(log):
    """A merge log with distances as exact bit patterns (NaN-safe)."""
    return [tuple(float(x).hex() if isinstance(x, float) else x for x in entry) for entry in log]


def _instance(seed):
    """A seeded (base, groups) pair; every fourth instance uses each feature."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 36))
    if seed % 2 == 0:
        # Integer grid under the L1 metric: many exactly equal distances.
        points = rng.integers(0, 4, (n, 2)).astype(float)
    else:
        points = rng.random((n, 3))
    base = np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)
    if seed % 8 == 7:
        # Opposite infinities: merging across them yields NaN sums.
        rows, cols = np.nonzero(np.triu(rng.random((n, n)) < 0.1, 1))
        signs = rng.choice([-np.inf, np.inf], rows.size)
        base[rows, cols] = signs
        base[cols, rows] = signs
    order = rng.permutation(n)
    groups = []
    if seed % 4 >= 2:
        # Existing domains (multi-point groups) ahead of the singletons.
        n_grouped = int(rng.integers(0, n + 1))
        labels = rng.integers(0, 3, n_grouped)
        grouped = order[:n_grouped]
        groups = [grouped[labels == g].tolist() for g in range(3) if np.any(labels == g)]
        order = order[n_grouped:]
    groups += [[int(i)] for i in order]
    return rng, base, groups


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_merge_until_matches_full_scan(seed):
    rng, base, groups = _instance(seed)
    finite = base[np.isfinite(base)]
    threshold = float(rng.uniform(0.0, 1.2) * finite.max()) if finite.size else 1.0
    if seed % 5 == 0:
        threshold = np.inf
    cached = _checked(AverageLinkage(base, groups))
    oracle = ReferenceAverageLinkage(base, groups)
    _assert_cache_invariant(cached)
    assert _bits(cached.merge_until(threshold)) == _bits(oracle.merge_until(threshold))
    assert cached.members() == oracle.members()


@pytest.mark.parametrize("seed", range(N_INSTANCES))
def test_interleaved_calls_match_full_scan(seed):
    """External callers mix ``closest_pair`` with merges of any live pair."""
    rng, base, groups = _instance(seed)
    cached = AverageLinkage(base, groups)
    oracle = ReferenceAverageLinkage(base, groups)
    while cached.cluster_count > 1:
        pair = cached.closest_pair()
        assert _bits([pair]) == _bits([oracle.closest_pair()])
        a, b, _ = pair
        # a == b is the full scan's answer when every distance is inf.
        if a == b or rng.random() < 0.3:
            a, b = (int(slot) for slot in rng.choice(cached.live_indices(), 2, replace=False))
        assert cached.merge(a, b) == oracle.merge(a, b)
        _assert_cache_invariant(cached)
        assert cached.members() == oracle.members()


def test_fuzz_exercises_ties_and_nan():
    """The instance mix really contains tied minima and NaN distances."""
    ties = nans = 0
    for seed in range(N_INSTANCES):
        _, base, groups = _instance(seed)
        engine = ReferenceAverageLinkage(base, groups)
        while engine.cluster_count > 1:
            avg = engine.average_distances()
            a, b, distance = engine.closest_pair()
            if a == b:
                break
            nans += np.isnan(distance)
            # A unique minimum appears twice, at (a, b) and (b, a).
            ties += int(np.count_nonzero(avg == distance)) > 2
            engine.merge(a, b)
    assert ties > 100
    assert nans > 5


# --------------------------------------------------------------------- #
# End to end: a clustering simulation fingerprints identically
# --------------------------------------------------------------------- #


def test_survey_mc_fingerprint_matches_full_scan(monkeypatch):
    """ETA²-mc on text survey tasks reclusters every day; the cached
    ``closest_pair`` must leave every day's outcome byte-identical."""
    from repro.core.pipeline import default_embedding
    from repro.datasets import survey_dataset
    from repro.simulation import SimulationConfig, run_simulation
    from repro.simulation.approaches import ETA2Approach

    dataset = survey_dataset(n_users=40, n_tasks=300, seed=2017)
    embedding = default_embedding()

    def run():
        approach = ETA2Approach(
            gamma=0.3,
            alpha=0.5,
            allocator="min-cost",
            min_cost_round_budget=60.0,
            embedding=embedding,
        )
        return run_simulation(dataset, approach, SimulationConfig(n_days=3, seed=2017))

    cached = run()
    with monkeypatch.context() as patch:
        patch.setattr(AverageLinkage, "closest_pair", ReferenceAverageLinkage.closest_pair)
        oracle = run()
    assert cached.fingerprint() == oracle.fingerprint()
    assert cached.total_cost == oracle.total_cost
