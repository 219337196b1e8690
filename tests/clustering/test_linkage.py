"""Tests for the average-linkage engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.linkage import AverageLinkage


def _distance_matrix(points):
    points = np.asarray(points, dtype=float)
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def _brute_average(base, group_a, group_b):
    return float(np.mean([[base[i, j] for j in group_b] for i in group_a]))


def test_initial_average_distances_match_brute_force():
    rng = np.random.default_rng(0)
    base = _distance_matrix(rng.random((6, 2)))
    groups = [[0, 1], [2], [3, 4, 5]]
    engine = AverageLinkage(base, groups)
    avg = engine.average_distances()
    live = engine.live_indices()
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            expected = _brute_average(base, groups[a], groups[b])
            assert avg[live[a], live[b]] == pytest.approx(expected)


def test_merge_keeps_averages_exact():
    rng = np.random.default_rng(1)
    base = _distance_matrix(rng.random((7, 2)))
    engine = AverageLinkage(base, [[i] for i in range(7)])
    engine.merge(0, 1)
    engine.merge(2, 3)
    avg = engine.average_distances()
    assert avg[0, 2] == pytest.approx(_brute_average(base, [0, 1], [2, 3]))
    assert avg[0, 4] == pytest.approx(_brute_average(base, [0, 1], [4]))


def test_merge_until_threshold_stops_correctly():
    # Two tight pairs far apart: threshold between gaps merges pairs only.
    base = np.array(
        [
            [0.0, 1.0, 10.0, 10.0],
            [1.0, 0.0, 10.0, 10.0],
            [10.0, 10.0, 0.0, 1.0],
            [10.0, 10.0, 1.0, 0.0],
        ]
    )
    engine = AverageLinkage(base, [[0], [1], [2], [3]])
    log = engine.merge_until(5.0)
    assert len(log) == 2
    assert engine.cluster_count == 2
    members = sorted(tuple(sorted(m)) for m in engine.members())
    assert members == [(0, 1), (2, 3)]


def test_merge_until_zero_threshold_is_noop():
    base = np.ones((3, 3)) - np.eye(3)
    engine = AverageLinkage(base, [[0], [1], [2]])
    assert engine.merge_until(0.0) == []
    assert engine.cluster_count == 3


def test_closest_pair_requires_two_clusters():
    engine = AverageLinkage(np.zeros((2, 2)), [[0, 1]])
    with pytest.raises(ValueError):
        engine.closest_pair()


def test_merge_validation():
    base = np.ones((3, 3)) - np.eye(3)
    engine = AverageLinkage(base, [[0], [1], [2]])
    with pytest.raises(ValueError):
        engine.merge(0, 0)
    engine.merge(0, 1)
    with pytest.raises(ValueError):
        engine.merge(0, 1)  # 1 is dead


def test_groups_must_partition_points():
    base = np.zeros((3, 3))
    with pytest.raises(ValueError):
        AverageLinkage(base, [[0], [1]])
    with pytest.raises(ValueError):
        AverageLinkage(base, [[0], [1], [1], [2]])


def test_asymmetric_base_rejected():
    base = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        AverageLinkage(base, [[0], [1]])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_full_merge_chain_matches_brute_force(n_points, seed):
    """After any number of merges, every cluster-pair average is exact."""
    rng = np.random.default_rng(seed)
    base = _distance_matrix(rng.random((n_points, 2)))
    engine = AverageLinkage(base, [[i] for i in range(n_points)])
    while engine.cluster_count > 2:
        a, b, _ = engine.closest_pair()
        engine.merge(a, b)
    members = engine.members()
    avg = engine.average_distances()
    live = engine.live_indices()
    expected = _brute_average(base, members[0], members[1])
    assert avg[live[0], live[1]] == pytest.approx(expected)


def test_asymmetry_within_tolerance_accepted():
    base = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
    assert AverageLinkage(base, [[0], [1]]).cluster_count == 2


def test_asymmetry_beyond_tolerance_rejected():
    base = np.array([[0.0, 1.0], [1.0 + 1e-3, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        AverageLinkage(base, [[0], [1]])


def test_nan_distance_rejected():
    base = np.array([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        AverageLinkage(base, [[0], [1]])


@pytest.mark.parametrize("scale", [0.0, 1e-14, 1e-9, 1e-7, 1e-3])
def test_symmetry_verdict_matches_allclose(scale):
    """The exact-equality shortcut accepts exactly what allclose accepts."""
    rng = np.random.default_rng(11)
    base = _distance_matrix(rng.random((300, 2)))
    base += np.triu(rng.random(base.shape) * scale, 1)
    if np.allclose(base, base.T):
        AverageLinkage(base, [[i] for i in range(300)])
    else:
        with pytest.raises(ValueError, match="symmetric"):
            AverageLinkage(base, [[i] for i in range(300)])
