"""Average-linkage agglomerative merging over a fixed base distance matrix.

The paper defines cluster distance as the *average* pairwise distance between
the tasks of two clusters (§3.3.1).  Averages are awkward to update under
merging, but summed distances are exact and trivial::

    sum(A u B, C) = sum(A, C) + sum(B, C)
    avg(A, C)     = sum(A, C) / (|A| * |C|)

:class:`AverageLinkage` therefore maintains the cluster-to-cluster *sum*
matrix and the cluster sizes, exposing merge steps to both the static and the
dynamic clustering front-ends.

It also caches each slot's nearest neighbour: ``row_min[i]`` is the smallest
average distance in row ``i`` of :meth:`AverageLinkage.average_distances` and
``row_arg[i]`` the first column holding it (dead slots and the diagonal are
inf).  :meth:`~AverageLinkage.closest_pair` is then an O(k) ``argmin`` over
``row_min`` instead of an O(k²) rescan of the full average matrix, and a
merge refreshes the cache in O(k): row ``a`` is rescanned, as is every row
whose nearest neighbour was ``a`` or ``b``; every other row only compares its
cached minimum with its new entry at ``a``.  The first row holding the
global minimum, and that row's first column holding it, is exactly the
position ``np.argmin`` finds on the row-major flattened matrix, so merges are
identical to the full scan, ties and NaN included (the frozen full-scan copy
is :class:`repro.perf.reference.ReferenceAverageLinkage`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["AverageLinkage"]

#: Above this size, symmetry is validated on a deterministic random sample
#: instead of every entry (an O(n²) scan of a 2000², mostly-cached matrix is
#: still cheap; beyond that the scan itself becomes a per-construction tax).
_SYMMETRY_EXHAUSTIVE_LIMIT = 2048

#: Sample size for the probabilistic symmetry check on large matrices.
_SYMMETRY_SAMPLES = 4096


def _require_symmetric(base: np.ndarray) -> None:
    """Validate symmetry without materialising a transposed copy.

    Small matrices are checked exhaustively in column blocks (bounded
    temporaries instead of ``np.allclose(base, base.T)``'s full-size ones);
    large matrices are checked on a fixed deterministic sample of entry
    pairs, which catches any non-adversarial asymmetry with near-certainty
    at O(1) cost.
    """
    n = base.shape[0]
    if n <= 1:
        return
    if n <= _SYMMETRY_EXHAUSTIVE_LIMIT:
        step = max(1, (1 << 16) // n)
        for start in range(0, n, step):
            stop = min(start + step, n)
            block, mirror = base[start:stop, :], base[:, start:stop].T
            # Exact equality implies allclose and NaN fails both, so the
            # cheap test first changes no verdict.
            if not np.array_equal(block, mirror) and not np.allclose(block, mirror):
                raise ValueError("base distance matrix must be symmetric")
        return
    rng = np.random.default_rng(0xE7A2)
    rows = rng.integers(0, n, _SYMMETRY_SAMPLES)
    cols = rng.integers(0, n, _SYMMETRY_SAMPLES)
    if not np.allclose(base[rows, cols], base[cols, rows]):
        raise ValueError("base distance matrix must be symmetric")


def _aggregate_group_sums(base: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Cluster-to-cluster summed distances via label aggregation.

    Equivalent to the quadratic Python loop over group pairs: fold rows by
    group, then columns, using ``np.add.reduceat`` over a stable
    group-sorted permutation — two O(n²) vectorised passes total.  The
    diagonal holds each group's *internal* sum (each unordered pair once).
    """
    if k == 0 or labels.size == 0:
        return np.zeros((k, k), dtype=float)
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=k)
    # reduceat cannot represent empty segments (it would return the next
    # group's first row instead of a zero sum), so aggregate the non-empty
    # groups and scatter into the full k x k layout; empty groups keep the
    # all-zero rows the reference loop produced.
    nonempty = np.flatnonzero(counts)
    starts = np.zeros(nonempty.size, dtype=int)
    np.cumsum(counts[nonempty][:-1], out=starts[1:])
    row_sums = np.add.reduceat(base[order], starts, axis=0)
    compact = np.add.reduceat(row_sums[:, order], starts, axis=1)
    if nonempty.size == k:
        sums = np.ascontiguousarray(compact, dtype=float)
    else:
        sums = np.zeros((k, k), dtype=float)
        sums[np.ix_(nonempty, nonempty)] = compact
    # Diagonal blocks were summed over ordered pairs (plus the zero or
    # symmetric diagonal); halve to count each unordered pair once.
    diagonal = np.einsum("ii->i", sums)
    diagonal *= 0.5
    return sums


class AverageLinkage:
    """Mutable average-linkage state over ``n`` initial clusters.

    Parameters
    ----------
    base:
        Symmetric ``(n_points, n_points)`` matrix of point-to-point distances.
    groups:
        Initial clusters as sequences of point indices.  Every point must
        appear in exactly one group.
    """

    def __init__(self, base: np.ndarray, groups: Sequence[Sequence[int]]):
        base = np.asarray(base, dtype=float)
        if base.ndim != 2 or base.shape[0] != base.shape[1]:
            raise ValueError("base must be a square matrix")
        _require_symmetric(base)
        n_points = base.shape[0]

        self._members: list = [list(group) for group in groups]
        k = len(self._members)
        flat = np.fromiter(
            (index for group in self._members for index in group),
            dtype=np.int64,
        )
        labels = np.full(n_points, -1, dtype=np.int64)
        valid = flat.size == n_points and (
            flat.size == 0 or (flat.min() >= 0 and flat.max() < n_points)
        )
        if valid:
            group_of = np.repeat(
                np.arange(k), [len(group) for group in self._members]
            )
            labels[flat] = group_of
            valid = bool(np.all(labels >= 0))
        if not valid:
            raise ValueError("groups must partition the point indices exactly")

        self._sizes = np.array([len(group) for group in self._members], dtype=float)
        if k == n_points and n_points > 0 and self._sizes.max() == 1.0:
            # All-singleton start (the static front-end's common case): the
            # group sums are just the base matrix reordered, diagonal halved.
            sums = base[np.ix_(flat, flat)].astype(float, copy=True)
            np.einsum("ii->i", sums)[...] *= 0.5
        else:
            sums = _aggregate_group_sums(base, labels, k)
        self._sums = sums
        self._alive = np.ones(k, dtype=bool)
        self._row_min = np.full(k, np.inf)
        self._row_arg = np.zeros(k, dtype=np.int64)
        if k:
            self._rescan_rows(np.arange(k))

    @property
    def cluster_count(self) -> int:
        return int(self._alive.sum())

    def members(self) -> list:
        """Point indices of each live cluster (copy)."""
        return [list(self._members[i]) for i in np.flatnonzero(self._alive)]

    def live_indices(self) -> np.ndarray:
        """Internal slot indices of the live clusters."""
        return np.flatnonzero(self._alive)

    def members_of(self, slot: int) -> list:
        if not self._alive[slot]:
            raise ValueError(f"cluster slot {slot} is not alive")
        return list(self._members[slot])

    def average_distances(self) -> np.ndarray:
        """Average-linkage distance matrix over live slots (inf diagonal).

        Indexed by internal slot; dead slots are fully inf so that argmin
        scans stay valid without compaction.
        """
        sizes = self._sizes
        with np.errstate(divide="ignore", invalid="ignore"):
            avg = self._sums / np.outer(sizes, sizes)
        dead = ~self._alive
        avg[dead, :] = np.inf
        avg[:, dead] = np.inf
        np.fill_diagonal(avg, np.inf)
        return avg

    def closest_pair(self) -> "tuple[int, int, float]":
        """Slots of the two closest live clusters and their average distance."""
        if self.cluster_count < 2:
            raise ValueError("need at least two live clusters")
        a = int(np.argmin(self._row_min))
        b = int(self._row_arg[a])
        return (min(a, b), max(a, b), float(self._row_min[a]))

    def merge(self, a: int, b: int) -> int:
        """Merge slot ``b`` into slot ``a``; returns the surviving slot."""
        if a == b:
            raise ValueError("cannot merge a cluster with itself")
        if not (self._alive[a] and self._alive[b]):
            raise ValueError("both clusters must be alive")
        # Internal sum of the union: both internal sums plus the cross sum.
        new_internal = self._sums[a, a] + self._sums[b, b] + self._sums[a, b]
        cross = self._sums[a, :] + self._sums[b, :]
        self._sums[a, :] = cross
        self._sums[:, a] = cross
        self._sums[a, a] = new_internal
        self._alive[b] = False
        self._sums[b, :] = 0.0
        self._sums[:, b] = 0.0
        self._sizes[a] = self._sizes[a] + self._sizes[b]
        self._sizes[b] = 0.0
        self._members[a].extend(self._members[b])
        self._members[b] = []
        self._update_cache(a, b)
        return a

    def _rescan_rows(self, rows: np.ndarray) -> None:
        """Recompute the nearest-neighbour cache of live ``rows`` in full."""
        sizes = self._sizes
        block = self._sums[rows, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            block /= np.multiply.outer(sizes[rows], sizes)
        block[:, ~self._alive] = np.inf
        positions = np.arange(rows.size)
        block[positions, rows] = np.inf
        nearest = np.argmin(block, axis=1)
        self._row_arg[rows] = nearest
        self._row_min[rows] = block[positions, nearest]

    def _update_cache(self, a: int, b: int) -> None:
        """Refresh the cache after slot ``b`` was merged into slot ``a``."""
        row_min, row_arg = self._row_min, self._row_arg
        row_min[b] = np.inf  # a dead row is all inf: first argmin 0
        row_arg[b] = 0
        live = self._alive.copy()
        live[a] = False
        stale = live & ((row_arg == a) | (row_arg == b))
        self._rescan_rows(np.append(np.flatnonzero(stale), a))
        # Every other live row changed only at column ``a``: keep the cached
        # (value, first column) minimum unless the new entry beats it, with
        # NaN ranking first as it does for ``np.argmin``.
        rows = np.flatnonzero(live & ~stale)
        values = self._sums[rows, a] / (self._sizes[rows] * self._sizes[a])
        current, first = row_min[rows], row_arg[rows]
        earlier = a < first
        take = (values < current) | ((values == current) & earlier)
        take |= np.isnan(values) & ~(np.isnan(current) & ~earlier)
        row_min[rows[take]] = values[take]
        row_arg[rows[take]] = a

    def merge_until(self, threshold: float) -> list:
        """Repeatedly merge the closest pair while its distance < ``threshold``.

        Returns the merge log as ``(kept_slot, absorbed_slot, distance)``
        tuples, in merge order — the §3.3.1 loop with the §3.3.1 termination
        criterion (stop when the closest pair is at or beyond the minimum
        allowed distance).
        """
        log: list = []
        while self.cluster_count > 1:
            a, b, distance = self.closest_pair()
            if not distance < threshold:
                break
            kept = self.merge(a, b)
            absorbed = b if kept == a else a
            log.append((kept, absorbed, distance))
        return log
