"""Blinded curves: r-nearest-neighbor conditional-expectation estimates.

Given a subset I of feature columns, each curve is replaced by the mean of
the r curves whose feature vectors (restricted to I) are closest in
Euclidean distance. The query curve itself is always one of its own
neighbors, so r=1 blinding is the identity.

`neighbor_sets` builds the n-by-r neighbor table: `blind_sample` averages
curves over it, the subset search averages procedure outputs over it
(both through `neighbor_means`).

Cost: O(n^2 k) time per subset of k features, O(n r + _BLOCK) memory.
Query rows are taken a block at a time; `_nearest` selects each row's r
nearest by partition, without sorting the row. Ties: the query itself
comes first, then rows by distance, equal distances by smaller index.
Squared distances are summed by `einsum` over contiguous difference rows,
because its summation order for k >= 3 follows the SIMD width and so
differs from a column-by-column sum (and from the Gram-matrix form) in
the last bit, which can reorder near-ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fdata import FunctionalSample
from .features import FeatureMatrix

__all__ = [
    "SubsetIndex",
    "BlindedSample",
    "knn_indices",
    "neighbor_sets",
    "neighbor_means",
    "blind_sample",
]

_BLOCK = 1 << 15  # distance or gathered entries held per block of rows


@dataclass(frozen=True, order=True)
class SubsetIndex:
    """A sorted, duplicate-free set of feature-column indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ValueError("subset must contain at least one feature index")
        if any(i < 0 for i in idx):
            raise ValueError("feature indices must be nonnegative")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError("feature indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, indices: Iterable[int]) -> "SubsetIndex":
        """Build from any iterable of distinct indices, sorting them."""
        return cls(tuple(sorted(int(i) for i in indices)))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self.indices


@dataclass(frozen=True, eq=False)
class BlindedSample:
    """Blinded curves plus the neighbor bookkeeping that produced them."""

    curves: np.ndarray
    subset: SubsetIndex
    r: int
    neighbor_sets: np.ndarray


def _check_query(fm: FeatureMatrix, subset: SubsetIndex, r: int) -> None:
    if not 1 <= r <= fm.n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={fm.n}")
    if subset.indices[-1] >= fm.p:
        raise ValueError(
            f"subset {subset.indices} references columns beyond p={fm.p}"
        )


def _nearest(d2: np.ndarray, r: int) -> np.ndarray:
    """Columns of each row's r smallest entries, in (value, column) order.

    Exact selection without a full sort: the r-th value `cut` of each row
    comes from a partition, every entry below it is kept, and the entries
    equal to it fill the remaining places in column order.
    """
    rows = d2.shape[0]
    cut = np.partition(d2, r - 1, axis=1)[:, r - 1 : r]
    below = d2 < cut
    tied = d2 == cut
    room = r - below.sum(axis=1, keepdims=True)
    keep = below | (tied & (np.cumsum(tied, axis=1) <= room))
    cols = np.nonzero(keep)[1].reshape(rows, r)
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _query_dists(features: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Squared distances from each query row to every row, self set to -1.

    The sums run through the same einsum kernel on the same (rows, k)
    layout for any block size, so a row's distances do not depend on it.
    """
    n, k = features.shape
    diff = (features[None, :, :] - features[queries, None, :]).reshape(-1, k)
    d2 = np.einsum("ij,ij->i", diff, diff).reshape(queries.size, n)
    d2[np.arange(queries.size), queries] = -1.0
    return d2


def knn_indices(
    fm: FeatureMatrix, subset: SubsetIndex, j: int, r: int
) -> np.ndarray:
    """Indices of the r nearest sample rows to row j in feature subspace I.

    Distances are Euclidean on the selected columns; the query row itself
    sits at distance zero and is always returned first. Remaining ties are
    broken toward the smaller index.
    """
    _check_query(fm, subset, r)
    if not 0 <= j < fm.n:
        raise ValueError(f"row index {j} outside sample of size {fm.n}")
    features = np.ascontiguousarray(fm.values[:, subset.indices])
    return _nearest(_query_dists(features, np.array([j])), r)[0]


def neighbor_sets(fm: FeatureMatrix, subset: SubsetIndex, r: int) -> np.ndarray:
    """n-by-r table whose row j is knn_indices(fm, subset, j, r).

    Query rows are processed in blocks of about _BLOCK distance entries,
    so the work is O(n^2 k) per subset and the memory O(n r + _BLOCK).
    """
    _check_query(fm, subset, r)
    features = np.ascontiguousarray(fm.values[:, subset.indices])
    n, k = features.shape
    step = max(1, _BLOCK // (n * k))
    table = np.empty((n, r), dtype=np.intp)
    for start in range(0, n, step):
        queries = np.arange(start, min(start + step, n))
        table[start : start + step] = _nearest(_query_dists(features, queries), r)
    return table


def neighbor_means(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """values[table].mean(axis=1), gathered a block of rows at a time.

    Each row is averaged over the same r axis in the same layout as the
    whole gather, so the result is bit-identical to it, while the n*r*m
    gather is never held at once.
    """
    n, r = table.shape
    step = max(1, _BLOCK // max(1, r * values[:1].size))
    out = np.empty((n,) + values.shape[1:])
    for start in range(0, n, step):
        out[start : start + step] = values[table[start : start + step]].mean(axis=1)
    return out


def blind_sample(
    sample: FunctionalSample, fm: FeatureMatrix, subset: SubsetIndex, r: int
) -> BlindedSample:
    """Replace each curve by the pointwise mean of its r feature-neighbors."""
    if fm.n != sample.n:
        raise ValueError("feature matrix and sample disagree on n")
    table = neighbor_sets(fm, subset, r)
    return BlindedSample(neighbor_means(sample.curves, table), subset, r, table)
