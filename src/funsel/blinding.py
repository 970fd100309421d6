"""Blinded curves: r-nearest-neighbor conditional-expectation estimates.

Given a subset I of feature columns, each curve is replaced by the mean of
the r curves whose feature vectors (restricted to I) are closest in
Euclidean distance. The query curve itself is always one of its own
neighbors, so r=1 blinding is the identity.

`neighbor_sets` builds the n-by-r neighbor table: `blind_sample` averages
curves over it, the subset search averages procedure outputs over it.
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
    "blind_sample",
]


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


def _neighbor_order(features: np.ndarray, j: int) -> np.ndarray:
    """Row order by (distance to row j, self first, smaller index)."""
    diff = features - features[j]
    d2 = np.einsum("ij,ij->i", diff, diff)
    n = d2.size
    idx = np.arange(n)
    return np.lexsort((idx, idx != j, d2))


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
    features = fm.values[:, subset.indices]
    return _neighbor_order(features, j)[:r]


def neighbor_sets(fm: FeatureMatrix, subset: SubsetIndex, r: int) -> np.ndarray:
    """n-by-r table whose row j is knn_indices(fm, subset, j, r)."""
    _check_query(fm, subset, r)
    features = np.ascontiguousarray(fm.values[:, subset.indices])
    table = np.empty((fm.n, r), dtype=np.intp)
    for j in range(fm.n):
        table[j] = _neighbor_order(features, j)[:r]
    return table


def blind_sample(
    sample: FunctionalSample, fm: FeatureMatrix, subset: SubsetIndex, r: int
) -> BlindedSample:
    """Replace each curve by the pointwise mean of its r feature-neighbors."""
    if fm.n != sample.n:
        raise ValueError("feature matrix and sample disagree on n")
    table = neighbor_sets(fm, subset, r)
    return BlindedSample(sample.curves[table].mean(axis=1), subset, r, table)
