"""Discretized functional data on a shared grid, with L2 numerics.

Curves are plain 1-d numpy arrays of values observed at the grid points.
All integrals are trapezoid quadrature on the (possibly non-uniform) grid,
which is exact for piecewise-linear integrands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "FunctionalSample",
    "as_curve",
    "inner_product",
    "l2_norm",
    "center",
    "w_orthonormal_rows",
]


def _finite_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    return arr


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly ascending sample points plus positive quadrature weights.

    The weights must sum to the grid span; `from_points` builds the
    trapezoid weights, which satisfy this exactly.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _finite_array(self.points, "grid points")
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a grid needs at least two points")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        w = _finite_array(self.weights, "grid weights")
        if w.shape != pts.shape:
            raise ValueError("weights must have one entry per grid point")
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be positive")
        span = pts[-1] - pts[0]
        if abs(float(w.sum()) - span) > 1e-9 * max(span, 1.0):
            raise ValueError("quadrature weights must sum to the grid span")
        pts = pts.copy()
        w = w.copy()
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_points(cls, points) -> "Grid":
        """Grid with trapezoid weights for the given ascending points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a grid needs at least two points")
        gaps = np.diff(pts)
        w = np.zeros_like(pts)
        w[:-1] += gaps / 2.0
        w[1:] += gaps / 2.0
        return cls(pts, w)

    @classmethod
    def uniform(cls, a: float, b: float, n_points: int) -> "Grid":
        return cls.from_points(np.linspace(a, b, n_points))

    @property
    def n_points(self) -> int:
        return self.points.size

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def span(self) -> float:
        return float(self.points[-1] - self.points[0])


def as_curve(values, grid: Grid) -> np.ndarray:
    """Validate that `values` is a finite curve conforming to `grid`."""
    arr = _finite_array(values, "curve values")
    if arr.ndim != 1 or arr.size != grid.n_points:
        raise ValueError(
            f"curve has {arr.size} values, grid has {grid.n_points} points"
        )
    return arr


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """n curves sharing one grid, stored as an n-by-N matrix of values."""

    grid: Grid
    curves: np.ndarray
    ids: tuple[str, ...] = field(default=())

    def __post_init__(self):
        curves = _finite_array(self.curves, "sample curves")
        if curves.ndim != 2 or curves.shape[0] < 1:
            raise ValueError("sample must be a nonempty n-by-N matrix")
        if curves.shape[1] != self.grid.n_points:
            raise ValueError(
                f"curves have {curves.shape[1]} columns, grid has "
                f"{self.grid.n_points} points"
            )
        ids = tuple(str(i) for i in self.ids) if self.ids else tuple(
            str(i) for i in range(curves.shape[0])
        )
        if len(ids) != curves.shape[0]:
            raise ValueError("need exactly one id per curve")
        if len(set(ids)) != len(ids):
            raise ValueError("curve ids must be unique")
        curves = curves.copy()
        curves.setflags(write=False)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return self.curves.shape[0]

    def curve(self, j: int) -> np.ndarray:
        return self.curves[j]


def inner_product(u, v, grid: Grid) -> float:
    """Quadrature L2 inner product of two curves on `grid`."""
    u = as_curve(u, grid)
    v = as_curve(v, grid)
    return float(np.sum(grid.weights * u * v))


def l2_norm(u, grid: Grid) -> float:
    """Quadrature L2 norm of a curve on `grid`."""
    u = as_curve(u, grid)
    return float(np.sqrt(np.sum(grid.weights * u * u)))


def center(sample: FunctionalSample) -> tuple[FunctionalSample, np.ndarray]:
    """Subtract the pointwise mean curve; returns (centered sample, mean)."""
    mean = sample.curves.mean(axis=0)
    centered = FunctionalSample(sample.grid, sample.curves - mean, sample.ids)
    return centered, mean


def w_orthonormal_rows(candidates, w: np.ndarray, basis=()):
    """Yield the candidate rows Gram-Schmidt orthonormalised under weights w.

    Each is made orthogonal to `basis` and the rows already yielded, with
    one re-pass for stability; one left with norm <= 1e-10 is skipped.
    """
    rows = list(basis)
    for candidate in candidates:
        v = np.array(candidate, dtype=float)
        for _ in range(2):
            for u in rows:
                v = v - np.sum(w * u * v) * u
        nrm = np.sqrt(np.sum(w * v * v))
        if nrm > 1e-10:
            rows.append(v / nrm)
            yield rows[-1]
