"""Statistical procedures whose outputs drive subset scoring.

Functional PCA on the quadrature-weighted covariance operator, linear
regression with scalar or functional response built on truncated FPCA
expansions, and plug-in L2 classifiers (nearest centroid, k-NN).

Every fitted model is immutable; scoring, prediction and classification
are pure functions of the model and the query curves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .blinding import _nearest
from .fdata import FunctionalSample, Grid, as_curve, center, w_orthonormal_rows

__all__ = [
    "FpcaModel",
    "ScalarRegModel",
    "FunRegModel",
    "ClassifierModel",
    "fit_fpca",
    "fpca_scores",
    "fpca_scores_matrix",
    "components_for_variance",
    "fit_scalar_regression",
    "predict_scalar",
    "fit_functional_regression",
    "predict_functional",
    "fit_classifier",
    "classify",
    "classify_batch",
]

_RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FpcaModel:
    """Mean curve plus the leading eigenpairs of the sample covariance.

    Eigenfunctions are orthonormal in the quadrature inner product and
    eigenvalues are in descending order. `total_variance` is the trace of
    the covariance operator, used when truncating by explained variance.
    """

    grid: Grid
    mean: np.ndarray
    eigenfunctions: np.ndarray
    eigenvalues: np.ndarray
    total_variance: float

    @property
    def n_components(self) -> int:
        return self.eigenvalues.size


def _fix_signs(eigenfunctions: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude coordinate is positive."""
    out = eigenfunctions.copy()
    for k in range(out.shape[0]):
        i = int(np.argmax(np.abs(out[k])))
        if out[k, i] < 0:
            out[k] = -out[k]
    return out


def fit_fpca(sample: FunctionalSample, l: int) -> FpcaModel:
    """Leading `l` eigenpairs of the empirical covariance operator.

    The covariance matrix of the centered curves is paired with the
    quadrature weights W, i.e. the eigenproblem is C W a = lambda a with
    eigenfunctions normalized so that a' W a = 1. When n < N the problem
    is solved in its n-by-n dual form on the weighted Gram matrix,
    otherwise in the N-by-N primal form; both give the same spectrum.
    """
    n, n_pts = sample.curves.shape
    if not 1 <= l <= min(n, n_pts):
        raise ValueError(f"need 1 <= l <= min(n, N) = {min(n, n_pts)}, got {l}")
    centered, mean = center(sample)
    xc = centered.curves
    w = sample.grid.weights
    total_variance = float(((xc * xc) @ w).sum() / n)

    if n < n_pts:
        gram = (xc * w) @ xc.T / n
        vals, vecs = np.linalg.eigh(gram)
        vals = vals[::-1][:l]
        vecs = vecs[:, ::-1][:, :l]
        lam_floor = max(vals[0] if vals.size else 0.0, 1.0) * _RANK_TOL
        funcs = np.zeros((l, n_pts))
        positive = 0
        for k in range(l):
            if vals[k] > lam_floor:
                funcs[k] = xc.T @ vecs[:, k] / np.sqrt(n * vals[k])
                positive = k + 1
        if positive < l:
            rows = w_orthonormal_rows(np.eye(n_pts), w, funcs[:positive])
            added = list(islice(rows, l - positive))
            if len(added) < l - positive:
                raise np.linalg.LinAlgError("cannot complete orthonormal eigenbasis")
            funcs[positive:] = added
            vals[positive:] = 0.0
    else:
        cov = xc.T @ xc / n
        sw = np.sqrt(w)
        sym = sw[:, None] * cov * sw[None, :]
        vals, vecs = np.linalg.eigh(sym)
        vals = vals[::-1][:l]
        funcs = (vecs[:, ::-1][:, :l] / sw[:, None]).T

    eigenvalues = np.clip(vals, 0.0, None)
    eigenfunctions = _fix_signs(funcs)
    return FpcaModel(sample.grid, mean, eigenfunctions, eigenvalues, total_variance)


def fpca_scores_matrix(model: FpcaModel, curves: np.ndarray) -> np.ndarray:
    """Component scores for each row of an n-by-N curve matrix."""
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    if curves.shape[1] != model.grid.n_points:
        raise ValueError("curves do not conform to the model grid")
    proj = model.grid.weights[:, None] * model.eigenfunctions.T
    return (curves - model.mean) @ proj


def fpca_scores(model: FpcaModel, x) -> np.ndarray:
    """Scores of one curve: <a_k, x - mean> for each component."""
    x = as_curve(x, model.grid)
    return fpca_scores_matrix(model, x[None, :])[0]


def components_for_variance(eigenvalues: np.ndarray, fraction: float = 0.99) -> int:
    """Smallest K whose leading eigenvalues explain `fraction` of the total."""
    total = float(np.sum(eigenvalues))
    if total <= 0.0:
        return 1
    cum = np.cumsum(eigenvalues) / total
    return int(np.searchsorted(cum, fraction - 1e-12) + 1)


@dataclass(frozen=True, eq=False)
class ScalarRegModel:
    """Scalar-on-function linear model: y ~ intercept + <beta, x - mean>."""

    grid: Grid
    mean: np.ndarray
    beta: np.ndarray
    intercept: float
    n_components: int


def fit_scalar_regression(
    x: FunctionalSample,
    y,
    n_components: int | None = None,
    variance_fraction: float = 0.99,
) -> ScalarRegModel:
    """Least-squares coefficient curve via a truncated FPCA expansion.

    beta = sum_k cov(U_k, y) / lambda_k * a_k over the leading K
    components. Components with eigenvalue below 1e-12 of the largest are
    dropped with a warning. When `n_components` is None, K is the smallest
    count explaining `variance_fraction` of the variance.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (x.n,):
        raise ValueError(f"need one response per curve, got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("responses must be finite")
    full = fit_fpca(x, min(x.n, x.grid.n_points))
    k = n_components if n_components is not None else components_for_variance(
        full.eigenvalues, variance_fraction
    )
    if not 1 <= k < x.n:
        raise ValueError(f"need 1 <= n_components < n, got {k} with n={x.n}")
    if k > full.n_components:
        raise ValueError(f"n_components={k} exceeds available rank {full.n_components}")

    scores = fpca_scores_matrix(full, x.curves)[:, :k]
    lam = full.eigenvalues[:k]
    intercept = float(y.mean())
    cov = scores.T @ (y - intercept) / x.n

    lam_floor = max(float(lam[0]) if lam.size else 0.0, 0.0) * _RANK_TOL
    keep = lam > lam_floor
    if not np.all(keep):
        warnings.warn(
            f"dropping {int((~keep).sum())} rank-deficient component(s) "
            "from the regression expansion",
            stacklevel=2,
        )
    beta = np.zeros(x.grid.n_points)
    if np.any(keep):
        beta = (cov[keep] / lam[keep]) @ full.eigenfunctions[:k][keep]
    return ScalarRegModel(x.grid, full.mean, beta, intercept, k)


def predict_scalar(model: ScalarRegModel, curves: np.ndarray) -> np.ndarray:
    """Predicted responses for each row of an n-by-N curve matrix."""
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    proj = model.grid.weights * model.beta
    return model.intercept + (curves - model.mean) @ proj


@dataclass(frozen=True, eq=False)
class FunRegModel:
    """Function-on-function linear model with an FPCA-factored kernel.

    beta(t, s) = sum_{j,j'} cross_cov[j,j'] / lambda_x[j]
                 * a_xj(t) * a_yj'(s).
    """

    x_grid: Grid
    y_grid: Grid
    x_mean: np.ndarray
    y_mean: np.ndarray
    beta_surface: np.ndarray
    cross_cov: np.ndarray
    x_basis: FpcaModel
    y_basis: FpcaModel

    @property
    def truncations(self) -> tuple[int, int]:
        return self.x_basis.n_components, self.y_basis.n_components


def _truncate_fpca(model: FpcaModel, k: int) -> FpcaModel:
    return FpcaModel(
        model.grid,
        model.mean,
        model.eigenfunctions[:k],
        model.eigenvalues[:k],
        model.total_variance,
    )


def fit_functional_regression(
    x: FunctionalSample,
    y: FunctionalSample,
    n_x_components: int | None = None,
    n_y_components: int | None = None,
    variance_fraction: float = 0.99,
) -> FunRegModel:
    """Cross-covariance regression of a functional response on curves.

    The response may live on its own grid. Truncation orders default to
    the smallest counts explaining `variance_fraction` of each sample's
    variance.
    """
    if y.n != x.n:
        raise ValueError("x and y samples must be paired (same n)")
    x_full = fit_fpca(x, min(x.n, x.grid.n_points))
    y_full = fit_fpca(y, min(y.n, y.grid.n_points))
    j = n_x_components if n_x_components is not None else components_for_variance(
        x_full.eigenvalues, variance_fraction
    )
    jp = n_y_components if n_y_components is not None else components_for_variance(
        y_full.eigenvalues, variance_fraction
    )
    if not 1 <= j <= x_full.n_components:
        raise ValueError(f"invalid x truncation {j}")
    if not 1 <= jp <= y_full.n_components:
        raise ValueError(f"invalid y truncation {jp}")

    x_basis = _truncate_fpca(x_full, j)
    y_basis = _truncate_fpca(y_full, jp)
    xi_x = fpca_scores_matrix(x_basis, x.curves)
    xi_y = fpca_scores_matrix(y_basis, y.curves)
    cross = xi_x.T @ xi_y / x.n

    lam = x_basis.eigenvalues
    lam_floor = max(float(lam[0]) if lam.size else 0.0, 0.0) * _RANK_TOL
    keep = lam > lam_floor
    if not np.all(keep):
        warnings.warn(
            f"dropping {int((~keep).sum())} rank-deficient x-component(s) "
            "from the regression kernel",
            stacklevel=2,
        )
    coeff = np.zeros_like(cross)
    coeff[keep] = cross[keep] / lam[keep, None]
    beta_surface = x_basis.eigenfunctions.T @ coeff @ y_basis.eigenfunctions
    return FunRegModel(
        x.grid, y.grid, x_basis.mean, y_basis.mean,
        beta_surface, cross, x_basis, y_basis,
    )


def predict_functional(model: FunRegModel, curves: np.ndarray) -> np.ndarray:
    """Predicted response curves (rows) for an n-by-Nx curve matrix."""
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    integ = (curves - model.x_mean) * model.x_grid.weights
    return model.y_mean + integ @ model.beta_surface


@dataclass(frozen=True, eq=False)
class ClassifierModel:
    """Plug-in L2 classifier over curve space.

    kind "nearest_centroid" assigns the class with the closest mean curve;
    kind "knn" takes a majority vote among the k nearest training curves.
    Ties go to the smallest class label.
    """

    grid: Grid
    kind: str
    k: int
    train_curves: np.ndarray
    train_labels: np.ndarray
    classes: np.ndarray
    centroids: np.ndarray | None

    @property
    def n_classes(self) -> int:
        return self.classes.size


def fit_classifier(
    sample: FunctionalSample, labels, kind: str = "nearest_centroid", k: int = 3
) -> ClassifierModel:
    """Freeze a classifier on the training sample."""
    labels = np.asarray(labels)
    if labels.shape != (sample.n,):
        raise ValueError("need one label per curve")
    labels = labels.astype(int)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("classification needs at least two classes")
    if kind not in ("nearest_centroid", "knn"):
        raise ValueError(f"unknown classifier kind {kind!r}")
    centroids = None
    if kind == "nearest_centroid":
        centroids = np.array([sample.curves[labels == c].mean(axis=0) for c in classes])
    else:
        if not 1 <= k <= sample.n:
            raise ValueError(f"need 1 <= k <= n, got k={k}")
    return ClassifierModel(
        sample.grid, kind, k, sample.curves, labels, classes, centroids
    )


def _sq_dists_to(model_curves: np.ndarray, curves: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted squared L2 distances, queries in rows, references in columns."""
    out = np.empty((curves.shape[0], model_curves.shape[0]))
    for i, ref in enumerate(model_curves):
        diff = curves - ref
        out[:, i] = (diff * diff) @ w
    return out


def classify_batch(model: ClassifierModel, curves: np.ndarray) -> np.ndarray:
    """Class labels for each row of an n-by-N curve matrix."""
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    if curves.shape[1] != model.grid.n_points:
        raise ValueError("curves do not conform to the model grid")
    w = model.grid.weights
    if model.kind == "nearest_centroid":
        d2 = _sq_dists_to(model.centroids, curves, w)
        return model.classes[np.argmin(d2, axis=1)]
    d2 = _sq_dists_to(model.train_curves, curves, w)
    votes = model.train_labels[_nearest(d2, model.k)]
    counts = (votes[:, :, None] == model.classes).sum(axis=1)
    return model.classes[np.argmax(counts, axis=1)]


def classify(model: ClassifierModel, x) -> int:
    """Class label of a single curve."""
    x = as_curve(x, model.grid)
    return int(classify_batch(model, x[None, :])[0])
