"""Ground-truth machinery for validating the selection pipeline.

Synthetic Gaussian processes with a finite Karhunen-Loeve expansion admit
closed forms for the blinded process (the conditional expectation of the
signal given linear features) and for the population objectives. This
module provides those, plus brute-force subset enumeration, a greedy
forward-selection reference, and a consistency harness that tabulates the
gap between the empirical and population objectives as n grows, scoring
each sample through the subset search's own evaluator.

The closed forms treat the model's noise as entering the feature channel
independently of the signal, so a feature orthogonal to the basis carries
no information and blinds exactly to the mean curve.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .blinding import SubsetIndex
from .fdata import FunctionalSample, Grid, w_orthonormal_rows
from .features import FeatureSpec, build_feature_matrix, weight_curve
from .objectives import DegenerateObjectiveError, Objective, ObjectiveValue
from .search import make_evaluator, scored_subsets
from .statproc import (
    fit_fpca,
    fit_functional_regression,
    fit_scalar_regression,
)

__all__ = [
    "KlModel",
    "PcaTask",
    "ScalarRegTask",
    "FunRegTask",
    "PopulationObjective",
    "ConsistencyRow",
    "fourier_basis",
    "simulate",
    "closed_form_blind",
    "population_h",
    "enumerate_all",
    "greedy_forward",
    "default_r_rule",
    "consistency_harness",
    "write_consistency_csv",
]

def fourier_basis(grid: Grid, k: int) -> np.ndarray:
    """k sine/cosine curves, orthonormalized under the grid quadrature."""
    if k < 1:
        raise ValueError("need at least one basis curve")
    u = (grid.points - grid.a) / grid.span
    waves = (f(2.0 * np.pi * m * u) for m in count(1) for f in (np.sin, np.cos))
    out = list(w_orthonormal_rows(islice(waves, k), grid.weights))
    if len(out) < k:
        raise np.linalg.LinAlgError("basis rows are linearly dependent")
    return np.array(out)


@dataclass(frozen=True, eq=False)
class KlModel:
    """Gaussian process with a finite Karhunen-Loeve expansion.

    Curves are mean + sum_k xi_k basis_k with xi_k ~ N(0, variances_k),
    plus optional white measurement noise at each grid point.
    """

    grid: Grid
    mean: np.ndarray
    basis: np.ndarray
    variances: np.ndarray
    noise_sd: float = 0.0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        variances = np.asarray(self.variances, dtype=float)
        n_pts = self.grid.n_points
        if mean.shape != (n_pts,):
            raise ValueError("mean must conform to the grid")
        if basis.shape[1] != n_pts:
            raise ValueError("basis curves must conform to the grid")
        if variances.shape != (basis.shape[0],):
            raise ValueError("need one variance per basis curve")
        if np.any(variances < 0):
            raise ValueError("variances must be nonnegative")
        if np.any(np.diff(variances) > 0):
            raise ValueError("variances must be in descending order")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        w = self.grid.weights
        gram = (basis * w) @ basis.T
        if np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e-8:
            raise ValueError("basis curves must be orthonormal under the grid")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "variances", variances)

    @property
    def k(self) -> int:
        return self.basis.shape[0]


def simulate(model: KlModel, n: int, seed) -> FunctionalSample:
    """Draw n independent curves from the model; reproducible per seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n, model.k)) * np.sqrt(model.variances)
    curves = model.mean + scores @ model.basis
    if model.noise_sd > 0:
        curves = curves + model.noise_sd * rng.standard_normal(curves.shape)
    return FunctionalSample(model.grid, curves)


def _feature_geometry(model: KlModel, weight_curves: np.ndarray):
    """Covariance pieces of the linear features under the model."""
    w = model.grid.weights
    wc = np.atleast_2d(np.asarray(weight_curves, dtype=float))
    scaled = wc * w
    loadings = scaled @ model.basis.T            # <w_i, basis_k>
    noise_gram = scaled @ scaled.T               # feature noise inner products
    feature_mean = scaled @ model.mean
    cov = (loadings * model.variances) @ loadings.T
    cov = cov + model.noise_sd**2 * noise_gram
    # Reference scale that cannot cancel: flags features whose variance is
    # zero up to rounding (e.g. a weight curve orthogonal to the basis).
    abs_loadings = np.abs(scaled) @ np.abs(model.basis).T
    reference = (abs_loadings**2 * model.variances).sum(axis=1)
    reference = reference + model.noise_sd**2 * np.diag(noise_gram)
    scale = float(np.max(reference, initial=0.0))
    vals = np.linalg.eigvalsh(cov)
    if scale <= 0.0 or vals[0] < 1e-12 * max(scale, vals[-1]):
        raise np.linalg.LinAlgError("feature covariance is singular")
    return loadings, feature_mean, cov


def closed_form_blind(
    model: KlModel, feature_values: np.ndarray, weight_curves: np.ndarray
) -> np.ndarray:
    """Exact blinded curves: conditional mean of the signal given features.

    `feature_values` holds the realized features (one row per curve) for
    the linear features represented by `weight_curves` (one row per
    feature, see features.weight_curve).
    """
    loadings, feature_mean, cov = _feature_geometry(model, weight_curves)
    values = np.atleast_2d(np.asarray(feature_values, dtype=float))
    if values.shape[1] != loadings.shape[0]:
        raise ValueError("feature values and weight curves disagree on d")
    cross = model.basis.T @ (model.variances[:, None] * loadings.T)  # N x d
    gain = np.linalg.solve(cov, (values - feature_mean).T)           # d x n
    return model.mean + (cross @ gain).T


@dataclass(frozen=True)
class PcaTask:
    """Score distortion of the leading principal components."""

    n_components: int


@dataclass(frozen=True, eq=False)
class ScalarRegTask:
    """Prediction distortion for a scalar response with coefficient beta."""

    beta: np.ndarray
    n_components: int


@dataclass(frozen=True, eq=False)
class FunRegTask:
    """Prediction distortion for a functional response with a beta surface."""

    beta_surface: np.ndarray
    y_grid: Grid
    n_x_components: int
    n_y_components: int


@dataclass(frozen=True)
class PopulationObjective:
    kind: str
    value: float


def _output_map(model: KlModel, task) -> tuple[str, np.ndarray]:
    """Matrix L with output = L (x - mean), metric folded in."""
    w = model.grid.weights
    if isinstance(task, PcaTask):
        if not 1 <= task.n_components <= model.k:
            raise ValueError("n_components outside the model rank")
        return "pca", model.basis[: task.n_components] * w
    if isinstance(task, ScalarRegTask):
        beta = np.asarray(task.beta, dtype=float)
        if beta.shape != (model.grid.n_points,):
            raise ValueError("beta must conform to the model grid")
        return "reg-scalar", (beta * w)[None, :]
    if isinstance(task, FunRegTask):
        surface = np.asarray(task.beta_surface, dtype=float)
        if surface.shape != (model.grid.n_points, task.y_grid.n_points):
            raise ValueError("beta surface shape must be (N_x, N_y)")
        return "reg-fun", np.sqrt(task.y_grid.weights)[:, None] * (surface.T * w)
    raise TypeError(f"unknown population task {task!r}")


def population_h(
    model: KlModel, task, weight_curves: np.ndarray
) -> PopulationObjective:
    """Population objective h(I) for linear features, computed exactly.

    Works from the Gaussian second moments: the output map applied to the
    signal versus to its conditional mean given the features.
    """
    kind, out_map = _output_map(model, task)
    loadings, _, cov = _feature_geometry(model, weight_curves)
    lam = model.variances
    on_signal = out_map @ model.basis.T                      # m x K
    cross = model.basis.T @ (lam[:, None] * loadings.T)      # N x d
    lc = out_map @ cross                                     # m x d
    gain = np.linalg.solve(cov, lc.T).T                      # m x d
    mismatch = on_signal - gain @ loadings                   # m x K
    value = float(np.sum(mismatch * mismatch * lam[None, :]))
    if model.noise_sd > 0:
        scaled = np.atleast_2d(weight_curves) * model.grid.weights
        noise_gram = model.noise_sd**2 * (scaled @ scaled.T)
        value += float(np.sum((gain @ noise_gram) * gain))
    return PopulationObjective(kind, value)


def enumerate_all(
    evaluate: Callable[[SubsetIndex], ObjectiveValue], p: int, d: int
) -> list[tuple[SubsetIndex, float]]:
    """Exact rescaled-objective ranking of every subset of cardinality <= d."""
    ranked = [(s, v.rescaled) for s, v in scored_subsets(evaluate, p, d)]
    ranked.sort(key=lambda sv: (sv[1], len(sv[0]), sv[0].indices))
    return ranked


def greedy_forward(
    evaluate: Callable[[SubsetIndex], ObjectiveValue], p: int, d_max: int
) -> list[SubsetIndex]:
    """Deterministic forward selection: best single addition per step."""
    chosen: list[int] = []
    path: list[SubsetIndex] = []
    for _ in range(d_max):
        best: tuple[tuple, SubsetIndex] | None = None
        for i in range(p):
            if i in chosen:
                continue
            candidate = SubsetIndex.of([*chosen, i])
            try:
                value = evaluate(candidate)
            except DegenerateObjectiveError:
                continue
            key = (value.rescaled, candidate.indices)
            if best is None or key < best[0]:
                best = (key, candidate)
        if best is None:
            break
        path.append(best[1])
        chosen = list(best[1].indices)
    return path


def default_r_rule(n: int) -> int:
    """Neighbor count ceil(n^(2/3)): grows, but slower than n."""
    return min(n, math.ceil(n ** (2.0 / 3.0)))


@dataclass(frozen=True)
class ConsistencyRow:
    task: str
    n: int
    rep: int
    h_n: float
    h: float
    abs_err: float


def _fitted_objective(model: KlModel, task, sample: FunctionalSample) -> Objective:
    """The task's procedure fitted on `sample`, as the objective it drives."""
    if isinstance(task, PcaTask):
        return Objective("pca", fit_fpca(sample, task.n_components))
    w = model.grid.weights
    if isinstance(task, ScalarRegTask):
        y = sample.curves @ (w * np.asarray(task.beta, dtype=float))
        fitted = fit_scalar_regression(sample, y, task.n_components)
        return Objective("reg-scalar", fitted)
    if isinstance(task, FunRegTask):
        responses = (sample.curves * w) @ np.asarray(task.beta_surface, dtype=float)
        y_sample = FunctionalSample(task.y_grid, responses)
        fitted = fit_functional_regression(
            sample, y_sample, task.n_x_components, task.n_y_components
        )
        return Objective("reg-fun", fitted)
    raise TypeError(f"unknown population task {task!r}")


def consistency_harness(
    model: KlModel,
    task,
    specs: Sequence[FeatureSpec],
    subset: SubsetIndex,
    n_list: Iterable[int],
    reps: int,
    r_rule: Callable[[int], int] | None = None,
    seed: int = 0,
) -> list[ConsistencyRow]:
    """Tabulate |h_n(I) - h(I)| over repeated simulations at each n.

    Each repetition simulates a fresh sample, refits the procedure, and
    evaluates the empirical objective with r = r_rule(n) neighbors through
    search.make_evaluator (neighbor averages of the procedure's outputs);
    the population value comes from the closed form.
    """
    r_rule = r_rule or default_r_rule
    specs = tuple(specs)
    weights_mat = np.array([weight_curve(s, model.grid) for s in specs])
    population = population_h(
        model, task, weights_mat[list(subset.indices)]
    )
    rows: list[ConsistencyRow] = []
    for n in n_list:
        r = min(max(1, r_rule(n)), n)
        for rep in range(reps):
            stream = np.random.SeedSequence(entropy=seed, spawn_key=(n, rep))
            sample = simulate(model, n, stream)
            fm = build_feature_matrix(sample, specs)
            objective = _fitted_objective(model, task, sample)
            h_emp = make_evaluator(sample, fm, objective, r)(subset).raw
            rows.append(
                ConsistencyRow(
                    population.kind, n, rep, h_emp, population.value,
                    abs(h_emp - population.value),
                )
            )
    return rows


def write_consistency_csv(rows: Iterable[ConsistencyRow], path) -> None:
    """Write harness rows as CSV with columns task,n,rep,h_n,h,abs_err."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "n", "rep", "h_n", "h", "abs_err"])
        for row in rows:
            writer.writerow(
                [row.task, row.n, row.rep, repr(row.h_n), repr(row.h), repr(row.abs_err)]
            )
