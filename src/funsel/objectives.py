"""Distortion objectives: how much a frozen procedure's output changes.

Each objective compares the procedure's output on the original and the
blinded curves. PCA scores and regression predictions are linear in the
curve, so `Objective.scorer` maps the original curves once and scores
neighbor averages of those outputs; classification averages the curves.
Values come in a raw form and a rescaled form h = raw / denominator that
is independent of the units of the data; the classification objective is
already unit-free (a matching error rate), so there raw and rescaled
coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fdata import FunctionalSample
from .statproc import (
    ClassifierModel,
    FpcaModel,
    FunRegModel,
    ScalarRegModel,
    classify_batch,
    fpca_scores_matrix,
    predict_functional,
    predict_scalar,
)

__all__ = [
    "ObjectiveValue",
    "DegenerateObjectiveError",
    "Objective",
    "h_classification",
    "h_pca",
    "h_reg_scalar",
    "h_reg_functional",
    "OBJECTIVE_KINDS",
]

OBJECTIVE_KINDS = ("classify", "pca", "reg-scalar", "reg-fun")


class DegenerateObjectiveError(RuntimeError):
    """The rescaling denominator is zero, so the subset cannot be scored."""


@dataclass(frozen=True)
class ObjectiveValue:
    """Raw and rescaled discrepancy for one candidate subset."""

    raw: float
    rescaled: float
    denominator: float


def _outputs(kind: str, model, curves: np.ndarray) -> np.ndarray:
    """The procedure's output on each curve, one row per curve."""
    if kind == "pca":
        return fpca_scores_matrix(model, curves)
    if kind == "reg-scalar":
        return (predict_scalar(model, curves) - model.intercept)[:, None]
    if kind == "reg-fun":  # scaled so the weighted L2 gap is a Euclidean one
        pred = predict_functional(model, curves) - model.y_mean
        return pred * np.sqrt(model.y_grid.weights)
    return curves


@dataclass(frozen=True, eq=False)
class Objective:
    """A frozen procedure bundled with the objective that scores against it."""

    kind: str
    model: ClassifierModel | FpcaModel | ScalarRegModel | FunRegModel

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")

    def scorer(self, curves: np.ndarray) -> tuple[Callable, np.ndarray]:
        """Map the original curves once; return (score, outputs).

        `score` takes the blinded outputs (for the linear kinds, averages of
        rows of `outputs`); a zero denominator raises when scored.
        """
        outputs = _outputs(self.kind, self.model, curves)
        if self.kind == "classify":
            labels = classify_batch(self.model, outputs)

            def score(blinded: np.ndarray) -> ObjectiveValue:
                raw = float(np.mean(labels != classify_batch(self.model, blinded)))
                return ObjectiveValue(raw, raw, 1.0)

        else:
            denominator = float((outputs**2).mean(axis=0).sum())

            def score(blinded: np.ndarray) -> ObjectiveValue:
                if denominator == 0.0:
                    raise DegenerateObjectiveError(
                        "objective denominator is zero; the procedure output "
                        "vanishes on the original sample"
                    )
                raw = float(((outputs - blinded) ** 2).mean(axis=0).sum())
                return ObjectiveValue(raw, raw / denominator, denominator)

        return score, outputs

    def evaluate(self, sample: FunctionalSample, blinded) -> ObjectiveValue:
        """Objective value of blinded curves against the original sample."""
        blinded = getattr(blinded, "curves", blinded)  # BlindedSample, sample or array
        score, _ = self.scorer(sample.curves)
        return score(_outputs(self.kind, self.model, blinded))


def h_classification(
    model: ClassifierModel, sample: FunctionalSample, blinded
) -> ObjectiveValue:
    """Matching error rate: share of curves whose class flips when blinded."""
    return Objective("classify", model).evaluate(sample, blinded)


def h_pca(model: FpcaModel, sample: FunctionalSample, blinded) -> ObjectiveValue:
    """Mean squared distance between original and blinded component scores.

    Rescaled by the mean squared original scores, summed over components.
    """
    return Objective("pca", model).evaluate(sample, blinded)


def h_reg_scalar(
    model: ScalarRegModel, sample: FunctionalSample, blinded
) -> ObjectiveValue:
    """Mean squared gap between predictions from original and blinded curves."""
    return Objective("reg-scalar", model).evaluate(sample, blinded)


def h_reg_functional(
    model: FunRegModel, sample: FunctionalSample, blinded
) -> ObjectiveValue:
    """Mean squared L2 gap between predicted response curves."""
    return Objective("reg-fun", model).evaluate(sample, blinded)
