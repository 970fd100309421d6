"""Workload definitions and seeded input generation.

Inputs are made by this file's own numpy code, not by the program under
test, so a change to the program cannot change the inputs it is measured
on. Every draw comes from `np.random.SeedSequence(seed, spawn_key=(1,))`,
so the same seed gives the same CSV files byte for byte.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

# One Karhunen-Loeve family for the search workloads: 65-point grid on [0, 1],
# five Fourier components, white measurement noise.
KL_VARIANCES = (16.0, 8.0, 4.0, 2.0, 1.0)
KL_NOISE_SD = 0.5
GRID_POINTS = 65
# Appended to the menu for the blinding probe only: integer-valued, so the
# r-th and (r+1)-th neighbour distances tie for most queries.
PROBE_EXTRA = "upx@0.0"


def r_rule(n: int) -> int:
    """Neighbour count ceil(n^(2/3)), as the paper's consistency setting."""
    return min(n, math.ceil(n ** (2.0 / 3.0)))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; `kind` selects the program call it makes.

    kind "search": ingest curves (and labels), fit the frozen procedure,
    then time `funsel.search.run_search`.
    kind "consistency": build the KL model, then time
    `funsel.oracle.consistency_harness`.
    """

    name: str
    kind: str
    task: str
    n: int
    features: tuple[str, ...]
    search: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    variances: tuple[float, ...] = KL_VARIANCES
    noise_sd: float = KL_NOISE_SD
    subset: tuple[int, ...] = ()
    reps: int = 0
    # Probe subsets for the traced run: one with continuous features and one
    # whose distances tie often. Index p means PROBE_EXTRA.
    probe_continuous: tuple[int, ...] = ()
    probe_ties: tuple[int, ...] = ()

    @property
    def r(self) -> int:
        return r_rule(self.n)

    @property
    def p(self) -> int:
        return len(self.features)


def _pca_menu() -> tuple[str, ...]:
    points = tuple(f"point@{i}" for i in range(0, 61, 3))              # 21
    edges = np.linspace(0.0, 1.0, 9)
    averages = tuple(
        f"avg[{float(a)!r},{float(b)!r}]" for a, b in zip(edges[:-1], edges[1:])
    )  # 8
    return points + averages


def _knn_menu() -> tuple[str, ...]:
    points = tuple(f"point@{i}" for i in range(0, 57, 8))              # 8
    return points + (
        "upx@0.0",
        "upx@2.0",
        "occ[-inf,-2.0)",
        "occ[2.0,inf)",
        "pathnorm^2",
        "pathmom^3",
    )


def _pca_search(n: int, max_rounds: int, name: str) -> Workload:
    return Workload(
        name=name,
        kind="search",
        task="pca",
        n=n,
        features=_pca_menu(),
        # epsilon sits below the reachable floor, so every round runs.
        search=dict(epsilon_tol=1e-9, d1=1, n_keep=3, n_branch=4, d_max=6,
                    max_rounds=max_rounds),
        model=dict(n_components=3),
        probe_continuous=(7, 24),
        probe_ties=(29,),
    )


def _knn_exhaustive(n: int, name: str) -> Workload:
    return Workload(
        name=name,
        kind="search",
        task="classify",
        n=n,
        features=_knn_menu(),
        # d1 == d_max and max_rounds == 0: the exhaustive step only.
        search=dict(epsilon_tol=1e-9, d1=2, n_keep=3, n_branch=4, d_max=2,
                    max_rounds=0),
        model=dict(classifier="knn", k=5),
        probe_continuous=(2,),
        probe_ties=(8,),
    )


def _consistency(n: int, reps: int, name: str) -> Workload:
    return Workload(
        name=name,
        kind="consistency",
        task="pca",
        n=n,
        features=("point@16", "point@0", "point@24"),
        model=dict(n_components=3),
        variances=(16.0, 8.0, 4.0),
        noise_sd=0.0,
        subset=(0,),
        reps=reps,
        probe_continuous=(0,),
        probe_ties=(3,),
    )


WORKLOADS = {
    w.name: w
    for w in (
        _pca_search(1000, 3, "pca-search-n1000"),
        _knn_exhaustive(400, "knn-exhaustive-n400"),
        _consistency(5000, 2, "consistency-n5000"),
    )
}

# Toy sizes of the same three workloads, used only by the self-check.
TOY_WORKLOADS = {
    w.name: w
    for w in (
        _pca_search(120, 2, "pca-search-n1000"),
        _knn_exhaustive(90, "knn-exhaustive-n400"),
        _consistency(300, 1, "consistency-n5000"),
    )
}


# ---------------------------------------------------------------- inputs

def _grid() -> tuple[np.ndarray, np.ndarray]:
    points = np.linspace(0.0, 1.0, GRID_POINTS)
    gaps = np.diff(points)
    weights = np.zeros(GRID_POINTS)
    weights[:-1] += gaps / 2.0
    weights[1:] += gaps / 2.0
    return points, weights


def _basis(points: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """k sine/cosine rows made orthonormal under the trapezoid weights."""
    rows = []
    mode = 1
    while len(rows) < k:
        rows.append(np.sin(2.0 * np.pi * mode * points))
        if len(rows) < k:
            rows.append(np.cos(2.0 * np.pi * mode * points))
        mode += 1
    sw = np.sqrt(weights)
    q, _ = np.linalg.qr((np.array(rows) * sw).T)
    return q.T / sw


def _labels(first_scores: np.ndarray, variance: float) -> np.ndarray:
    """Three classes from equal-probability bands of the true first KL score."""
    # Standard normal quantile at 2/3: the inner band edges are +-edge.
    edge = 0.4307272992954576 * math.sqrt(variance)
    return np.digitize(first_scores, [-edge, edge])


def write_search_inputs(workload: Workload, seed: int, directory) -> dict:
    """Write curves.csv (and labels.csv) for a search workload.

    Returns the paths written, keyed "curves" and, for classification,
    "labels".
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    points, weights = _grid()
    var = np.array(workload.variances)
    basis = _basis(points, weights, var.size)
    scores = rng.standard_normal((workload.n, var.size)) * np.sqrt(var)
    curves = scores @ basis
    curves = curves + workload.noise_sd * rng.standard_normal(curves.shape)

    paths = {"curves": f"{directory}/curves.csv"}
    ids = [f"c{i:05d}" for i in range(workload.n)]
    with open(paths["curves"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([repr(float(t)) for t in points])
        for cid, row in zip(ids, curves):
            writer.writerow([cid, *(repr(float(v)) for v in row)])
    if workload.task == "classify":
        labels = _labels(scores[:, 0], var[0])
        paths["labels"] = f"{directory}/labels.csv"
        with open(paths["labels"], "w", newline="") as fh:
            writer = csv.writer(fh)
            for cid, label in zip(ids, labels):
                writer.writerow([cid, int(label)])
    return paths
