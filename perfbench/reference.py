"""Independent checks of the program's outputs.

Two kinds of reference:

* stored: the outputs of the seed commit for the default and one held-out
  seed, in `references/<workload>-seed<k>.json`;
* recomputed: this file's own r-NN routine and objective formulas, run on
  a few sampled subsets, so runs on any other seed are checked too.

The r-NN routine follows the program's documented order (distance, then
the query itself, then the smaller index) with squared distances computed
exactly as the seed commit computes them, so ties resolve identically. It
selects with `np.partition` and sorts only the rows at or below the r-th
distance, which gives the same sets as a full sort in O(n) per query.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "references"
_CHUNK_ROWS = 256


def _d2(features: np.ndarray, j: int) -> np.ndarray:
    diff = features - features[j]
    return np.einsum("ij,ij->i", diff, diff)


def neighbor_sets(features: np.ndarray, r: int) -> np.ndarray:
    """r nearest rows of every row, in (distance, self first, index) order."""
    features = np.ascontiguousarray(features, dtype=float)
    n = features.shape[0]
    idx = np.arange(n)
    out = np.empty((n, r), dtype=np.int64)
    for j in range(n):
        d2 = _d2(features, j)
        cut = np.partition(d2, r - 1)[r - 1]
        near = idx[d2 <= cut]
        order = np.lexsort((near, near != j, d2[near]))
        out[j] = near[order[:r]]
    return out


def tie_queries(features: np.ndarray, r: int) -> int:
    """Queries whose r-th and (r+1)-th distances are equal."""
    features = np.ascontiguousarray(features, dtype=float)
    n = features.shape[0]
    if r >= n:
        return 0
    ties = 0
    for j in range(n):
        part = np.partition(_d2(features, j), (r - 1, r))
        ties += int(part[r - 1] == part[r])
    return ties


def digest(neighbors: np.ndarray) -> str:
    """SHA-256 of neighbour sets as little-endian int64."""
    data = np.ascontiguousarray(neighbors, dtype="<i8")
    return hashlib.sha256(data.tobytes()).hexdigest()


def blinded_curves(curves: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Mean curve over each row's neighbours, in chunks to bound memory."""
    out = np.empty((neighbors.shape[0], curves.shape[1]))
    for lo in range(0, neighbors.shape[0], _CHUNK_ROWS):
        out[lo:lo + _CHUNK_ROWS] = curves[neighbors[lo:lo + _CHUNK_ROWS]].mean(axis=1)
    return out


def pca_scores(model, curves: np.ndarray) -> np.ndarray:
    proj = model.grid.weights[:, None] * model.eigenfunctions.T
    return (curves - model.mean) @ proj


def pca_objective(model, curves: np.ndarray, blinded: np.ndarray) -> tuple[float, float]:
    """(raw, rescaled) score distortion of an FPCA model."""
    scores = pca_scores(model, curves)
    moved = pca_scores(model, blinded)
    raw = float(((scores - moved) ** 2).mean(axis=0).sum())
    return raw, raw / float((scores**2).mean(axis=0).sum())


def knn_labels(model, curves: np.ndarray) -> np.ndarray:
    """k-NN vote of a frozen classifier; ties go to the smallest label."""
    w = model.grid.weights
    train = model.train_curves
    d2 = np.empty((curves.shape[0], train.shape[0]))
    for i, ref in enumerate(train):
        diff = curves - ref
        d2[:, i] = (diff * diff) @ w
    nearest = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
    votes = model.train_labels[nearest]
    counts = (votes[:, :, None] == model.classes[None, None, :]).sum(axis=1)
    return model.classes[np.argmax(counts, axis=1)]


def classify_objective(model, curves: np.ndarray, blinded: np.ndarray) -> tuple[float, float]:
    raw = float(np.mean(knn_labels(model, curves) != knn_labels(model, blinded)))
    return raw, raw


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


# ------------------------------------------------------- stored references

def reference_path(directory, workload: str, seed: int) -> Path:
    return Path(directory) / f"{workload}-seed{seed}.json"


def load(directory, workload: str, seed: int) -> dict | None:
    path = reference_path(directory, workload, seed)
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)


def save(directory, workload: str, seed: int, data: dict) -> Path:
    path = reference_path(directory, workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def trace_mismatches(trace: list, expected: list) -> set:
    """Positions where a search trace differs from the expected trace.

    Entries are [round, subset, raw, rescaled]; an entry missing on either
    side differs.
    """
    bad = set(range(min(len(trace), len(expected)), max(len(trace), len(expected))))
    for i, (got, want) in enumerate(zip(trace, expected)):
        same = (
            got[0] == want[0]
            and list(got[1]) == list(want[1])
            and close(got[2], want[2])
            and close(got[3], want[3])
        )
        if not same:
            bad.add(i)
    return bad


def row_mismatches(rows: list, expected: list) -> set:
    """Positions where consistency rows [n, rep, h_n, h] differ in h_n."""
    bad = set(range(min(len(rows), len(expected)), max(len(rows), len(expected))))
    for i, (got, want) in enumerate(zip(rows, expected)):
        if not (got[0] == want[0] and got[1] == want[1] and close(got[2], want[2])):
            bad.add(i)
    return bad
