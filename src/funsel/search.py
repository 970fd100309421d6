"""Subset search: exhaustive start, stochastic forward branching, revision.

The exhaustive step scores every subset up to a small cardinality d1. If
none is good enough (rescaled objective below epsilon), the N0 best become
seeds for a stochastic phase: each round augments every retained subset
with N1 randomly drawn extra features, keeps the overall N0 best, and runs
a revision pass that tries one random element swap per position. The
search stops as soon as a candidate satisfies the threshold, returning the
smallest satisfying subset, or when the cardinality cap or the round cap
is hit, returning the best subset seen.

All randomness flows from one seed through per-(round, rank, phase)
streams, so a search is exactly reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .blinding import SubsetIndex, neighbor_means, neighbor_sets
from .fdata import FunctionalSample
from .features import FeatureSpec, build_feature_matrix, standardize_columns
from .objectives import DegenerateObjectiveError, Objective, ObjectiveValue

__all__ = [
    "SearchConfig",
    "TraceEntry",
    "SearchResult",
    "SearchFailure",
    "make_evaluator",
    "scored_subsets",
    "exhaustive_step",
    "stochastic_step",
    "revision_step",
    "run_search",
    "RNG_ALGORITHM",
]

# Recorded in reports so a run can be replayed elsewhere.
RNG_ALGORITHM = "numpy PCG64, SeedSequence(seed, spawn_key=(round, rank, phase))"

_MAX_SUBSETS = 1_000_000


class SearchFailure(RuntimeError):
    """No subset could be scored (every candidate was degenerate)."""


def _check_subset_count(p: int, d: int) -> None:
    total = sum(math.comb(p, c) for c in range(1, d + 1))
    if total > _MAX_SUBSETS:
        raise ValueError(
            f"{total} subsets of size <= {d} exceed the cap of {_MAX_SUBSETS}"
        )


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for the subset search.

    epsilon_tol: rescaled-objective threshold (math.inf ranks exhaustively).
    d1: cardinality cap of the exhaustive step.
    n_keep: subsets retained between rounds (N0).
    n_branch: random augmentations tried per retained subset (N1).
    r: neighbor count used for blinding.
    d_max: hard cardinality cap for stochastic growth.
    max_rounds: stochastic round cap; the search then reports best-seen.
    seed: root seed of all random draws.
    standardize_features: z-score feature columns before neighbor distances.
    """

    epsilon_tol: float
    d1: int
    n_keep: int
    n_branch: int
    r: int
    d_max: int
    max_rounds: int = 50
    seed: int = 0
    standardize_features: bool = False

    def validate(self, p: int) -> None:
        if not self.epsilon_tol > 0:
            raise ValueError("epsilon_tol must be positive (math.inf allowed)")
        if not 1 <= self.d1 <= self.d_max <= p:
            raise ValueError(
                f"need 1 <= d1 <= d_max <= p, got d1={self.d1}, "
                f"d_max={self.d_max}, p={p}"
            )
        if self.n_keep < 1:
            raise ValueError("n_keep must be at least 1")
        if not 1 <= self.n_branch <= p:
            raise ValueError(f"need 1 <= n_branch <= p, got {self.n_branch}")
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if self.max_rounds < 0:
            raise ValueError("max_rounds cannot be negative")
        _check_subset_count(p, self.d1)


@dataclass(frozen=True)
class TraceEntry:
    """One scored candidate: round 0 is the exhaustive step."""

    round: int
    subset: SubsetIndex
    value: ObjectiveValue


@dataclass(frozen=True, eq=False)
class SearchResult:
    chosen: SubsetIndex | None
    value: ObjectiveValue | None
    satisfied: bool
    trace: tuple[TraceEntry, ...]
    rounds_used: int


Evaluator = Callable[[SubsetIndex], ObjectiveValue]


def make_evaluator(
    sample: FunctionalSample, fm, objective: Objective, r: int
) -> Evaluator:
    """Subset scorer with a cache, so repeated candidates are scored once.

    The procedure's outputs on the original curves are computed once, and
    a subset is scored on their averages over its r-NN neighbor sets (see
    Objective.scorer); only classification averages whole curves. Each
    call holds the n-by-r neighbor table and the n averaged rows, never the
    n*r gather. A degenerate objective (zero denominator) raises for every
    subset.
    """
    if fm.n != sample.n:
        raise ValueError("feature matrix and sample disagree on n")
    score, outputs = objective.scorer(sample.curves)
    cache: dict[SubsetIndex, ObjectiveValue] = {}

    def evaluate(subset: SubsetIndex) -> ObjectiveValue:
        if subset not in cache:
            cache[subset] = score(neighbor_means(outputs, neighbor_sets(fm, subset, r)))
        return cache[subset]

    return evaluate


def scored_subsets(evaluate: Evaluator, p: int, d: int):
    """Yield (subset, value) by size, then lexicographically, for sizes <= d.

    Degenerate subsets are skipped; more than the cap are refused up front.
    """
    _check_subset_count(p, d)
    for card in range(1, d + 1):
        for combo in itertools.combinations(range(p), card):
            subset = SubsetIndex(combo)
            try:
                value = evaluate(subset)
            except DegenerateObjectiveError:
                continue
            yield subset, value


def _rank_key(subset: SubsetIndex, value: ObjectiveValue):
    return (value.rescaled, len(subset), subset.indices)


def _stream(seed: int, round_index: int, rank: int, phase: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(round_index, rank, phase))
    return np.random.default_rng(seq)


def _satisfied_result(
    trace: list[TraceEntry], epsilon: float, rounds_used: int
) -> SearchResult:
    hits = [e for e in trace if e.value.rescaled < epsilon]
    best = min(hits, key=lambda e: (len(e.subset), e.value.rescaled, e.subset.indices))
    return SearchResult(best.subset, best.value, True, tuple(trace), rounds_used)


def _unsatisfied_result(
    best: tuple[SubsetIndex, ObjectiveValue] | None,
    trace: list[TraceEntry],
    rounds_used: int,
) -> SearchResult:
    if best is None:
        return SearchResult(None, None, False, tuple(trace), rounds_used)
    return SearchResult(best[0], best[1], False, tuple(trace), rounds_used)


def exhaustive_step(
    evaluate: Evaluator,
    p: int,
    config: SearchConfig,
    trace: list[TraceEntry] | None = None,
) -> tuple[list[SubsetIndex], SearchResult | None]:
    """Score every subset of cardinality <= d1.

    Returns (seeds, None) with the n_keep best subsets when the threshold
    is not met, or ([], result) with a final satisfied result when it is.
    Degenerate subsets are dropped from the ranking; if nothing survives,
    the search fails.
    """
    trace = trace if trace is not None else []
    scored = list(scored_subsets(evaluate, p, config.d1))
    trace.extend(TraceEntry(0, subset, value) for subset, value in scored)
    if not scored:
        raise SearchFailure("every subset of the exhaustive step was degenerate")
    scored.sort(key=lambda sv: _rank_key(*sv))
    if scored[0][1].rescaled < config.epsilon_tol:
        return [], _satisfied_result(trace, config.epsilon_tol, 0)
    return [s for s, _ in scored[: config.n_keep]], None


def revision_step(
    subset: SubsetIndex,
    evaluate: Evaluator,
    p: int,
    rng: np.random.Generator,
    trace: list[TraceEntry] | None = None,
    round_index: int = 0,
) -> SubsetIndex:
    """Try one random replacement per position, keeping strict improvements.

    Positions are visited in index order on the evolving subset, so the
    returned subset has the same cardinality and a rescaled value that is
    never worse than the input's.
    """
    trace = trace if trace is not None else []
    current = subset
    current_value = evaluate(current)
    for pos in range(len(current)):
        complement = np.array(
            [i for i in range(p) if i not in current], dtype=int
        )
        if complement.size == 0:
            break
        draw = int(complement[int(rng.integers(complement.size))])
        replaced = list(current.indices)
        replaced[pos] = draw
        candidate = SubsetIndex.of(replaced)
        try:
            value = evaluate(candidate)
        except DegenerateObjectiveError:
            continue
        trace.append(TraceEntry(round_index, candidate, value))
        if value.rescaled < current_value.rescaled:
            current, current_value = candidate, value
    return current


def stochastic_step(
    seeds: list[SubsetIndex],
    evaluate: Evaluator,
    p: int,
    config: SearchConfig,
    trace: list[TraceEntry] | None = None,
) -> SearchResult:
    """Grow the seed subsets by random branching until the threshold is met.

    Each round augments every retained subset with n_branch distinct
    features drawn from its complement, keeps the n_keep best candidates
    overall, and (unless the round cap was just hit) revises them. Stops
    on satisfaction, on the cardinality cap, or after max_rounds; the last
    two report the best subset seen with satisfied=False.
    """
    trace = trace if trace is not None else []
    retained: list[tuple[SubsetIndex, ObjectiveValue]] = []
    for seed_subset in seeds:
        try:
            retained.append((seed_subset, evaluate(seed_subset)))
        except DegenerateObjectiveError:
            continue
    if not retained:
        raise SearchFailure("no usable seed subsets for the stochastic step")
    retained.sort(key=lambda sv: _rank_key(*sv))
    retained = retained[: config.n_keep]
    best = retained[0]
    rounds_used = 0

    while True:
        expandable = [sv for sv in retained if len(sv[0]) < min(config.d_max, p)]
        if not expandable or rounds_used >= config.max_rounds:
            return _unsatisfied_result(best, trace, rounds_used)
        rounds_used += 1

        candidates: dict[SubsetIndex, None] = {}
        for rank, (subset, _) in enumerate(retained):
            if len(subset) >= min(config.d_max, p):
                continue
            complement = np.array(
                [i for i in range(p) if i not in subset], dtype=int
            )
            rng = _stream(config.seed, rounds_used, rank, 0)
            n_draw = min(config.n_branch, complement.size)
            draws = rng.choice(complement, size=n_draw, replace=False)
            for extra in draws:
                candidates.setdefault(
                    SubsetIndex.of((*subset.indices, int(extra))), None
                )

        scored: list[tuple[SubsetIndex, ObjectiveValue]] = []
        for candidate in candidates:
            try:
                value = evaluate(candidate)
            except DegenerateObjectiveError:
                continue
            trace.append(TraceEntry(rounds_used, candidate, value))
            scored.append((candidate, value))
        if not scored:
            return _unsatisfied_result(best, trace, rounds_used)

        scored.sort(key=lambda sv: _rank_key(*sv))
        retained = scored[: config.n_keep]
        if _rank_key(*retained[0]) < _rank_key(*best):
            best = retained[0]
        if retained[0][1].rescaled < config.epsilon_tol:
            return _satisfied_result(trace, config.epsilon_tol, rounds_used)
        if rounds_used >= config.max_rounds:
            return _unsatisfied_result(best, trace, rounds_used)

        revised: dict[SubsetIndex, ObjectiveValue] = {}
        for rank, (subset, _) in enumerate(retained):
            rng = _stream(config.seed, rounds_used, rank, 1)
            improved = revision_step(subset, evaluate, p, rng, trace, rounds_used)
            revised.setdefault(improved, evaluate(improved))
        retained = sorted(revised.items(), key=lambda sv: _rank_key(*sv))
        if _rank_key(*retained[0]) < _rank_key(*best):
            best = retained[0]
        if retained[0][1].rescaled < config.epsilon_tol:
            return _satisfied_result(trace, config.epsilon_tol, rounds_used)


def run_search(
    sample: FunctionalSample,
    specs: list[FeatureSpec] | tuple[FeatureSpec, ...],
    objective: Objective,
    config: SearchConfig,
) -> SearchResult:
    """Full pipeline: feature matrix, exhaustive step, stochastic step."""
    specs = tuple(specs)
    p = len(specs)
    config.validate(p)
    if not 1 <= config.r <= sample.n:
        raise ValueError(f"need 1 <= r <= n, got r={config.r}, n={sample.n}")
    fm = build_feature_matrix(sample, specs)
    if config.standardize_features:
        fm = standardize_columns(fm)
    evaluate = make_evaluator(sample, fm, objective, config.r)
    trace: list[TraceEntry] = []
    seeds, done = exhaustive_step(evaluate, p, config, trace)
    if done is not None:
        return done
    return stochastic_step(seeds, evaluate, p, config, trace)
