import math
import tracemalloc

import numpy as np
import pytest

from funsel import (
    DegenerateObjectiveError,
    FunctionalSample,
    Grid,
    Objective,
    ObjectiveValue,
    PointEval,
    SearchConfig,
    SearchFailure,
    SubsetIndex,
    blind_sample,
    exhaustive_step,
    fit_classifier,
    fit_fpca,
    fit_functional_regression,
    fit_scalar_regression,
    parse_feature,
    revision_step,
    run_search,
    stochastic_step,
)
from funsel.oracle import KlModel, enumerate_all, fourier_basis, greedy_forward, simulate
from funsel.search import make_evaluator
from funsel.features import build_feature_matrix


def _table_evaluator(table):
    """Evaluator backed by a literal h-value table keyed by index tuples."""

    def evaluate(subset):
        value = table[subset.indices]
        if value is None:
            raise DegenerateObjectiveError("table says degenerate")
        return ObjectiveValue(value, value, 1.0)

    return evaluate


def _pca_instance(seed, n=120, p=6, variances=(9.0, 4.0, 1.0), r=6):
    g = Grid.uniform(0.0, 1.0, 61)
    basis = fourier_basis(g, len(variances))
    model = KlModel(g, np.zeros(61), basis, np.array(variances))
    sample = simulate(model, n, seed)
    step = 61 // p
    specs = [PointEval(5 + i * step) for i in range(p)]
    fitted = fit_fpca(sample, len(variances))
    fm = build_feature_matrix(sample, specs)
    evaluate = make_evaluator(sample, fm, Objective("pca", fitted), r)
    return sample, specs, evaluate


def _config(**kw):
    base = dict(
        epsilon_tol=math.inf, d1=1, n_keep=2, n_branch=2, r=3,
        d_max=3, max_rounds=10, seed=0,
    )
    base.update(kw)
    return SearchConfig(**base)


class TestExhaustiveStep:
    def test_full_ranking_matches_enumeration_oracle(self):
        table = {
            (0,): 0.9, (1,): 0.7, (2,): 0.8,
            (0, 1): 0.5, (0, 2): 0.6, (1, 2): 0.4,
            (0, 1, 2): 0.3,
        }
        evaluate = _table_evaluator(table)
        trace = []
        _, result = exhaustive_step(
            evaluate, 3, _config(epsilon_tol=math.inf, d1=3, n_keep=3), trace
        )
        ranked = sorted(
            ((e.subset, e.value.rescaled) for e in trace),
            key=lambda sv: (sv[1], len(sv[0]), sv[0].indices),
        )
        oracle = enumerate_all(evaluate, 3, 3)
        assert ranked == oracle
        # minimal cardinality wins under an infinite threshold
        assert result.satisfied and result.chosen.indices == (1,)

    def test_identity_blinding_satisfies_with_singleton(self):
        sample, specs, _ = _pca_instance(seed=1)
        fitted = fit_fpca(sample, 3)
        fm = build_feature_matrix(sample, specs)
        evaluate = make_evaluator(sample, fm, Objective("pca", fitted), 1)
        _, result = exhaustive_step(
            evaluate, len(specs), _config(epsilon_tol=1e-9, d1=2, n_keep=3)
        )
        assert result is not None and result.satisfied
        assert len(result.chosen) == 1
        assert result.value.rescaled == 0.0

    def test_keeps_everything_when_n_keep_is_large(self):
        table = {(0,): 0.5, (1,): 0.4, (2,): 0.6}
        seeds, result = exhaustive_step(
            _table_evaluator(table), 3, _config(epsilon_tol=0.1, d1=1, n_keep=50)
        )
        assert result is None
        assert [s.indices for s in seeds] == [(1,), (0,), (2,)]

    def test_degenerate_subsets_excluded(self):
        table = {(0,): None, (1,): 0.4, (2,): None}
        seeds, _ = exhaustive_step(
            _table_evaluator(table), 3, _config(epsilon_tol=0.1, d1=1, n_keep=5)
        )
        assert [s.indices for s in seeds] == [(1,)]

    def test_all_degenerate_fails(self):
        table = {(0,): None, (1,): None}
        with pytest.raises(SearchFailure):
            exhaustive_step(
                _table_evaluator(table), 2, _config(epsilon_tol=0.1, d1=1)
            )


class TestRevisionStep:
    def test_never_increases(self):
        rng_table = np.random.default_rng(3)
        import itertools

        table = {
            combo: float(rng_table.uniform(0.1, 1.0))
            for card in (1, 2, 3)
            for combo in itertools.combinations(range(5), card)
        }
        evaluate = _table_evaluator(table)
        start = SubsetIndex.of([0, 2, 4])
        for seed in range(10):
            out = revision_step(
                start, evaluate, 5, np.random.default_rng(seed)
            )
            assert len(out) == 3
            assert table[out.indices] <= table[start.indices]

    def test_swap_happens_when_improvement_drawn(self):
        # from (0,1): replacing the second element with 3 improves
        table = {
            (0, 1): 0.5, (1, 2): 0.9, (1, 3): 0.9, (0, 2): 0.9, (0, 3): 0.3,
            (2, 3): 0.9,
        }
        evaluate = _table_evaluator(table)
        outcomes = set()
        for seed in range(20):
            out = revision_step(
                SubsetIndex.of([0, 1]), evaluate, 4, np.random.default_rng(seed)
            )
            outcomes.add(out.indices)
        assert outcomes == {(0, 1), (0, 3)}

    def test_full_subset_unchanged(self):
        table = {(0, 1, 2): 0.5}
        out = revision_step(
            SubsetIndex.of([0, 1, 2]),
            _table_evaluator(table),
            3,
            np.random.default_rng(0),
        )
        assert out.indices == (0, 1, 2)


class TestStochasticStep:
    def test_one_round_full_branching_is_a_greedy_step(self):
        _, specs, evaluate = _pca_instance(seed=11)
        p = len(specs)
        greedy = greedy_forward(evaluate, p, 2)
        trace = []
        stochastic_step(
            [greedy[0]], evaluate, p,
            _config(epsilon_tol=1e-300, d1=1, n_keep=1, n_branch=p,
                    d_max=p, max_rounds=1, seed=5),
            trace,
        )
        round1 = [e for e in trace if e.round == 1]
        assert len(round1) == p - 1  # every complement feature branched
        best = min(round1, key=lambda e: (e.value.rescaled, e.subset.indices))
        assert best.subset == greedy[1]

    def test_infinite_threshold_stops_after_first_batch(self):
        _, specs, evaluate = _pca_instance(seed=12)
        result = stochastic_step(
            [SubsetIndex.of([0])], evaluate, len(specs),
            _config(epsilon_tol=math.inf, d1=1, n_keep=2, n_branch=2,
                    d_max=4, max_rounds=10, seed=9),
        )
        assert result.satisfied and result.rounds_used == 1

    def test_fixed_seed_reproduces_trace(self):
        def run_once():
            _, specs, evaluate = _pca_instance(seed=13)
            trace = []
            result = stochastic_step(
                [SubsetIndex.of([2])], evaluate, len(specs),
                _config(epsilon_tol=1e-300, d1=1, n_keep=2, n_branch=3,
                        d_max=5, max_rounds=4, seed=77),
                trace,
            )
            return result, trace

        res_a, trace_a = run_once()
        res_b, trace_b = run_once()
        assert res_a.chosen == res_b.chosen
        assert res_a.value == res_b.value
        assert [(e.round, e.subset.indices, e.value) for e in trace_a] == [
            (e.round, e.subset.indices, e.value) for e in trace_b
        ]


class TestRunSearch:
    def test_r1_returns_zero_singleton(self):
        sample, specs, _ = _pca_instance(seed=21)
        fitted = fit_fpca(sample, 3)
        result = run_search(
            sample, specs, Objective("pca", fitted),
            _config(epsilon_tol=0.05, d1=1, r=1, d_max=3, seed=1),
        )
        assert result.satisfied
        assert len(result.chosen) == 1
        assert result.value.rescaled == 0.0

    def test_determinism_end_to_end(self):
        def run_once():
            sample, specs, _ = _pca_instance(seed=22)
            fitted = fit_fpca(sample, 3)
            return run_search(
                sample, specs, Objective("pca", fitted),
                _config(epsilon_tol=1e-6, d1=1, n_keep=2, n_branch=3,
                        r=6, d_max=4, max_rounds=3, seed=123),
            )

        a, b = run_once(), run_once()
        assert a.satisfied == b.satisfied
        assert a.chosen == b.chosen and a.value == b.value
        assert [(e.round, e.subset.indices, e.value) for e in a.trace] == [
            (e.round, e.subset.indices, e.value) for e in b.trace
        ]

    def test_best_seen_non_increasing_over_rounds(self):
        sample, specs, _ = _pca_instance(seed=23)
        fitted = fit_fpca(sample, 3)
        result = run_search(
            sample, specs, Objective("pca", fitted),
            _config(epsilon_tol=1e-9, d1=1, n_keep=2, n_branch=3,
                    r=6, d_max=5, max_rounds=4, seed=3),
        )
        n_rounds = max(e.round for e in result.trace)
        best_so_far = math.inf
        per_round_best = []
        for rnd in range(n_rounds + 1):
            entries = [e for e in result.trace if e.round == rnd]
            if entries:
                best_so_far = min(
                    best_so_far, min(e.value.rescaled for e in entries)
                )
            per_round_best.append(best_so_far)
        assert per_round_best == sorted(per_round_best, reverse=True)

    def test_satisfied_has_no_smaller_satisfying_cardinality(self):
        sample, specs, _ = _pca_instance(seed=24)
        fitted = fit_fpca(sample, 3)
        result = run_search(
            sample, specs, Objective("pca", fitted),
            _config(epsilon_tol=0.35, d1=1, n_keep=2, n_branch=3,
                    r=8, d_max=5, max_rounds=6, seed=4),
        )
        if result.satisfied:
            smaller = [
                e for e in result.trace
                if e.value.rescaled < 0.35 and len(e.subset) < len(result.chosen)
            ]
            assert smaller == []

    def test_pure_exhaustive_equals_enumeration(self):
        sample, specs, evaluate = _pca_instance(seed=25)
        fitted = fit_fpca(sample, 3)
        result = run_search(
            sample, specs, Objective("pca", fitted),
            _config(epsilon_tol=math.inf, d1=2, d_max=2, r=6, seed=0),
        )
        ranked = sorted(
            ((e.subset, e.value.rescaled) for e in result.trace),
            key=lambda sv: (sv[1], len(sv[0]), sv[0].indices),
        )
        assert ranked == enumerate_all(evaluate, len(specs), 2)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="d1"):
            _config(d1=5, d_max=3).validate(8)
        with pytest.raises(ValueError, match="epsilon"):
            _config(epsilon_tol=0.0).validate(8)
        with pytest.raises(ValueError, match="n_branch"):
            _config(n_branch=9).validate(8)


def _objective_of_kind(name, sample):
    """Each objective kind, and both classifier kinds, fitted on `sample`."""
    g = sample.grid
    if name == "pca":
        return Objective("pca", fit_fpca(sample, 3))
    if name == "reg-scalar":
        y = sample.curves @ (g.weights * np.sin(3.0 * g.points))
        return Objective("reg-scalar", fit_scalar_regression(sample, y, 3))
    if name == "reg-fun":
        y_grid = Grid.uniform(0.0, 2.0, 17)
        surface = np.outer(np.cos(g.points), np.sin(y_grid.points))
        y = FunctionalSample(y_grid, (sample.curves * g.weights) @ surface)
        return Objective("reg-fun", fit_functional_regression(sample, y, 3, 2))
    labels = (sample.curves[:, 10] > 0).astype(int)
    return Objective("classify", fit_classifier(sample, labels, kind=name, k=5))


class TestMakeEvaluator:
    @pytest.mark.parametrize(
        "name", ["pca", "reg-scalar", "reg-fun", "nearest_centroid", "knn"]
    )
    def test_matches_objective_on_blinded_curves(self, name):
        g = Grid.uniform(0.0, 1.0, 41)
        model = KlModel(g, np.zeros(41), fourier_basis(g, 3), np.array([9.0, 4.0, 1.0]))
        sample = simulate(model, 90, 7)
        specs = [parse_feature(t) for t in ("point@5", "point@20", "point@33", "upx@0.0")]
        fm = build_feature_matrix(sample, specs)
        objective = _objective_of_kind(name, sample)
        evaluate = make_evaluator(sample, fm, objective, 8)
        for combo in ((0,), (1,), (3,), (0, 2), (1, 3), (0, 1, 2, 3)):
            subset = SubsetIndex(combo)
            got = evaluate(subset)
            want = objective.evaluate(sample, blind_sample(sample, fm, subset, 8))
            if objective.kind == "classify":
                assert got == want
            else:
                assert got.raw == pytest.approx(want.raw, rel=1e-12, abs=0.0)
                assert got.rescaled == pytest.approx(want.rescaled, rel=1e-12, abs=0.0)

    def test_memory_stays_below_the_curve_gather(self):
        # averaging curves would gather n*r*N floats (64 MB here)
        n, r, n_pts = 400, 100, 201
        g = Grid.uniform(0.0, 1.0, n_pts)
        model = KlModel(g, np.zeros(n_pts), fourier_basis(g, 3), np.array([9.0, 4.0, 1.0]))
        sample = simulate(model, n, 0)
        fm = build_feature_matrix(sample, [PointEval(50), PointEval(150)])
        evaluate = make_evaluator(sample, fm, Objective("pca", fit_fpca(sample, 3)), r)
        tracemalloc.start()
        try:
            evaluate(SubsetIndex.of([0, 1]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * r * n_pts * 8 / 10

    def test_memory_stays_below_the_output_gather(self):
        # pca outputs are n*m scores; their whole n*r*m gather is 7.6 MB here
        n, r, m, n_pts = 2000, 159, 3, 41
        g = Grid.uniform(0.0, 1.0, n_pts)
        model = KlModel(g, np.zeros(n_pts), fourier_basis(g, 3), np.array([9.0, 4.0, 1.0]))
        sample = simulate(model, n, 0)
        fm = build_feature_matrix(sample, [PointEval(10), PointEval(30)])
        evaluate = make_evaluator(sample, fm, Objective("pca", fit_fpca(sample, m)), r)
        tracemalloc.start()
        try:
            evaluate(SubsetIndex.of([0, 1]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * r * m * 8
