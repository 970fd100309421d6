import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from funsel import (
    FunctionalSample,
    Grid,
    PointEval,
    SubsetIndex,
    blind_sample,
    build_feature_matrix,
    knn_indices,
    neighbor_sets,
    parse_feature,
)
from funsel import blinding
from funsel.blinding import neighbor_means
from funsel.features import FeatureMatrix
from funsel.oracle import KlModel, fourier_basis, simulate


def _three_lines():
    g = Grid.from_points([0.0, 1.0])
    curves = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    sample = FunctionalSample(g, curves)
    fm = build_feature_matrix(sample, [PointEval(0)])
    return sample, fm


def _brute_force_neighbors(values, j, r):
    """Independent scan: sort all rows by (distance, self-first, index)."""
    d = np.sqrt(((values - values[j]) ** 2).sum(axis=1))
    keyed = sorted(range(len(d)), key=lambda m: (d[m], m != j, m))
    return keyed[:r]


def _neighbor_order(features: np.ndarray, j: int) -> np.ndarray:
    """Row order by (distance to row j, self first, smaller index)."""
    diff = features - features[j]
    d2 = np.einsum("ij,ij->i", diff, diff)
    n = d2.size
    idx = np.arange(n)
    return np.lexsort((idx, idx != j, d2))


def _reference_rows(values, r, rows):
    """Full-sort reference for the given rows of the neighbor table."""
    features = np.ascontiguousarray(values, dtype=float)
    return np.array([_neighbor_order(features, j)[:r] for j in rows])


def _matrix(values):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(values, tuple(PointEval(i) for i in range(values.shape[1])))


def _all_columns(fm):
    return SubsetIndex.of(range(fm.p))


class TestSubsetIndex:
    def test_of_sorts(self):
        assert SubsetIndex.of([3, 1, 2]).indices == (1, 2, 3)

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SubsetIndex((1, 1))
        with pytest.raises(ValueError, match="at least one"):
            SubsetIndex(())

    def test_hashable_for_caching(self):
        assert len({SubsetIndex.of([0, 1]), SubsetIndex.of([1, 0])}) == 1


class TestKnnIndices:
    def test_r1_is_self(self):
        _, fm = _three_lines()
        for j in range(3):
            assert list(knn_indices(fm, SubsetIndex.of([0]), j, 1)) == [j]

    def test_tie_broken_toward_smaller_index(self):
        # middle row: self first, then the distance-1 tie goes to row 0
        _, fm = _three_lines()
        assert list(knn_indices(fm, SubsetIndex.of([0]), 1, 2)) == [1, 0]

    def test_r_equals_n_returns_all(self):
        _, fm = _three_lines()
        got = knn_indices(fm, SubsetIndex.of([0]), 0, 3)
        assert sorted(got) == [0, 1, 2]

    def test_r_too_large(self):
        _, fm = _three_lines()
        with pytest.raises(ValueError, match="1 <= r <= n"):
            knn_indices(fm, SubsetIndex.of([0]), 0, 4)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(11)
        g = Grid.uniform(0.0, 1.0, 8)
        sample = FunctionalSample(g, rng.normal(size=(40, 8)))
        fm = build_feature_matrix(sample, [PointEval(i) for i in range(5)])
        subset = SubsetIndex.of([0, 2, 4])
        for j in [0, 7, 39]:
            for r in [1, 3, 40]:
                got = list(knn_indices(fm, subset, j, r))
                want = _brute_force_neighbors(fm.values[:, [0, 2, 4]], j, r)
                assert got == want


class TestBlindSample:
    def test_r1_identity(self):
        sample, fm = _three_lines()
        blinded = blind_sample(sample, fm, SubsetIndex.of([0]), 1)
        assert np.array_equal(blinded.curves, sample.curves)

    def test_r_equals_n_gives_mean(self):
        sample, fm = _three_lines()
        blinded = blind_sample(sample, fm, SubsetIndex.of([0]), 3)
        mean = sample.curves.mean(axis=0)
        assert np.allclose(blinded.curves, mean[None, :], atol=1e-15)

    def test_hand_example_with_tie(self):
        sample, fm = _three_lines()
        blinded = blind_sample(sample, fm, SubsetIndex.of([0]), 2)
        expected = np.array([[0.5, 0.5], [0.5, 0.5], [1.5, 1.5]])
        assert np.array_equal(blinded.curves, expected)
        assert [j in blinded.neighbor_sets[j] for j in range(3)] == [True] * 3

    def test_neighbor_sets_are_self_inclusive(self):
        rng = np.random.default_rng(2)
        g = Grid.uniform(0.0, 1.0, 6)
        # duplicated feature rows: self must still come first
        curves = np.vstack([rng.normal(size=(4, 6))] * 2)
        sample = FunctionalSample(g, curves)
        fm = build_feature_matrix(sample, [PointEval(0)])
        blinded = blind_sample(sample, fm, SubsetIndex.of([0]), 1)
        assert np.array_equal(blinded.curves, sample.curves)

    def test_subset_column_out_of_range(self):
        sample, fm = _three_lines()
        with pytest.raises(ValueError, match="beyond p"):
            blind_sample(sample, fm, SubsetIndex.of([5]), 1)


def _random_walk_features(menu):
    """40 random walks: upx@0.0 takes few integer values, so ties abound."""
    rng = np.random.default_rng(4)
    g = Grid.uniform(0.0, 1.0, 21)
    sample = FunctionalSample(g, rng.normal(size=(40, 21)).cumsum(axis=1))
    return build_feature_matrix(sample, [parse_feature(t) for t in menu])


class TestNeighborSets:
    @pytest.mark.parametrize(
        "menu, tied", [(["point@3", "point@14"], False), (["upx@0.0"], True)]
    )
    def test_rows_match_knn_indices(self, menu, tied):
        fm = _random_walk_features(menu)
        assert (np.unique(fm.values, axis=0).shape[0] < fm.n) == tied
        subset = SubsetIndex.of(range(fm.p))
        table = neighbor_sets(fm, subset, 7)
        assert table.shape == (40, 7)
        for j in range(40):
            assert np.array_equal(table[j], knn_indices(fm, subset, j, 7))

    @pytest.mark.parametrize(
        "menu, tied", [(["point@3", "point@14"], False), (["upx@0.0"], True)]
    )
    def test_rows_match_lexsort_reference(self, menu, tied):
        fm = _random_walk_features(menu)
        assert (np.unique(fm.values, axis=0).shape[0] < fm.n) == tied
        for r in (1, 7, 40):
            want = _reference_rows(fm.values, r, range(40))
            assert np.array_equal(neighbor_sets(fm, _all_columns(fm), r), want)

    def test_one_row_per_block_when_a_row_exceeds_the_block(self):
        rng = np.random.default_rng(8)
        n, k = 4200, 8
        assert n * k > blinding._BLOCK
        values = rng.integers(0, 4, size=(n, k))  # heavy ties
        fm = _matrix(values)
        table = neighbor_sets(fm, _all_columns(fm), 50)
        rows = [0, 1, 2099, n - 2, n - 1]
        assert np.array_equal(table[rows], _reference_rows(fm.values, 50, rows))

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 30, 31])
    @pytest.mark.parametrize("r", [1, 5, 31])
    def test_block_edges(self, monkeypatch, rows, r):
        # 31 rows in blocks of `rows` query rows; mostly a ragged last block
        rng = np.random.default_rng(9)
        values = np.vstack([rng.normal(size=(15, 3))] * 2 + [rng.normal(size=(1, 3))])
        fm = _matrix(values)
        monkeypatch.setattr(blinding, "_BLOCK", rows * 31 * 3)
        want = _reference_rows(fm.values, r, range(31))
        assert np.array_equal(neighbor_sets(fm, _all_columns(fm), r), want)
        for j in (0, 15, 30):
            assert np.array_equal(knn_indices(fm, _all_columns(fm), j, r), want[j])


def _feature_values(draw, n, k):
    kind = draw(st.sampled_from(["continuous", "integers", "duplicates", "constant"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        return rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 4)
    if kind == "integers":
        return rng.integers(-2, 3, size=(n, k)).astype(float)
    if kind == "duplicates":
        base = rng.normal(size=(max(1, n // 3), k))
        return base[rng.integers(0, base.shape[0], size=n)]
    return np.full((n, k), float(rng.normal()))


@st.composite
def _neighbor_problems(draw):
    n = draw(st.integers(min_value=2, max_value=300))
    k = draw(st.integers(min_value=1, max_value=8))
    r = draw(st.integers(min_value=1, max_value=n))
    return _feature_values(draw, n, k), r


@settings(max_examples=60, deadline=None)
@given(problem=_neighbor_problems())
def test_neighbor_sets_match_lexsort_reference(problem):
    values, r = problem
    fm = _matrix(values)
    want = _reference_rows(fm.values, r, range(fm.n))
    assert np.array_equal(neighbor_sets(fm, _all_columns(fm), r), want)


class TestNeighborMeans:
    @pytest.mark.parametrize(
        "shape", [(50,), (50, 1), (50, 3), (50, 41), (7, 2, 5)]
    )
    @pytest.mark.parametrize("rows", [1, 3, 7, 50])
    def test_bit_identical_to_the_whole_gather(self, monkeypatch, shape, rows):
        rng = np.random.default_rng(12)
        values = rng.normal(size=shape)
        table = rng.integers(0, shape[0], size=(shape[0], 9))
        monkeypatch.setattr(blinding, "_BLOCK", rows * 9 * values[:1].size)
        assert np.array_equal(neighbor_means(values, table), values[table].mean(axis=1))

    def test_blind_sample_memory_stays_below_the_curve_gather(self):
        # the whole gather of n*r*N floats would be 64 MB here
        n, r, n_pts = 400, 100, 201
        g = Grid.uniform(0.0, 1.0, n_pts)
        model = KlModel(g, np.zeros(n_pts), fourier_basis(g, 3), np.array([9.0, 4.0, 1.0]))
        sample = simulate(model, n, 0)
        fm = build_feature_matrix(sample, [PointEval(50), PointEval(150)])
        tracemalloc.start()
        try:
            blind_sample(sample, fm, SubsetIndex.of([0, 1]), r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * r * n_pts * 8 / 10


@settings(max_examples=30, deadline=None)
@given(
    curves=arrays(
        np.float64,
        (9, 7),
        elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
    ),
    r=st.integers(min_value=1, max_value=9),
)
def test_envelope_property(curves, r):
    # each blinded value is a convex combination of observed values
    g = Grid.uniform(0.0, 1.0, 7)
    sample = FunctionalSample(g, curves)
    fm = build_feature_matrix(sample, [PointEval(0), PointEval(3)])
    blinded = blind_sample(sample, fm, SubsetIndex.of([0, 1]), r)
    lo = curves.min(axis=0) - 1e-9
    hi = curves.max(axis=0) + 1e-9
    assert np.all(blinded.curves >= lo[None, :])
    assert np.all(blinded.curves <= hi[None, :])


def test_permutation_equivariance_on_tie_free_data():
    rng = np.random.default_rng(21)
    g = Grid.uniform(0.0, 1.0, 12)
    curves = rng.normal(size=(25, 12))
    sample = FunctionalSample(g, curves)
    specs = [PointEval(2), PointEval(9)]
    subset = SubsetIndex.of([0, 1])
    blinded = blind_sample(sample, build_feature_matrix(sample, specs), subset, 4)

    perm = rng.permutation(25)
    permuted = FunctionalSample(g, curves[perm])
    blinded_perm = blind_sample(
        permuted, build_feature_matrix(permuted, specs), subset, 4
    )
    assert np.allclose(blinded_perm.curves, blinded.curves[perm], atol=1e-12)


def test_monotone_information_with_injective_features():
    # when features already identify every curve, r=1 blinding is the
    # identity for a subset and any superset alike
    rng = np.random.default_rng(4)
    g = Grid.uniform(0.0, 1.0, 10)
    sample = FunctionalSample(g, rng.normal(size=(15, 10)))
    fm = build_feature_matrix(sample, [PointEval(0), PointEval(5)])
    small = blind_sample(sample, fm, SubsetIndex.of([0]), 1)
    large = blind_sample(sample, fm, SubsetIndex.of([0, 1]), 1)
    assert np.array_equal(small.curves, sample.curves)
    assert np.array_equal(large.curves, sample.curves)
