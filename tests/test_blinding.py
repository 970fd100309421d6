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
