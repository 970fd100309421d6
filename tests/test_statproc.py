import numpy as np
import pytest

from funsel import (
    FunctionalSample,
    Grid,
    center,
    classify,
    classify_batch,
    fit_classifier,
    fit_fpca,
    fit_functional_regression,
    fit_scalar_regression,
    fpca_scores,
    inner_product,
    predict_functional,
    predict_scalar,
)
from funsel.oracle import KlModel, fourier_basis, simulate
from funsel.statproc import _sq_dists_to, components_for_variance, fpca_scores_matrix


def _kl_sample(n, n_points=51, variances=(4.0, 1.0), seed=0, noise_sd=0.0):
    g = Grid.uniform(0.0, 1.0, n_points)
    basis = fourier_basis(g, len(variances))
    model = KlModel(g, np.zeros(n_points), basis, np.array(variances), noise_sd)
    return simulate(model, n, seed), model


def _eigen_residual(sample, model):
    """Independent check: a_k must solve C W a = lambda a for C = Xc'Xc/n."""
    centered, _ = center(sample)
    xc = centered.curves
    cov = xc.T @ xc / sample.n
    w = sample.grid.weights
    worst = 0.0
    for lam, func in zip(model.eigenvalues, model.eigenfunctions):
        res = cov @ (w * func) - lam * func
        worst = max(worst, np.abs(res).max())
    return worst


class TestFitFpca:
    def test_symmetric_pair_rank_one(self):
        g = Grid.uniform(0.0, 1.0, 101)
        phi = fourier_basis(g, 1)[0]
        sample = FunctionalSample(g, np.array([phi, -phi]))
        model = fit_fpca(sample, 1)
        assert model.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        aligned = min(
            np.abs(model.eigenfunctions[0] - phi).max(),
            np.abs(model.eigenfunctions[0] + phi).max(),
        )
        assert aligned < 1e-8

    def test_recovers_kl_spectrum(self):
        sample, truth = _kl_sample(800, seed=42)
        model = fit_fpca(sample, 2)
        for lam, lam_true in zip(model.eigenvalues, truth.variances):
            assert abs(lam - lam_true) / lam_true < 0.15
        for func, func_true in zip(model.eigenfunctions, truth.basis):
            err = min(
                np.sqrt(inner_product(func - func_true, func - func_true, sample.grid)),
                np.sqrt(inner_product(func + func_true, func + func_true, sample.grid)),
            )
            assert err < 0.2

    def test_single_curve_all_zero_eigenvalues(self):
        g = Grid.uniform(0.0, 1.0, 21)
        sample = FunctionalSample(g, np.array([np.sin(g.points)]))
        model = fit_fpca(sample, 1)
        assert model.eigenvalues[0] == 0.0
        gram = (model.eigenfunctions * g.weights) @ model.eigenfunctions.T
        assert np.abs(gram - np.eye(1)).max() < 1e-8

    def test_orthonormality_and_trace_bound(self):
        for n, n_points in [(16, 33), (60, 33)]:  # dual and primal paths
            sample, _ = _kl_sample(n, n_points, seed=7)
            l = min(n, n_points) if n < n_points else 10
            model = fit_fpca(sample, l)
            w = sample.grid.weights
            gram = (model.eigenfunctions * w) @ model.eigenfunctions.T
            assert np.abs(gram - np.eye(l)).max() < 1e-8
            assert np.all(np.diff(model.eigenvalues) <= 1e-12)
            assert model.eigenvalues.sum() <= model.total_variance + 1e-8

    def test_solves_weighted_eigenproblem_both_paths(self):
        dual, _ = _kl_sample(16, 33, seed=3)
        primal, _ = _kl_sample(60, 33, seed=3)
        assert _eigen_residual(dual, fit_fpca(dual, 5)) < 1e-10
        assert _eigen_residual(primal, fit_fpca(primal, 5)) < 1e-10

    def test_l_out_of_range(self):
        sample, _ = _kl_sample(10, 21)
        with pytest.raises(ValueError, match="1 <= l"):
            fit_fpca(sample, 11)


class TestScores:
    def test_mean_curve_scores_zero(self):
        sample, _ = _kl_sample(50, seed=1)
        model = fit_fpca(sample, 2)
        assert np.allclose(fpca_scores(model, model.mean), 0.0, atol=1e-12)

    def test_mean_plus_eigenfunction(self):
        sample, _ = _kl_sample(50, seed=1)
        model = fit_fpca(sample, 2)
        got = fpca_scores(model, model.mean + model.eigenfunctions[0])
        assert got == pytest.approx([1.0, 0.0], abs=1e-8)

    def test_matches_direct_quadrature(self):
        sample, _ = _kl_sample(50, seed=1)
        model = fit_fpca(sample, 2)
        rng = np.random.default_rng(6)
        x = rng.normal(size=sample.grid.n_points)
        got = fpca_scores(model, x)
        want = [
            inner_product(func, x - model.mean, sample.grid)
            for func in model.eigenfunctions
        ]
        assert got == pytest.approx(want, abs=1e-12)

    def test_training_scores_uncorrelated(self):
        sample, _ = _kl_sample(100, seed=12)
        model = fit_fpca(sample, 2)
        scores = fpca_scores_matrix(model, sample.curves)
        cross = scores.T @ scores / sample.n
        off = cross[0, 1] / np.sqrt(cross[0, 0] * cross[1, 1])
        assert abs(off) < 1e-6

    def test_full_rank_reconstruction(self):
        sample, _ = _kl_sample(12, 31, seed=9)
        model = fit_fpca(sample, 12)
        scores = fpca_scores_matrix(model, sample.curves)
        rebuilt = model.mean + scores @ model.eigenfunctions
        assert np.abs(rebuilt - sample.curves).max() < 1e-8


class TestScalarRegression:
    def test_noiseless_in_sample_exact(self):
        sample, truth = _kl_sample(120, variances=(4.0, 2.0, 1.0), seed=17)
        beta_true = 2.0 * truth.basis[0] - 1.5 * truth.basis[2]
        w = sample.grid.weights
        y = sample.curves @ (w * beta_true)
        model = fit_scalar_regression(sample, y, n_components=3)
        pred = predict_scalar(model, sample.curves)
        rel = np.abs(pred - y).max() / np.abs(y).max()
        assert rel < 1e-6

    def test_constant_response(self):
        sample, _ = _kl_sample(40, seed=3)
        model = fit_scalar_regression(sample, np.full(40, 7.5), n_components=2)
        assert np.allclose(model.beta, 0.0, atol=1e-10)
        assert model.intercept == pytest.approx(7.5)

    def test_one_component_closed_form(self):
        g = Grid.uniform(0.0, 1.0, 101)
        phi = fourier_basis(g, 1)[0]
        rng = np.random.default_rng(14)
        a = rng.normal(size=30)
        sample = FunctionalSample(g, a[:, None] * phi[None, :])
        model = fit_scalar_regression(sample, a, n_components=1)
        aligned = min(np.abs(model.beta - phi).max(), np.abs(model.beta + phi).max())
        assert aligned < 1e-8
        assert predict_scalar(model, sample.curves) == pytest.approx(a, abs=1e-8)

    def test_rank_deficiency_warns(self):
        g = Grid.uniform(0.0, 1.0, 21)
        sample = FunctionalSample(g, np.zeros((5, 21)) + np.sin(g.points))
        with pytest.warns(UserWarning, match="rank-deficient"):
            model = fit_scalar_regression(sample, np.arange(5.0), n_components=2)
        assert np.allclose(model.beta, 0.0)

    def test_needs_components_below_n(self):
        sample, _ = _kl_sample(5, seed=3)
        with pytest.raises(ValueError, match="n_components < n"):
            fit_scalar_regression(sample, np.arange(5.0), n_components=5)


class TestFunctionalRegression:
    def test_zero_response(self):
        sample, _ = _kl_sample(30, seed=5)
        g_y = Grid.uniform(0.0, 2.0, 21)
        y = FunctionalSample(g_y, np.zeros((30, 21)))
        model = fit_functional_regression(sample, y, 2, 1)
        assert np.allclose(model.beta_surface, 0.0, atol=1e-12)

    def test_identity_telescopes_to_reconstruction(self):
        sample, _ = _kl_sample(60, variances=(4.0, 1.0), seed=8)
        model = fit_functional_regression(sample, sample, 2, 2)
        pred = predict_functional(model, sample.curves)
        fpca = fit_fpca(sample, 2)
        scores = fpca_scores_matrix(fpca, sample.curves)
        rebuilt = fpca.mean + scores @ fpca.eigenfunctions
        assert np.abs(pred - rebuilt).max() < 1e-8

    def test_rank_one_surface_closed_form(self):
        sample, _ = _kl_sample(60, variances=(4.0, 1.0), seed=15)
        g_y = Grid.uniform(0.0, 1.0, 41)
        psi = fourier_basis(g_y, 1)[0]
        x_model = fit_fpca(sample, 1)
        xi = fpca_scores_matrix(x_model, sample.curves)[:, 0]
        c = 0.75
        y = FunctionalSample(g_y, c * xi[:, None] * psi[None, :])
        model = fit_functional_regression(sample, y, 1, 1)
        expected = c * np.outer(x_model.eigenfunctions[0], psi)
        wx, wy = sample.grid.weights, g_y.weights
        num = np.sum(wx[:, None] * wy[None, :] * (model.beta_surface - expected) ** 2)
        den = np.sum(wx[:, None] * wy[None, :] * expected**2)
        assert np.sqrt(num / den) < 1e-6

    def test_requires_paired_samples(self):
        sample, _ = _kl_sample(30, seed=5)
        g_y = Grid.uniform(0.0, 1.0, 11)
        y = FunctionalSample(g_y, np.zeros((29, 11)))
        with pytest.raises(ValueError, match="paired"):
            fit_functional_regression(sample, y, 1, 1)


class TestClassifier:
    def _labeled_gaussians(self, n=60, seed=20):
        g = Grid.uniform(0.0, 1.0, 41)
        basis = fourier_basis(g, 2)
        rng = np.random.default_rng(seed)
        shift = 1.5 * basis[0]
        xi = rng.normal(size=(n, 2)) * np.sqrt([0.5, 0.2])
        labels = rng.integers(0, 2, size=n)
        curves = xi @ basis + np.where(labels[:, None] == 1, shift, -shift)
        return FunctionalSample(g, curves), labels, g

    def test_singleton_classes_are_their_centroids(self):
        g = Grid.uniform(0.0, 1.0, 11)
        curves = np.array([np.sin(g.points), np.cos(g.points)])
        sample = FunctionalSample(g, curves)
        model = fit_classifier(sample, [0, 1])
        assert np.array_equal(model.centroids, curves)
        assert classify(model, curves[0]) == 0
        assert classify(model, curves[1]) == 1

    def test_knn1_returns_own_label(self):
        sample, labels, _ = self._labeled_gaussians()
        model = fit_classifier(sample, labels, kind="knn", k=1)
        got = classify_batch(model, sample.curves)
        assert np.array_equal(got, labels)

    def test_nearest_centroid_beats_chance(self):
        sample, labels, g = self._labeled_gaussians(n=200, seed=33)
        model = fit_classifier(sample, labels)
        test_sample, test_labels, _ = self._labeled_gaussians(n=200, seed=34)
        err = np.mean(classify_batch(model, test_sample.curves) != test_labels)
        assert err < 0.25

    def test_midpoint_tie_goes_to_smaller_label(self):
        g = Grid.uniform(0.0, 1.0, 11)
        up = np.ones(11)
        sample = FunctionalSample(g, np.array([up, -up]))
        model = fit_classifier(sample, [5, 2])
        assert classify(model, np.zeros(11)) == 2

    def test_matches_brute_force_distances(self):
        sample, labels, g = self._labeled_gaussians(n=40, seed=40)
        model = fit_classifier(sample, labels, kind="knn", k=5)
        rng = np.random.default_rng(41)
        x = rng.normal(size=g.n_points)
        d2 = ((sample.curves - x) ** 2) @ g.weights
        order = sorted(range(40), key=lambda m: (d2[m], m))[:5]
        votes = labels[order]
        counts = {c: (votes == c).sum() for c in np.unique(labels)}
        want = min(counts, key=lambda c: (-counts[c], c))
        assert classify(model, x) == want

    def test_knn_votes_match_lexsort_reference(self):
        # 3 copies of each curve with mixed labels: tied distances straddle
        # the k-th place, so the smaller index must decide who votes
        g = Grid.uniform(0.0, 1.0, 21)
        rng = np.random.default_rng(60)
        base = rng.integers(-2, 3, size=(12, g.n_points)).astype(float)
        train = FunctionalSample(g, np.repeat(base, 3, axis=0))
        labels = rng.integers(0, 3, size=36)
        queries = np.vstack([base, base[:6] + 0.5, rng.normal(size=(10, g.n_points))])
        for k in (1, 2, 4, 5, 36):
            model = fit_classifier(train, labels, kind="knn", k=k)
            d2 = _sq_dists_to(model.train_curves, queries, g.weights)
            idx = np.arange(36)
            want = []
            for q in range(queries.shape[0]):
                votes = labels[np.lexsort((idx, d2[q]))[:k]]
                counts = np.array([(votes == c).sum() for c in model.classes])
                want.append(model.classes[int(np.argmax(counts))])
            assert np.array_equal(classify_batch(model, queries), want)
        ordered = np.sort(d2, axis=1)
        assert np.any(ordered[:, 3] == ordered[:, 4])

    def test_constant_shift_invariance(self):
        sample, labels, g = self._labeled_gaussians(n=50, seed=50)
        model = fit_classifier(sample, labels)
        shift = 3.0 * np.cos(g.points)
        shifted = FunctionalSample(g, sample.curves + shift)
        model_shifted = fit_classifier(shifted, labels)
        rng = np.random.default_rng(51)
        queries = rng.normal(size=(20, g.n_points))
        got = classify_batch(model, queries)
        got_shifted = classify_batch(model_shifted, queries + shift)
        assert np.array_equal(got, got_shifted)

    def test_single_class_rejected(self):
        g = Grid.uniform(0.0, 1.0, 11)
        sample = FunctionalSample(g, np.ones((3, 11)))
        with pytest.raises(ValueError, match="two classes"):
            fit_classifier(sample, [1, 1, 1])


def test_components_for_variance():
    eig = np.array([90.0, 9.0, 1.0])
    assert components_for_variance(eig, 0.89) == 1
    assert components_for_variance(eig, 0.99) == 2
    assert components_for_variance(eig, 0.999) == 3
    assert components_for_variance(np.zeros(3)) == 1
