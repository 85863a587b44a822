"""Principal component projection: orthonormality, variance bookkeeping."""

import re

import numpy as np
import pytest

from rfloc.pca import PcaModel, pca_fit, pca_transform


class TestPcaFit:
    def test_components_are_orthonormal(self, rng):
        X = rng.normal(size=(100, 6))
        model = pca_fit(X, 4)
        G = model.components @ model.components.T
        assert np.allclose(G, np.eye(4), atol=1e-10)

    def test_rank_one_data_fully_explained(self):
        t = np.arange(10.0)
        X = np.outer(t, [1.0, 2.0, -1.0]) + 5.0
        model = pca_fit(X, 1)
        assert model.explained_ratio[0] == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_line_component(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        model = pca_fit(X, 1)
        assert np.allclose(model.components[0], [1.0, 1.0] / np.sqrt(2.0), atol=1e-12)

    def test_matches_svd_of_centered_matrix(self, rng):
        X = rng.normal(size=(60, 5)) * np.array([3.0, 1.0, 0.5, 0.2, 0.1])
        model = pca_fit(X, 5)
        C = X - X.mean(axis=0)
        sv = np.linalg.svd(C, compute_uv=False)
        assert np.allclose(model.explained_variance, sv**2 / (60 - 1), atol=1e-8)

    def test_transformed_columns_carry_the_stated_variance(self, rng):
        X = rng.normal(size=(80, 4))
        model = pca_fit(X, 3)
        Z = pca_transform(model, X)
        assert np.allclose(Z.var(axis=0, ddof=1), model.explained_variance, atol=1e-8)
        # projections along distinct components are uncorrelated
        cov = np.cov(Z, rowvar=False)
        assert np.allclose(cov - np.diag(np.diag(cov)), 0.0, atol=1e-8)

    def test_variances_sorted_descending(self, rng):
        X = rng.normal(size=(50, 6))
        model = pca_fit(X, 6 - 1)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_sign_convention_and_determinism(self, rng):
        X = rng.normal(size=(40, 5))
        a = pca_fit(X, 3)
        b = pca_fit(X, 3)
        for row in a.components:
            assert row[np.argmax(np.abs(row))] > 0
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.explained_variance, b.explained_variance)

    def test_full_projection_reconstructs(self, rng):
        X = rng.normal(size=(50, 4))
        model = pca_fit(X, 4)
        Z = pca_transform(model, X)
        back = Z @ model.components + model.mean
        assert np.allclose(back, X, atol=1e-8)
        assert model.explained_ratio.sum() == pytest.approx(1.0, abs=1e-9)

    def test_partial_ratio_below_one(self, rng):
        X = rng.normal(size=(50, 5))
        model = pca_fit(X, 2)
        assert 0.0 < model.explained_ratio.sum() < 1.0

    def test_validation(self, rng):
        X = rng.normal(size=(10, 3))
        with pytest.raises(ValueError):
            pca_fit(X[0], 1)
        with pytest.raises(ValueError):
            pca_fit(X[:1], 1)
        with pytest.raises(ValueError):
            pca_fit(X, 0)
        with pytest.raises(ValueError):
            pca_fit(X, 4)  # above min(n - 1, m)
        with pytest.raises(ValueError):
            pca_fit(np.ones((5, 3)), 1)  # zero variance

    def test_n_components_must_be_an_integer_in_range(self, rng):
        X = rng.normal(size=(10, 3))
        for bad in (True, 2.5, "2", None):
            with pytest.raises(ValueError, match=re.escape(f"n_components must be an integer, got {bad!r}")):
                pca_fit(X, bad)
        for bad in (0, 4, -1):
            with pytest.raises(ValueError, match=re.escape(f"n_components must be in [1, 3], got {bad}")):
                pca_fit(X, bad)
        assert pca_fit(X, np.int64(2)).n_components == 2

    def test_non_finite_features_are_named(self, rng):
        X = rng.normal(size=(10, 3))
        for value in (np.nan, np.inf, -np.inf):
            bad = X.copy()
            bad[4, 2] = value
            with pytest.raises(ValueError, match=re.escape(
                    f"pca_fit: non-finite features value {value} at row 4, column 2")):
                pca_fit(bad, 2)


class TestPcaTransform:
    def test_mean_row_maps_to_origin(self, rng):
        X = rng.normal(size=(30, 4))
        model = pca_fit(X, 2)
        z = pca_transform(model, X.mean(axis=0)[None, :])
        assert np.allclose(z, 0.0, atol=1e-12)

    def test_width_checked(self, rng):
        model = pca_fit(rng.normal(size=(20, 4)), 2)
        with pytest.raises(ValueError):
            pca_transform(model, np.zeros((3, 5)))
        with pytest.raises(ValueError):
            pca_transform(model, np.zeros(4))

    def test_non_finite_query_is_named(self, rng):
        model = pca_fit(rng.normal(size=(20, 4)), 2)
        Q = np.zeros((3, 4))
        Q[2, 1] = np.nan
        with pytest.raises(ValueError, match=re.escape(
                "pca_transform: non-finite features value nan at row 2, column 1")):
            pca_transform(model, Q)

    def test_n_components_property(self, rng):
        model = pca_fit(rng.normal(size=(20, 4)), 3)
        assert isinstance(model, PcaModel)
        assert model.n_components == 3
