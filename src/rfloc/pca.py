"""Principal component analysis for exporting low-dimensional views of
spectrum fingerprints.

Implemented as an eigendecomposition of the m x m sample covariance; the
feature dimension here is at most a few hundred frequencies, so this is both
simpler and faster than an SVD of the data matrix. A deterministic sign
convention keeps output bit-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _check_count, _matrix


@dataclass(frozen=True)
class PcaModel:
    """Fitted projection: column means, orthonormal component rows, and the
    variance each component explains."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    explained_ratio: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def pca_fit(features, n_components: int) -> PcaModel:
    """Fit a PCA projection onto the top n_components directions.

    Columns are centered by their means; components are eigenvectors of the
    sample covariance (divisor n - 1) sorted by descending eigenvalue. Each
    component is flipped so its largest-magnitude entry is positive. Raises
    ValueError, as _matrix, on features that are not 2-D or hold a
    non-finite value (naming it with its row and column), and on fewer than
    2 rows or a bad n_components.
    """
    X = _matrix("pca_fit", "features", features)
    n, m = X.shape
    if n < 2:
        raise ValueError(f"pca needs at least 2 rows, got {n}")
    _check_count("n_components", n_components, 1, min(n - 1, m))

    mean = X.mean(axis=0)
    centered = X - mean
    cov = (centered.T @ centered) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    variances = np.maximum(eigvals[order], 0.0)
    components = eigvecs[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0

    total = float(np.trace(cov))
    if total <= 0.0:
        raise ValueError("features have zero total variance; nothing to project")
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance=variances,
        explained_ratio=variances / total,
    )


def pca_transform(model: PcaModel, features) -> np.ndarray:
    """Project rows onto the fitted components: (features - mean) @ components.T.

    Raises ValueError, as _matrix, on features that are not 2-D, not of the
    fitted width, or hold a non-finite value.
    """
    X = _matrix("pca_transform", "features", features, model.mean.size)
    return (X - model.mean) @ model.components.T
