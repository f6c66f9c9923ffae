"""Principal components analysis via singular value decomposition.

Implements the paper's PCA step: transform the (normalized)
characteristics into uncorrelated principal components ordered by
variance, retain the components whose standard deviation exceeds a
threshold (1.0 — the Kaiser criterion on a correlation-matrix PCA), and
re-normalize the retained scores to produce the *rescaled PCA space* in
which all distances are computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .normalize import Normalizer


@dataclass(frozen=True)
class PCAModel:
    """A fitted PCA: loadings, per-component standard deviations.

    ``components`` has shape ``(n_features, n_components)``; column j is
    the loading vector of principal component j.  ``stds`` are the
    standard deviations of the component scores on the fitted data.
    """

    normalizer: Normalizer
    components: np.ndarray
    stds: np.ndarray
    explained_ratio: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[1]

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """Project (raw) rows into component scores."""
        return self.normalizer.transform(matrix) @ self.components

    def retained(self, min_std: float) -> "PCAModel":
        """Return a model keeping only components with std > ``min_std``.

        At least one component is always kept (the most significant),
        so downstream distance computations never collapse to zero
        dimensions.
        """
        keep = self.stds > min_std
        if not keep.any():
            keep = np.zeros_like(keep)
            keep[0] = True
        return PCAModel(
            normalizer=self.normalizer,
            components=self.components[:, keep],
            stds=self.stds[keep],
            explained_ratio=self.explained_ratio[keep],
        )


def fit_pca(matrix: np.ndarray) -> PCAModel:
    """Fit PCA to ``matrix`` (rows = observations, columns = features).

    The input is z-scored first (correlation-matrix PCA), matching the
    paper's "it is appropriate to normalize the data set prior to PCA".
    """
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n, p = matrix.shape
    if n < 2:
        raise ValueError("PCA requires at least two observations")
    normalizer = Normalizer.fit(matrix)
    z = normalizer.transform(matrix)
    # Economy SVD: z = U S Vt; scores = U S; loadings = V.
    _, s, vt = np.linalg.svd(z, full_matrices=False)
    stds = s / np.sqrt(n - 1)
    var = stds**2
    total = var.sum()
    explained = var / total if total > 0 else np.zeros_like(var)
    return PCAModel(
        normalizer=normalizer,
        components=vt.T,
        stds=stds,
        explained_ratio=explained,
    )


class GramPCA:
    """Rescaled-PCA spaces for column subsets from one precomputed Gram.

    Fitting :func:`rescaled_pca_space` to ``matrix[:, mask]`` from
    scratch costs an SVD of an ``(n, m)`` submatrix per mask.  Because
    z-scoring is column-independent, the z-scored submatrix equals
    ``Z[:, mask]`` of the full-matrix ``Z``, so the masked
    correlation-matrix PCA is the eigendecomposition of the ``(m, m)``
    Gram block ``G[mask][:, mask]`` with ``G = Zᵀ Z`` — built once,
    independent of ``n`` per mask.  Spaces agree with the SVD path up
    to component sign/order and rounding, which leaves every distance
    in the space unchanged to numerical precision.
    """

    def __init__(self, matrix: np.ndarray, *, min_std: float = 1.0) -> None:
        if matrix.ndim != 2 or len(matrix) < 2:
            raise ValueError("expected a 2-D matrix with at least two rows")
        self.z = Normalizer.fit(matrix).transform(matrix)
        self.gram = self.z.T @ self.z
        self.n = len(matrix)
        self.min_std = min_std

    @property
    def n_features(self) -> int:
        return self.gram.shape[1]

    def _rescale(self, cols: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
        """Project Z[:, cols] onto the retained components and z-score."""
        stds = np.sqrt(np.maximum(eigvals, 0.0) / (self.n - 1))
        keep = stds > self.min_std
        if not keep.any():
            # Always keep the most significant component (eigh returns
            # eigenvalues ascending, so that is the last one).
            keep[-1] = True
        scores = self.z[:, cols] @ eigvecs[:, keep]
        # Centre once and take the population std from the centred copy.
        # These are the reductions ``scores.mean(axis=0)`` and
        # ``scores.std(axis=0)`` run inside, so the result is bit-identical.
        centred = scores - np.add.reduce(scores, axis=0) / self.n
        std = np.sqrt(np.add.reduce(centred * centred, axis=0) / self.n)
        scale = np.where(std > 0, std, 1.0)
        return centred / scale

    def space(self, mask: np.ndarray) -> np.ndarray:
        """Rescaled PCA space of the columns selected by boolean ``mask``."""
        cols = np.flatnonzero(mask)
        if len(cols) == 0:
            raise ValueError("mask selects no columns")
        g = self.gram[np.ix_(cols, cols)]
        eigvals, eigvecs = np.linalg.eigh(g)
        return self._rescale(cols, eigvals, eigvecs)

    def spaces(self, masks) -> list:
        """Rescaled spaces for many masks, batching same-size eigh calls.

        Masks sharing a cardinality are decomposed with one stacked
        :func:`np.linalg.eigh` over a ``(batch, m, m)`` Gram tensor.
        Returns spaces in input order.
        """
        masks = list(masks)
        groups: dict = {}
        for i, mask in enumerate(masks):
            cols = np.flatnonzero(mask)
            if len(cols) == 0:
                raise ValueError("mask selects no columns")
            groups.setdefault(len(cols), []).append((i, cols))
        out = [None] * len(masks)
        for entries in groups.values():
            cols_stack = np.stack([cols for _, cols in entries])
            grams = self.gram[cols_stack[:, :, None], cols_stack[:, None, :]]
            eigvals, eigvecs = np.linalg.eigh(grams)
            for (i, cols), w, v in zip(entries, eigvals, eigvecs):
                out[i] = self._rescale(cols, w, v)
        return out


def rescaled_pca_space(matrix: np.ndarray, *, min_std: float = 1.0) -> np.ndarray:
    """The paper's full transform: normalize -> PCA -> retain -> rescale.

    Returns the rescaled scores of ``matrix``'s own rows: every retained
    component is z-scored so all underlying program characteristics get
    equal weight in subsequent distance computations.
    """
    model = fit_pca(matrix).retained(min_std)
    scores = model.transform(matrix)
    std = scores.std(axis=0)
    scale = np.where(std > 0, std, 1.0)
    return (scores - scores.mean(axis=0)) / scale
