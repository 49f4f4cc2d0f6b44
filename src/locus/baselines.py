"""FastICA on vectorized connectivity, the unstructured comparison method.

Treats the p edges of the whitened data as samples and extracts q
independent edge-space components with the symmetric (parallel) fixed-point
iteration and the tanh contrast (Hyvarinen & Oja 2000).  That iteration
needs white input, and the rows of the whitened data are not white over
the edges: the sources have non-zero mean edges, so their centred rows
correlate.  The rows are therefore centred and whitened here by the
symmetric (ZCA) transform C^(-1/2), C = Z Z^T / p, which unlike PCA
whitening does not depend on eigenvector signs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DimensionError, ValidationError
from .preprocess import WhitenedData, _polar_orthogonalize

# the iteration stops once every unmixing row moves by less than this
TOL = 1e-6
# centred rows whose covariance has an eigenvalue at or below this fraction
# of the largest are dependent (or zero) and cannot be whitened
WHITEN_RTOL = 1e-12


@dataclass(frozen=True)
class IcaModel:
    """sources: (q, p) recovered components; mixing: orthogonal (q, q)."""

    sources: np.ndarray
    mixing: np.ndarray
    converged: bool
    iterations: int


def fastica(whitened: WhitenedData, q: int, max_iter: int = 200,
            seed: int = 0) -> IcaModel:
    """Symmetric fixed-point FastICA with the tanh contrast on the centred,
    ZCA-whitened rows of ``whitened.y_tilde``.

    The returned sources are uncorrelated with unit variance over the
    edges.  Deterministic for a fixed seed.  Non-convergence after max_iter
    returns the last iterate with converged=False rather than raising;
    Gaussian-only data typically lands there.  Centred rows that are
    linearly dependent (or zero) raise ``DegeneracyError("singular_mixing")``.
    """
    if q != whitened.q:
        raise DimensionError("dimension_mismatch",
                             f"q={q} does not match whitened data (q={whitened.q})")
    if seed < 0:
        raise ValidationError("bad_config", f"seed must be >= 0, got {seed}")
    y = np.asarray(whitened.y_tilde, dtype=float)
    p = y.shape[1]

    z = y - y.mean(axis=1, keepdims=True)
    eigvals, eigvecs = np.linalg.eigh(z @ z.T / p)
    if eigvals[0] <= WHITEN_RTOL * eigvals[-1]:
        raise DegeneracyError("singular_mixing",
                              "centred rows are linearly dependent; "
                              f"covariance eigenvalues {eigvals[0]:.3e} to "
                              f"{eigvals[-1]:.3e}")
    z = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T @ z

    rng = np.random.default_rng(seed)
    w = _polar_orthogonalize(rng.standard_normal((q, q)))

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        wz = w @ z
        g = np.tanh(wz)
        g_prime = 1.0 - g ** 2
        w_new = (g @ z.T) / p - g_prime.mean(axis=1)[:, None] * w
        w_new = _polar_orthogonalize(w_new)
        # rows only rotate; convergence when each new row is (up to sign)
        # the old one
        gap = float(np.max(np.abs(np.abs(np.einsum("ij,ij->i", w_new, w)) - 1.0)))
        w = w_new
        if gap < TOL:
            converged = True
            break

    # the unmixing of the centred rows is W C^(-1/2); the polar factor of
    # its inverse C^(1/2) W^T is exactly W^T
    return IcaModel(sources=w @ z, mixing=w.T, converged=converged,
                    iterations=iterations)
