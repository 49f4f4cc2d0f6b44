"""FastICA on vectorized connectivity, the unstructured comparison method.

Treats the p edges of the whitened data as samples and extracts q
independent edge-space components with the symmetric (parallel) fixed-point
iteration and the tanh contrast.  Rows of the whitened data are mutually
uncorrelated by construction; they are centered and rescaled to unit
variance internally so the contrast operates in its intended regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .preprocess import WhitenedData, _polar_orthogonalize

# the iteration stops once every unmixing row moves by less than this
TOL = 1e-6


@dataclass(frozen=True)
class IcaModel:
    """sources: (q, p) recovered components; mixing: orthogonal (q, q)."""

    sources: np.ndarray
    mixing: np.ndarray
    converged: bool
    iterations: int


def fastica(whitened: WhitenedData, q: int, max_iter: int = 200,
            seed: int = 0) -> IcaModel:
    """Symmetric fixed-point FastICA with the tanh contrast.

    Deterministic for a fixed seed.  Non-convergence after max_iter returns
    the best iterate with converged=False rather than raising; Gaussian-only
    data typically lands there.
    """
    if q != whitened.q:
        raise DimensionError("dimension_mismatch",
                             f"q={q} does not match whitened data (q={whitened.q})")
    y = np.asarray(whitened.y_tilde, dtype=float)
    p = y.shape[1]

    z = y - y.mean(axis=1, keepdims=True)
    scale = np.sqrt(np.mean(z ** 2, axis=1, keepdims=True))
    scale[scale == 0] = 1.0
    z = z / scale

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

    return IcaModel(sources=w @ z, mixing=w.T, converged=converged,
                    iterations=iterations)
