"""Demeaning, dimension reduction and whitening of group connectivity data.

The N x p group matrix is demeaned per edge, then reduced to q rows through
the map H = (L_q - s2*I)^(-1/2) U_q', where U_q / L_q are the leading
eigenvectors / eigenvalues of the N x N Gram matrix of the demeaned data
and s2 is the residual variance, estimated as the average of the N-q
trailing eigenvalues.  Eigenvalues are of Yc Yc' without any 1/p scaling;
the whitened Gram H Yc Yc' H' is then exactly diag(l_k / (l_k - s2)).

The reduction acts on the subject domain only; the p edge columns pass
through untouched.  The demeaned data is never held whole: whitening,
mapping loadings back to subjects and the BIC each centre one block of
columns at a time (at most ``BLOCK_BYTES``) and use it at once, so the
dataset's own array is the only (N, p) copy alive.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .connmat import ConnectivityDataset
from .errors import DegeneracyError, DimensionError

# size of one centred column block; a dataset of at most this many bytes
# is centred in one block
BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class WhitenedData:
    """Reduced, whitened group data plus everything needed to undo it.

    y_tilde : (q, p) reduced data, rows uncorrelated by construction
    h : (q, N) whitening map
    col_means : (p,) removed group mean
    sigma2_resid : residual variance not captured by the q components
    eigvals_top : (q,) leading Gram eigenvalues, strictly decreasing
    data : (N, p) the dataset's own array, not a copy and not demeaned,
        kept for mapping loadings back to subject space
    """

    y_tilde: np.ndarray
    h: np.ndarray
    col_means: np.ndarray
    sigma2_resid: float
    eigvals_top: np.ndarray
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("y_tilde", "h", "col_means", "eigvals_top", "data"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def q(self) -> int:
        return self.y_tilde.shape[0]

    @property
    def n_edges(self) -> int:
        return self.y_tilde.shape[1]

    @property
    def n_subjects(self) -> int:
        return self.h.shape[1]


def _fix_eigvec_signs(vecs: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (deterministic
    output across BLAS builds)."""
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def _polar_orthogonalize(m: np.ndarray) -> np.ndarray:
    """Closest orthogonal matrix in Frobenius norm (symmetric/polar
    orthogonalization, order-independent across columns)."""
    u, svals, vt = np.linalg.svd(m)
    if svals[-1] <= 1e-12 * max(svals[0], np.finfo(float).tiny):
        raise DegeneracyError("singular_mixing",
                              "mixing estimate is rank deficient; cannot orthogonalize")
    return u @ vt


def _centered_blocks(data: np.ndarray, col_means: np.ndarray
                     ) -> Iterator[tuple[slice, np.ndarray]]:
    """Consecutive column slices ``cols`` of ``data`` (N, p), each with its
    block ``data[:, cols] - col_means[cols]``.  Every block is written into
    one buffer of at most BLOCK_BYTES (and at least one column), so use a
    block before taking the next; the caller may overwrite it."""
    n, p = data.shape
    width = min(p, max(1, BLOCK_BYTES // (data.itemsize * n)))
    buffer = np.empty((n, width))
    for start in range(0, p, width):
        cols = slice(start, min(start + width, p))
        block = buffer[:, :cols.stop - start]
        np.subtract(data[:, cols], col_means[cols], out=block)
        yield cols, block


def whiten(dataset: ConnectivityDataset, q: int) -> WhitenedData:
    """Demean, reduce to q dimensions and whiten the group data.

    Requires 1 <= q < N and a demeaned data rank of at least q+1 so that
    the q-th eigenvalue clears the residual variance.
    """
    y = dataset.data
    n = y.shape[0]
    if not 1 <= q < n:
        raise DimensionError("dimension_mismatch",
                             f"q must satisfy 1 <= q < N={n}, got {q}")
    col_means = y.mean(axis=0)
    gram = np.zeros((n, n))
    for _, block in _centered_blocks(y, col_means):
        gram += block @ block.T
    gram = (gram + gram.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(gram)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = _fix_eigvec_signs(eigvecs[:, order])

    sigma2 = float(np.mean(eigvals[q:]))
    sigma2 = max(sigma2, 0.0)
    top = eigvals[:q]
    gap_floor = 1e-12 * max(top[0], np.finfo(float).tiny)
    if top[-1] - sigma2 <= gap_floor or np.any(np.diff(top) >= 0):
        raise DegeneracyError(
            "rank_deficient",
            f"eigenvalue {q} ({top[-1]:.3e}) does not clear the residual "
            f"variance ({sigma2:.3e}); lower q")

    h = (1.0 / np.sqrt(top - sigma2))[:, None] * eigvecs[:, :q].T
    y_tilde = np.empty((q, y.shape[1]))
    for cols, block in _centered_blocks(y, col_means):
        y_tilde[:, cols] = h @ block
    return WhitenedData(y_tilde=y_tilde, h=h, col_means=col_means,
                        sigma2_resid=sigma2, eigvals_top=top, data=y)


def _source_gram_inverse(s: np.ndarray) -> np.ndarray:
    """(S S')^(-1) of the source rows ``s`` (q, p), the right factor of
    every least-squares regression Y S' (S S')^(-1) on the sources.
    Raises DegeneracyError
    naming the sources that are not finite or zero (norm <= 1e-14 *
    max(max norm, 1)), or the most correlated pair when
    s_min(S S') <= 1e-12 s_max."""
    norms = np.linalg.norm(s, axis=1)
    finite = np.isfinite(norms)
    scale = max(norms[finite].max(initial=0.0), 1.0)
    dead = np.flatnonzero(~finite | (norms <= 1e-14 * scale))
    if dead.size:
        raise DegeneracyError("singular_sources",
                              f"sources {dead.tolist()} are zero or not finite")
    gram = s @ s.T
    svals = np.linalg.svd(gram, compute_uv=False)
    if svals[-1] <= 1e-12 * svals[0]:
        corr = (s / norms[:, None]) @ (s / norms[:, None]).T
        np.fill_diagonal(corr, 0.0)
        i, j = np.unravel_index(int(np.argmax(np.abs(corr))), corr.shape)
        raise DegeneracyError("singular_sources",
                              f"sources {i} and {j} are linearly dependent "
                              f"(|corr| = {abs(corr[i, j]):.6f})")
    return np.linalg.inv(gram)


def _source_rows(whitened: WhitenedData, sources: np.ndarray) -> np.ndarray:
    """``sources`` as a float array; DimensionError unless it is (q, p) for
    the whitened data."""
    s = np.asarray(sources, dtype=float)
    if s.shape != (whitened.q, whitened.n_edges):
        raise DimensionError("dimension_mismatch",
                             f"sources must be {whitened.q} x "
                             f"{whitened.n_edges}, got {s.shape}")
    return s


def unmix_to_subject_space(whitened: WhitenedData,
                           sources: np.ndarray) -> np.ndarray:
    """Subject-level loadings A = Yc S' (S S')^(-1) of the (q, p) sources:
    least squares of the demeaned data on the source matrix, with Yc S'
    summed over centred column blocks.  Degenerate sources raise
    DegeneracyError.
    """
    s = _source_rows(whitened, sources)
    inverse = _source_gram_inverse(s)
    ys = np.zeros((whitened.data.shape[0], whitened.q))
    for cols, block in _centered_blocks(whitened.data, whitened.col_means):
        ys += block @ s[:, cols].T
    return ys @ inverse
