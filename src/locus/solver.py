"""Iterative node-rotation solver for sparse low-rank source separation.

Each latent source is a symmetric low-rank factorization X diag(d) X' whose
upper-triangle vector lives in edge space; stacked, they are the (q, p)
source rows S.  A fit is a start, one step per outer iteration and a
stopping rule, and :func:`_fit_cells` runs any number of fits (cells, such
as a tuning grid's) in lockstep; :func:`fit` is its one-cell call.  Each
cell's state is one :class:`_Cell` record, which every block updates in
place; an error that stops a cell goes to its ``error`` and leaves the
other cells running.  A step (:func:`_step`) updates, against fixed
targets A~' Y~, the latent node coordinates one node at a time
(Gauss-Seidel) and then the diagonal weights of every source; with the
targets fixed, one sweep updates node v of every source of every cell in
a batch at once (:func:`sweep_nodes`).  The cells' rows are then stacked
once, each reduced mixing matrix is re-estimated and orthogonalized from
them, and the next targets are computed once.

The arithmetic of a step runs as stacked passes over every running cell:
the thresholded target matrices, the warm rank checks, one node sweep per
width, one weight refit (:func:`update_d`) and one edge-vector pass per
rank, the mixing updates, the next targets, the objectives and the
relative changes.  The decisions stay per cell: the ranks, prune and
re-seed, the warnings, the errors and the stopping rule.  A stacked pass
that raises a cell error runs again cell by cell (:func:`_by_cell`), so
the error goes only to its own cell, and every cell's fit is, bit for
bit, the fit of that cell alone.

A step first re-selects each source's rank by the paper's rule, the
smallest eigen-truncation of its target within rho
(:func:`~locus.modelsel.select_rank`), whose full V x V eigh per source
per iteration is the costliest part of a step.  So each cell keeps, per
source, the top-k eigen or Ritz vectors of its last check, one (q, V, k)
``basis`` from the start (:class:`_Start`) on, and one warm check
batched over every source of every running cell
(:func:`~locus.modelsel._select_ranks`), which reads the step's stack of
target matrices in place, may confirm the current rank; everything else
runs the exact rule.  A step uses the exact rule's factor only when the
rank changes, so fits equal those of the exact rule bit for bit wherever
the two decisions agree.

Each node block is a least-squares solve against X(-v)' X(-v), X'X less
one rank-1 downdate.  The sweep's certified path solves it from a tracked
(X'X)^(-1) by Sherman-Morrison while a running bound certifies
cond(X(-v)' X(-v)) <= CERT, two decades inside the PINV_RTOL rule
(:func:`_pinv_rule`); its exact path solves an eigendecomposition of
X(-v)' X(-v) under the rule and restarts the tracking from it when it is
within CERT.  Each source takes its path and restarts its tracking on its
own, so its rows do not depend on the other sources of its sweep.  The
weight step solves for the per-component edge vectors Z under the same
rule, with Z'Z and Z't read from closed-form moments of X and the (V, V)
target (:func:`update_d`), so no p x R matrix is built.

The three regularizers share this loop.  Both block updates least-squares
project onto the current low-rank span; the variants differ only in the
penalty term (:data:`PENALTIES`) and in where one soft-threshold at phi/2
lands.  :func:`_step` reads the regularizer and hands each block kernel
a plain threshold (0 where the variant puts none):

* ``uniform_l1`` (default): element-wise L1 on the reconstructed source's
  edges.  :func:`_step` thresholds the projected targets' edges before both
  block updates.
* ``vector_l1``: L1 on the entries of the coordinate matrices X.  Each node
  row is thresholded after its unpenalized least-squares step (the
  ``shrink`` of :func:`sweep_nodes`).
* ``nuclear``: nuclear norm of the reconstructed source.  The diagonal
  weights are thresholded after their least-squares step (the ``shrink``
  of :func:`update_d`; valid while X stays near-orthonormal).
"""

from __future__ import annotations

import logging
import numbers
import os
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from . import baselines
from .connmat import (nodes_from_edge_count, read_csv, triu_flat, unvectorize,
                      vectorize, write_csv)
from .errors import (DegeneracyError, DimensionError, LocusError, NumericError,
                     ValidationError)
from .preprocess import (WhitenedData, _polar_orthogonalize, _source_gram_inverse,
                         _source_rows, unmix_to_subject_space)

logger = logging.getLogger(__name__)

PINV_RTOL = 1e-10
# condition-number bound under which sweep_nodes solves by its
# Sherman-Morrison inverse: two decades inside the PINV_RTOL rule
CERT = 1e-2 / PINV_RTOL
PRUNE_RTOL = 1e-10


def _check_penalty(phi: float, regularizer: str) -> None:
    if not 0 <= phi < np.inf:
        raise ValidationError("bad_config", f"phi must be finite and >= 0, got {phi}")
    if regularizer not in REGULARIZERS:
        raise ValidationError("bad_config",
                              f"unknown regularizer {regularizer!r}, "
                              f"expected one of {REGULARIZERS}")


class DegenerateSourceWarning(UserWarning):
    """A source collapsed to zero during thresholding and was re-seeded."""


@dataclass(frozen=True)
class LowRankSource:
    """One latent source: node coordinates ``x`` (V, R) and weights ``d`` (R,).

    Columns of ``x`` are renormalized to unit 2-norm on construction, with
    the scale absorbed into ``d`` (d_r <- d_r * |x_r|^2), which leaves the
    reconstructed matrix unchanged.  ``_edges`` is private: only
    :func:`_built_sources` passes it, the edge vector of factors it has
    already checked and normalized, which the constructor then keeps as
    they are.
    """

    x: np.ndarray
    d: np.ndarray
    _edges: InitVar[np.ndarray | None] = None

    def __post_init__(self, _edges):
        if _edges is None:
            x = np.atleast_2d(np.asarray(self.x, dtype=float))
            d = np.atleast_1d(np.asarray(self.d, dtype=float))
            x, d = _normalized(x[None], d[None])
            object.__setattr__(self, "x", x[0])
            object.__setattr__(self, "d", d[0])
        object.__setattr__(self, "_edge_vector", _edges)

    @property
    def rank(self) -> int:
        return self.d.shape[0]

    @property
    def node_count(self) -> int:
        return self.x.shape[0]

    def matrix(self) -> np.ndarray:
        """Full V x V reconstruction X diag(d) X' (diagonal included)."""
        return (self.x * self.d) @ self.x.T

    def edge_vector(self) -> np.ndarray:
        """Upper-triangle vector of the reconstruction (diagonal dropped).

        Computed once per instance and returned read-only."""
        if self._edge_vector is None:
            vec = _edge_vectors(self.x[None], self.d[None])[0]
            vec.setflags(write=False)
            object.__setattr__(self, "_edge_vector", vec)
        return self._edge_vector


def _unit_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` (..., V, R) with each nonzero column scaled to unit 2-norm, and
    the column norms (..., R), the bytes :func:`numpy.linalg.norm` gives."""
    norms = np.sqrt(np.add.reduce(x * x, axis=-2))
    return x / np.where(norms > 0, norms, 1.0)[..., None, :], norms


def _normalized(x: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stack of factors (n, V, R) and weights (n, R) as the
    :class:`LowRankSource` constructor keeps each: checked, with unit
    columns and the scale absorbed into the weights, read-only."""
    if x.ndim != 3 or d.ndim != 2 or x.shape[::2] != d.shape:
        raise DimensionError("dimension_mismatch",
                             f"factor shape {x.shape[1:]} incompatible with "
                             f"{d.shape[-1]} weights")
    if not 1 <= x.shape[2] < x.shape[1]:
        raise DimensionError("dimension_mismatch",
                             f"rank must lie in [1, V-1], got R={x.shape[2]} "
                             f"for V={x.shape[1]}")
    x, norms = _unit_columns(x)
    d = d * norms ** 2
    x.setflags(write=False)
    d.setflags(write=False)
    return x, d


def _edge_vectors(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Upper-triangle vectors (n, p) of X diag(d) X' (diagonal dropped)
    for a stack of factors ``x`` (n, V, R) and weights ``d`` (n, R)."""
    n, node_count, _ = x.shape
    m = (x * d[:, None, :]) @ x.transpose(0, 2, 1)
    return m.reshape(n, node_count * node_count)[:, triu_flat(node_count)[0]]


def _built_sources(x: np.ndarray, d: np.ndarray) -> list[LowRankSource]:
    """``LowRankSource(x[k], d[k])`` for each of a stack of factors
    (n, V, R) and weights (n, R) of equal rank, with its edge vector
    cached.  The stack is checked, normalized and reconstructed in one
    pass, which gives each source the bytes of its own construction."""
    x, d = _normalized(x, d)
    vecs = _edge_vectors(x, d)
    vecs.setflags(write=False)
    return [LowRankSource(*item) for item in zip(x, d, vecs)]


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    phi : sparsity weight; the phi/2 soft-threshold lands on the targets'
        edges (uniform_l1), on each new node row (vector_l1) or on the
        diagonal weights (nuclear)
    rho : rank-closeness level in (0, 1); larger keeps more energy
    r_max : per-source rank cap (effective cap is min(r_max, V-1))
    eps1, eps2 : relative-change stopping tolerances for the mixing matrix
        and the source matrix
    regularizer : "uniform_l1" (edge-wise), "vector_l1" or "nuclear"
    seed : seeds the start (:func:`initialize`) only; the iterations of
        :func:`fit` draw no random numbers

    ``max_iter``, ``r_max`` and ``seed`` must be integers (numpy integers
    included); anything else raises ValidationError("bad_config").
    """

    phi: float = 0.0
    rho: float = 0.95
    r_max: int = 10
    eps1: float = 1e-4
    eps2: float = 1e-4
    max_iter: int = 1000
    regularizer: str = "uniform_l1"
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iter", "r_max", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValidationError("bad_config",
                                      f"{name} must be an integer, got {value!r}")
        _check_penalty(self.phi, self.regularizer)
        if not 0 < self.rho < 1:
            raise ValidationError("bad_config", f"rho must lie in (0, 1), got {self.rho}")
        if not (self.eps1 > 0 and self.eps2 > 0):
            raise ValidationError("bad_config", "stopping tolerances must be positive")
        if self.max_iter < 1:
            raise ValidationError("bad_config", "max_iter must be >= 1")
        if self.r_max < 1:
            raise ValidationError("bad_config", "r_max must be >= 1")
        if self.seed < 0:
            raise ValidationError("bad_config", f"seed must be >= 0, got {self.seed}")


@dataclass
class LocusModel:
    """Fitted decomposition: q low-rank sources, the orthogonal reduced
    mixing matrix, subject loadings and fit diagnostics."""

    sources: list[LowRankSource]
    a_tilde: np.ndarray
    a: np.ndarray | None = None
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = False
    iterations: int = 0

    @property
    def q(self) -> int:
        return len(self.sources)

    @property
    def ranks(self) -> list[int]:
        return [s.rank for s in self.sources]

    def source_matrix(self) -> np.ndarray:
        """(q, p) matrix whose rows are the sources' edge vectors."""
        return np.vstack([s.edge_vector() for s in self.sources])


def soft_threshold(y: np.ndarray, t) -> np.ndarray:
    """Elementwise sign(y) * max(|y| - t, 0); exact zeros where |y| <= t.
    ``t`` is a float or an array that broadcasts against ``y``."""
    above = t >= 0
    if not (above if isinstance(above, bool) else np.all(above)):
        raise ValidationError("bad_threshold", f"threshold must be >= 0, got {t}")
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.maximum(np.abs(y) - t, 0.0)


def _pinv_rule(eigvals: np.ndarray) -> np.ndarray:
    """Reciprocals of ascending eigenvalues (..., R) under the PINV_RTOL
    rule: 0 where |lambda| <= PINV_RTOL * max|lambda|, which is the
    pseudo-inverse at that relative tolerance (the inverse if none is)."""
    # ascending eigenvalues: the largest magnitude sits at one end
    svals = np.abs(eigvals)
    large = svals > PINV_RTOL * np.maximum(svals[..., :1], svals[..., -1:])
    return large / np.where(large, eigvals, 1.0)


def _exact_rows(x, x_v, rhs, inv_d, pad_eye, padded):
    """New node rows from an eigendecomposition of X(-v)' X(-v) under the
    PINV_RTOL rule; also returns its eigenvalues, eigenvectors and
    reciprocals for the restart.  ``pad_eye`` fills the padded columns'
    Gram block of the sources that ``padded`` (q, 1, 1) marks; every other
    source's Gram is left as it is.  A source whose Gram is not finite
    (its coordinates overflowed) gets NaN rows, whatever its rank, which
    the caller reports; the identity stands in for its Gram, so that eigh
    neither fails the batch nor converges on NaN."""
    gram = np.matmul(x.transpose(0, 2, 1), x) - x_v.transpose(0, 2, 1) * x_v
    if pad_eye is not None:
        top = np.diagonal(gram, axis1=1, axis2=2).max(axis=1)
        gram = np.where(padded, gram + pad_eye * top[:, None, None], gram)
    bad = ~np.isfinite(gram).all(axis=(1, 2))
    if bad.any():
        gram = np.where(bad[:, None, None], np.eye(gram.shape[1]), gram)
    eigvals, eigvecs = np.linalg.eigh(gram)
    inv = _pinv_rule(eigvals)[:, None, :]
    row = (np.matmul(np.matmul(rhs, eigvecs) * inv, eigvecs.transpose(0, 2, 1))
           * inv_d)
    if bad.any():
        row[bad] = np.nan
    return row, eigvals, eigvecs, inv


def _restart(eigvals, eigvecs, inv, restart):
    """Tracked inverse and bounds (h, cap, hi) from an exact solve for the
    sources where the per-source ``restart`` holds; elsewhere h = 0,
    cap = 0 and hi = inf, which no node certifies."""
    h = np.matmul(eigvecs * inv, eigvecs.transpose(0, 2, 1))
    cap, hi = CERT * eigvals[:, None, :1], eigvals[:, None, -1:]
    if restart.all():
        return h, cap, hi
    restart = np.reshape(restart, (-1, 1, 1))
    return (np.where(restart, h, 0.0), np.where(restart, cap, 0.0),
            np.where(restart, hi, np.inf))


def sweep_nodes(factors, targets: np.ndarray,
                shrink: float = 0.0) -> list[np.ndarray]:
    """One Gauss-Seidel pass over the nodes, updating node v of every source
    together.

    ``factors`` holds one (x, d) pair per source, x (V, R_l) and d (R_l,);
    ``targets`` is (q, V, V) whose row v holds the (thresholded) edge values
    at node v, with a zero diagonal.  Each node's new coordinates are the
    projection D^(-1) (X(-v)' X(-v))^+ X(-v)' b_v against the freshest rows
    of the other nodes, soft-thresholded at ``shrink`` afterwards.  Visits
    the nodes in order and returns the updated x arrays.  X(-v)' b_v is
    X' b_v since b_v has no diagonal entry.  Ranks are padded to a common R
    with zero columns whose Gram block is maxdiag(G) I; that value lies
    inside G's spectrum, so the extreme eigenvalues are those of the
    sources' own Grams.  Weights below PRUNE_RTOL * max|d| are dead
    components; their coordinates come back as zero instead of dividing by
    them.

    The certified solve tracks H = (X'X)^(-1): with w = H x_v and
    s = 1 - x_v' H x_v, (X(-v)' X(-v))^(-1) = H + w w' / s.  Bounds lo <=
    lambda_min(X'X) and hi >= lambda_max(X'X) certify a source at a node
    when s > 0 and hi <= CERT lo s: then cond(X(-v)' X(-v)) <= CERT, two
    decades inside the PINV_RTOL rule, which would also have used the
    plain solve.  Any other source, at the first node every source, gets
    the exact solve: one batched eigh of X(-v)' X(-v) under the PINV_RTOL
    rule.  If that Gram is within CERT, its inverse and lo = lambda_min,
    hi = lambda_max restart the source's tracking.  A source whose Gram is
    not finite (its rows overflowed) gets NaN rows from then on instead of
    failing the batched eigh, at any rank.  After each node the new row r
    is added to H as a rank-1 update, and the bounds stay bounds as
    lo <- lo s after a certified node (lambda_min(G - x_v x_v') >=
    s lambda_min(G)) and hi <- hi + |r|^2.

    Each source takes its path, restarts its tracking and pads its Gram on
    its own, so its rows are the same bytes in any batch of the same widest
    rank.  At DEBUG level each sweep logs its certified, exact and
    pseudo-inverse solves; a node where some sources certify and others do
    not counts as one of each.
    """
    q = len(factors)
    node_count = np.shape(factors[0][0])[0]
    if targets.shape != (q, node_count, node_count):
        raise DimensionError("dimension_mismatch",
                             f"targets of shape {targets.shape}, expected "
                             f"{(q, node_count, node_count)}")
    ranks = [np.shape(x)[1] for x, _ in factors]
    width = max(ranks)
    x = np.zeros((q, node_count, width))
    d = np.zeros((q, width))
    pad = np.ones((q, width), dtype=bool)
    for ell, ((x_l, d_l), rank) in enumerate(zip(factors, ranks)):
        x[ell, :, :rank] = x_l
        d[ell, :rank] = d_l
        pad[ell, :rank] = False
    keep = np.abs(d) > PRUNE_RTOL * np.max(np.abs(d), axis=1, keepdims=True)
    inv_d = (keep / np.where(keep, d, 1.0))[:, None, :]
    pad_eye = pad[:, :, None] * np.eye(width) if pad.any() else None
    padded = pad.any(axis=1)[:, None, None]
    if logger.isEnabledFor(logging.DEBUG) and not keep[~pad].all():
        logger.debug("%d near-zero weights skipped in the node projection",
                     int((~keep[~pad]).sum()))

    # tracked inverses and bounds; None until a source restarts, then zero
    # (never certified) in the rows of the sources that have not
    h = cap = hi = None
    certified = exact = singular = 0
    for v in range(node_count):
        x_v = x[:, v, None, :]
        x_col = x_v.transpose(0, 2, 1)
        rhs = np.matmul(targets[:, v, None, :], x)
        # the certified sources: True (all), False (none) or a mask
        ok = False
        if h is not None:
            # cap = CERT * lo; lo and hi are positive, so hi <= cap * s
            # also requires s > 0
            w = np.matmul(x_v, h)
            s = 1.0 - np.matmul(w, x_col)
            fits = (hi <= cap * s).reshape(-1)
            ok = True if fits.all() else (fits if fits.any() else False)
        if ok is not False:
            certified += 1
            if ok is not True:
                # the other sources' rows and tracking come from the exact
                # solve below; s = 1 keeps their throwaway values finite
                s = np.where(ok[:, None, None], s, 1.0)
            c = np.matmul(rhs, h)
            row = (c + np.matmul(c, x_col) / s * w) * inv_d
            # downdate by x_v
            h = h + w.transpose(0, 2, 1) * (w / s)
            cap = cap * s
        if ok is not True:
            exact += 1
            es = slice(None) if ok is False else np.flatnonzero(~ok)
            row_e, eigvals, eigvecs, inv = _exact_rows(
                x[es], x_v[es], rhs[es], inv_d[es],
                None if pad_eye is None else pad_eye[es], padded[es])
            singular += int(np.count_nonzero((inv == 0).any(axis=2)))
            # restart where the Gram is positive definite within CERT
            lo, top = eigvals[:, 0], eigvals[:, -1]
            restart = (lo > 0) & (top <= CERT * lo)
            if ok is False:
                row = row_e
                h = cap = hi = None
                if restart.any():
                    h, cap, hi = _restart(eigvals, eigvecs, inv, restart)
            else:
                row[es] = row_e
                h[es], cap[es], hi[es] = _restart(eigvals, eigvecs, inv, restart)
        if shrink:
            row = soft_threshold(row, shrink)
        x[:, v, None, :] = row
        if h is not None:
            # update by the new row
            u = np.matmul(row, h)
            row_col = row.transpose(0, 2, 1)
            h = h - u.transpose(0, 2, 1) * (u / (1.0 + np.matmul(u, row_col)))
            hi = hi + np.matmul(row, row_col)
    logger.debug("node sweep: %d certified solves, %d exact solves "
                 "(%d pseudo-inverse)", certified, exact, singular)
    return [x[ell, :, :rank] for ell, rank in enumerate(ranks)]


def update_d(x: np.ndarray, target: np.ndarray, shrink=0.0) -> np.ndarray:
    """Diagonal-weights step for the node coordinates ``x`` (V, R), or for
    each of a stack (n, V, R) of sources of equal rank, with one batched
    pass over the stack; a lone source is the n = 1 case.

    Projects each (V, V) ``target`` (symmetric with a zero diagonal; for
    uniform_l1, already thresholded by the caller) onto the span of the
    per-component edge vectors Z, whose r-th column holds the edges of
    x_r x_r', then soft-thresholds the weights at ``shrink`` (phi/2 for
    nuclear, 0 otherwise; a float, or one per source of a stack).  The
    normal equations come from closed-form moments instead of Z itself:
    Z'Z = ((X'X) o (X'X) - (X o X)'(X o X)) / 2 and Z't = diag(X' T X) / 2
    (the halves cancel), solved by eigh under the PINV_RTOL rule.
    Weights below PRUNE_RTOL * max|d| are zeroed (rank reduction happens in
    the caller).
    """
    node_count = x.shape[-2]
    target = np.asarray(target, dtype=float)
    if target.shape != x.shape[:-2] + (node_count, node_count):
        raise DimensionError("dimension_mismatch",
                             f"expected {node_count} x {node_count} targets "
                             f"for factors {x.shape}, got {target.shape}")
    if x.ndim == 2:
        return update_d(x[None], target[None], shrink)[0]
    squares = x * x
    gram = x.transpose(0, 2, 1) @ x
    eigvals, eigvecs = np.linalg.eigh(
        gram * gram - squares.transpose(0, 2, 1) @ squares)
    inv = _pinv_rule(eigvals)
    if logger.isEnabledFor(logging.DEBUG) and not inv.all():
        logger.debug("rank-deficient weight Gram, using pseudo-inverse")
    moments = ((target @ x) * x).sum(axis=1)[:, :, None]
    d = (eigvecs @ (inv[:, :, None]
                    * (eigvecs.transpose(0, 2, 1) @ moments)))[:, :, 0]
    shrink = np.asarray(shrink, dtype=float)
    if shrink.any():
        shrink = shrink.reshape(-1, 1)
        d = np.where(shrink > 0, soft_threshold(d, shrink), d)
    scale = np.abs(d).max(axis=1, keepdims=True, initial=0.0)
    small = np.abs(d) < PRUNE_RTOL * scale
    if small.any():
        logger.debug("zeroing %d near-zero diagonal weights", int(small.sum()))
        d = np.where(small, 0.0, d)
    return d


def update_mixing(whitened: WhitenedData, s: np.ndarray) -> np.ndarray:
    """Least-squares mixing estimate Y~ S' (S S')^(-1) on the (q, p) source
    rows ``s``, then symmetric orthogonalization; a (cells, q, p) stack of
    rows gives a (cells, q, q) stack of estimates.  The result satisfies
    A~' A~ = I to 1e-10; zero or dependent rows raise DegeneracyError (in a
    stack, those of the first such cell), rows of the wrong shape
    DimensionError."""
    s = _source_rows(whitened, s)
    return _polar_orthogonalize(np.matmul(whitened.y_tilde, np.swapaxes(s, -1, -2))
                                @ _source_gram_inverse(s))


def _nuclear_norm(source: LowRankSource) -> float:
    """Nuclear norm of the reconstructed V x V matrix X diag(d) X'.  With
    X = QR it equals sum |eig(R diag(d) R')|, an R x R problem."""
    r = np.linalg.qr(source.x, mode="r")
    return float(np.sum(np.abs(np.linalg.eigvalsh((r * source.d) @ r.T))))


# per-source penalty of each regularizer: the L1 norm of the source's edges
# or of its coordinates X, or its nuclear norm
PENALTIES = {
    "uniform_l1": lambda s: float(np.sum(np.abs(s.edge_vector()))),
    "vector_l1": lambda s: float(np.sum(np.abs(s.x))),
    "nuclear": _nuclear_norm,
}
REGULARIZERS = tuple(PENALTIES)


def penalty(sources: list[LowRankSource], phi: float, regularizer: str) -> float:
    """Penalty term of the objective: phi times the sum of the sources'
    :data:`PENALTIES` under ``regularizer``."""
    _check_penalty(phi, regularizer)
    if phi == 0:
        return 0.0
    return phi * sum(PENALTIES[regularizer](s) for s in sources)


def _objectives(targets: np.ndarray, rows: np.ndarray, cells) -> np.ndarray:
    """Per cell of ``cells``: |targets - rows|_F^2 plus the :func:`penalty`
    of its sources, for (cells, q, p) stacks of targets and rows."""
    values = np.sum(((targets - rows) ** 2).reshape(len(rows), -1), axis=1)
    for i, cell in enumerate(cells):
        values[i] += penalty(cell.sources, cell.config.phi,
                             cell.config.regularizer)
    return values


def objective(whitened: WhitenedData, model: LocusModel, phi: float,
              regularizer: str = "uniform_l1") -> float:
    """Source-domain objective: sum_l |Y~' A~_l - s_l|^2 plus the penalty.

    By the orthogonality of the mixing matrix this equals the data-domain
    residual |Y~ - A~ S|_F^2 plus the same penalty.
    """
    resid = model.a_tilde.T @ whitened.y_tilde - model.source_matrix()
    return float(np.sum(resid ** 2)) + penalty(model.sources, phi, regularizer)


def data_domain_objective(whitened: WhitenedData, model: LocusModel, phi: float,
                          regularizer: str = "uniform_l1") -> float:
    """Objective evaluated on the reduced data domain, |Y~ - A~ S|_F^2 plus
    the penalty.  Agrees with :func:`objective` for orthogonal mixing."""
    s = model.source_matrix()
    resid = whitened.y_tilde - model.a_tilde @ s
    return float(np.sum(resid ** 2)) + penalty(model.sources, phi, regularizer)


def _reseed_source(y_src: np.ndarray, node_count: int) -> LowRankSource:
    """Rank-1 re-seed from the dominant eigenpair of the unvectorized
    projected source.  A zero projection gives a zero source, which the
    mixing update then reports by index."""
    eigvals, eigvecs = np.linalg.eigh(unvectorize(y_src, node_count))
    k = int(np.argmax(np.abs(eigvals)))
    return LowRankSource(eigvecs[:, [k]], eigvals[[k]])


@dataclass(kw_only=True)
class _Start(LocusModel):
    """A start from :func:`initialize`, which also keeps the top-k
    eigenvectors of the unstructured sources it truncated, ``basis``
    (q, V, k), and the (q,) mask of the sources whose basis is ``ready``
    (False for a re-seeded zero source): they seed the first warm rank
    checks of :func:`_fit_cells`."""

    basis: np.ndarray
    ready: np.ndarray


def _mixing_start(whitened: WhitenedData, q: int, config: SolverConfig) -> tuple:
    """The rank-free half of :func:`initialize`: FastICA's orthogonalized
    mixing matrix and, for the q unstructured sources, their top-k
    eigenvalues (q, k) and eigenvectors (q, V, k) by |lambda|, from one
    stacked decomposition, and their |s|^2 (q,) (k from
    :func:`~locus.modelsel._basis_width`), or, if the baseline fails with a
    package error or a LinAlgError, a random orthogonal mixing matrix
    seeded by ``config.seed`` and the projected sources it implies.  A
    FastICA start that stops at its iteration cap is logged as a warning.
    Reads ``seed`` and ``r_max`` of ``config``."""
    from .modelsel import _basis_width, _top_eigen

    try:
        ica = baselines.fastica(whitened, q, seed=config.seed)
        a_tilde, raw = _polar_orthogonalize(ica.mixing), ica.sources
    except (LocusError, np.linalg.LinAlgError) as err:
        # fall back to a seeded random start
        logger.warning("baseline initialization failed (%s); using random "
                       "orthogonal start", err)
        a_tilde = _polar_orthogonalize(
            np.random.default_rng(config.seed).standard_normal((q, q)))
        raw = a_tilde.T @ whitened.y_tilde
    else:
        if not ica.converged:
            logger.warning("FastICA start stopped at its %d-iteration cap "
                           "without converging", ica.iterations)
    node_count = nodes_from_edge_count(whitened.n_edges)
    m = unvectorize(raw, node_count)
    norm2 = np.array([0.5 * float(np.vdot(m_l, m_l)) for m_l in m])
    return a_tilde, *_top_eigen(m, _basis_width(config, node_count)), norm2


def _truncated_start(whitened: WhitenedData, a_tilde: np.ndarray,
                     eigvals: np.ndarray, eigvecs: np.ndarray,
                     norm2: np.ndarray, config: SolverConfig) -> _Start:
    """The per-rho half of :func:`initialize`: each unstructured source,
    given by the eigenpairs and |s|^2 of :func:`_mixing_start`, truncated
    to the rank that :func:`~locus.modelsel.select_rank`'s rule picks
    under ``config.rho`` and ``config.r_max``, bit for bit.  A zero source
    is re-seeded from its projected target (:func:`_reseed_source`) and
    its basis is not ready."""
    from .modelsel import _truncate

    node_count = eigvecs.shape[1]
    r_max = min(config.r_max, node_count - 1)
    sources = []
    for ell, source_norm2 in enumerate(norm2):
        if source_norm2 == 0:
            warnings.warn(f"initial source {ell} is zero; re-seeding",
                          DegenerateSourceWarning)
            sources.append(_reseed_source((a_tilde.T @ whitened.y_tilde)[ell],
                                          node_count))
        else:
            sources.append(_truncate(eigvals[ell], eigvecs[ell], source_norm2,
                                     config.rho, r_max)[1])
    return _Start(sources=sources, a_tilde=a_tilde, basis=eigvecs,
                  ready=norm2 > 0)


def initialize(whitened: WhitenedData, q: int, config: SolverConfig) -> _Start:
    """Starting point for :func:`fit`.

    Runs the FastICA baseline on the whitened data, takes its orthogonalized
    mixing matrix, and truncates each unstructured source to the adaptively
    selected rank via its symmetric eigendecomposition.  If the baseline
    fails with a package error or a LinAlgError, falls back to a seeded
    random orthogonal mixing matrix and truncates the implied projected
    sources instead; any other exception propagates.  A zero source is
    re-seeded from its projected target (:func:`_reseed_source`).  Reads
    ``seed``, ``rho`` and ``r_max`` of ``config``, not ``phi``; ``seed``
    seeds FastICA and the random fallback, which do not read ``rho``, so
    :func:`~locus.modelsel.tune` runs them, and decomposes the sources in
    one stacked call, once for every rho.  The returned start also carries
    those eigenvectors as one (q, V, k) basis with its ready mask, which
    seed :func:`fit`'s first warm rank checks.
    """
    if q != whitened.q:
        raise DimensionError("dimension_mismatch",
                             f"q={q} does not match whitened data (q={whitened.q})")
    return _truncated_start(whitened, *_mixing_start(whitened, q, config),
                            config)


def _norms(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each item of a stack (n, ...), as
    :func:`numpy.linalg.norm` gives it: one dot product per item."""
    flat = stack.reshape(len(stack), -1)
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None]).reshape(-1))


def _relative_changes(new: np.ndarray, old: np.ndarray) -> list[float]:
    """|new - old|_F / |old|_F per item of two stacks (n, ...): 0 where
    both norms are 0 and inf where only |old|_F is."""
    return [float(diff / denom) if denom else (0.0 if diff == 0 else np.inf)
            for diff, denom in zip(_norms(new - old), _norms(old))]


# the errors that stop one cell of _fit_cells and leave the others running
CELL_ERRORS = (LocusError, np.linalg.LinAlgError)


def _shrinks(config: SolverConfig) -> tuple[float, float, float]:
    """The one phi/2 soft-threshold as (edge, node row, weight) thresholds:
    on the targets' edges, the node rows or the weights, 0 elsewhere."""
    half, name = config.phi / 2.0, config.regularizer
    return (half if name == "uniform_l1" else 0.0,
            half if name == "vector_l1" else 0.0,
            half if name == "nuclear" else 0.0)


@dataclass(eq=False, slots=True)
class _Cell:
    """One running fit of :func:`_fit_cells`: its settings, its own list of
    sources, the mixing matrix A~ and targets A~' Y~, the stacked (q, p)
    source rows, the objective trace and the sources warned about.  The
    rank-check state is the (q, V, k) warm ``basis`` and the (q,) mask of
    the sources whose basis is ``ready``.  ``error`` holds the
    :data:`CELL_ERRORS` error that stopped the cell, if any."""

    config: SolverConfig
    sources: list[LowRankSource]
    a_tilde: np.ndarray
    targets: np.ndarray
    rows: np.ndarray
    trace: list[float]
    warned: set[int]
    basis: np.ndarray
    ready: np.ndarray
    error: Exception | None = None


def _stack(arrays) -> np.ndarray:
    """``np.stack(arrays)``, or a view of a lone array, so that the stacked
    passes copy nothing for a lone cell."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _target_mats(cells) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's targets, thresholded (uniform_l1) in one pass and
    scattered in one pass into a (cells, q, V, V) stack of the matrices
    shared by rank selection and both block updates, and their squared
    edge norms |s_star|^2 (cells, q)."""
    targets = _stack([cell.targets for cell in cells])
    shrink = np.array([_shrinks(cell.config)[0] for cell in cells])[:, None, None]
    s_star = targets
    if shrink.any():
        s_star = soft_threshold(targets, shrink)
        if not shrink.all():
            s_star = np.where(shrink > 0, s_star, targets)
    flat = s_star.reshape(-1, s_star.shape[2])
    return (unvectorize(s_star, cells[0].sources[0].node_count),
            np.einsum("ij,ij->i", flat, flat).reshape(s_star.shape[:2]))


def _by_cell(block, parts, *args) -> dict:
    """``block(parts, *args)`` over every (cell, ...) part of ``parts`` at
    once.  Where that raises a :data:`CELL_ERRORS` error, the block runs
    once per part instead, so that an error goes only to the ``error`` of
    the cell that raised it.  A block changes no cell before it has
    succeeded for all of its parts.  Returns the block's results by cell,
    less the cells it failed."""
    if not parts:
        return {}
    try:
        return block(parts, *args) or {}
    except CELL_ERRORS as err:
        if len(parts) == 1:
            parts[0][0].error = err
            return {}
    out = {}
    for part in parts:
        out.update(_by_cell(block, [part], *args))
    return out


def _sweep_cells(batch, shrink: float) -> dict:
    """One :func:`sweep_nodes` call over the live sources of the cells in
    ``batch``, each a (cell, target matrices, live indices) triple.
    Returns the swept x arrays by cell."""
    factors = [(cell.sources[ell].x, cell.sources[ell].d)
               for cell, _, live in batch for ell in live]
    mats = [cell_mats[live] for _, cell_mats, live in batch]
    xs = iter(sweep_nodes(factors, np.concatenate(mats) if len(mats) > 1
                          else mats[0], shrink))
    return {cell: [next(xs) for _ in live] for cell, _, live in batch}


def _weigh(parts, it: int) -> None:
    """The last block of a step for the cells of ``parts``, each a (cell,
    target matrices, swept x arrays by source index) triple.  The swept
    sources of every cell are stacked by rank: a cell with a row that is
    not finite stops with a NumericError, and the others have their
    columns renormalized and their weights re-fitted against their whole
    targets, one stacked :func:`update_d` per rank, and the sources whose
    weights are all finite and nonzero are built as one stack
    (:func:`_built_sources`).  The other decisions are per cell
    (:func:`_settle`)."""
    by_rank: dict[int, list] = {}
    for k, (_, _, swept) in enumerate(parts):
        for ell, x in swept.items():
            by_rank.setdefault(x.shape[1], []).append((k, ell, x))
    stacks, overflowed = [], set()
    for members in by_rank.values():
        x = np.stack([x for _, _, x in members])
        if not np.isfinite(x).all():
            bad = np.flatnonzero(~np.isfinite(x).all(axis=(1, 2)))
            overflowed.update(members[j][0] for j in bad)
        stacks.append((members, x))

    fitted = {}
    for members, x in stacks:
        if overflowed:
            ok = [j for j, (k, _, _) in enumerate(members) if k not in overflowed]
            if not ok:
                continue
            members, x = [members[j] for j in ok], x[ok]
        k, first, _ = members[0]
        if all(member[:2] == (k, first + j) for j, member in enumerate(members)):
            # consecutive sources of one cell: a view of its target stack
            mats = parts[k][1][first:first + len(members)]
        else:
            mats = np.stack([parts[k][1][ell] for k, ell, _ in members])
        x = _unit_columns(x)[0]
        d = update_d(x, mats, [_shrinks(parts[k][0].config)[2]
                               for k, _, _ in members])
        whole = (np.isfinite(d) & (d != 0)).all(axis=1)
        built = iter(_built_sources(x, d) if whole.all() else
                     _built_sources(x[whole], d[whole]) if whole.any() else ())
        for (k, ell, _), x_k, d_k, done in zip(members, x, d, whole):
            fitted[k, ell] = (x_k, d_k, next(built) if done else None)

    for k, (cell, _, swept) in enumerate(parts):
        try:
            if k in overflowed:
                raise NumericError("non_finite",
                                   f"node update overflowed at iteration {it}")
            _settle(cell, {ell: fitted[k, ell] for ell in swept}, it)
        except CELL_ERRORS as err:
            cell.error = err


def _settle(cell: _Cell, fitted: dict, it: int) -> None:
    """The decisions of :func:`_weigh` for one cell, given by swept source
    its renormalized x, its re-fitted weights d and the source built from
    them, if they are all finite and nonzero.  Weights that are not finite
    stop the cell with a NumericError; zero weights are pruned; a source
    with a zero target or zero weights is re-seeded from its unthresholded
    target's dominant eigenpair.  A pruned or re-seeded source loses its
    basis, so its next rank check is exact, and a re-seeded one warns once
    per cell (DegenerateSourceWarning)."""
    sources, reseeded = cell.sources, []
    for ell in range(len(sources)):
        if ell in fitted:
            x, d, built = fitted[ell]
            if built is not None:
                sources[ell] = built
                continue
            if not np.all(np.isfinite(d)):
                raise NumericError("non_finite", "weight update overflowed "
                                   f"at iteration {it}")
            keep = d != 0
            if keep.any():
                logger.debug("source %d: pruning %d components at iteration "
                             "%d", ell, int((~keep).sum()), it)
                sources[ell] = LowRankSource(x[:, keep], d[keep])
                cell.ready[ell] = False
                continue

        # a zero target or zero weights: re-seed from the projected target
        reseeded.append(ell)
        cell.ready[ell] = False
        sources[ell] = _reseed_source(cell.targets[ell], sources[ell].node_count)
    for ell in reseeded:
        if ell not in cell.warned:
            warnings.warn(f"source {ell} collapsed to zero at iteration {it}; "
                          "re-seeding", DegenerateSourceWarning)
            cell.warned.add(ell)
        else:
            logger.debug("source %d collapsed again at iteration %d", ell, it)


def _step(cells: list[_Cell], it: int) -> None:
    """The source blocks of outer iteration ``it`` for every cell, against
    its (q, p) targets A~' Y~: threshold (uniform_l1), re-select each rank,
    sweep the nodes of the sources with nonzero targets, re-fit and prune
    the weights (:func:`_target_mats`, :func:`~locus.modelsel._select_ranks`,
    :func:`sweep_nodes`, :func:`_weigh`).  Updates each cell's sources and
    rank-check state in place, or sets its ``error`` to the
    :data:`CELL_ERRORS` error that stopped it; ``it`` labels errors.

    The thresholds, the rank checks and the weight step each run as one
    batch over every cell; the cells whose live sources have the same
    widest rank and node-row threshold make one batch, one
    :func:`sweep_nodes` call, in which every source keeps the padding a
    lone sweep of its cell gives it.  A batch that fails runs again cell
    by cell (:func:`_by_cell`).  At DEBUG level it logs its warm, exact and
    changed rank checks.
    """
    from . import modelsel

    mats, norm2 = _target_mats(cells)
    lives, counts = modelsel._select_ranks(cells, mats, norm2)
    logger.debug("rank checks: %d warm, %d exact, %d changed", *counts)
    batches: dict[tuple[int, float], list] = {}
    for cell, cell_mats, live in zip(cells, mats, lives):
        if cell.error is None and live:
            width = max(cell.sources[ell].rank for ell in live)
            batches.setdefault((width, _shrinks(cell.config)[1]), []).append(
                (cell, cell_mats, live))

    swept = {}
    for (_, shrink), batch in batches.items():
        swept.update(_by_cell(_sweep_cells, batch, shrink))
    _by_cell(_weigh, [(cell, cell_mats, dict(zip(live, swept.get(cell, []))))
                      for cell, cell_mats, live in zip(cells, mats, lives)
                      if cell.error is None], it)


def _start(whitened: WhitenedData, config: SolverConfig,
           init: _Start) -> _Cell:
    """A cell at the start.  Its targets and rows give
    ``objective_trace[0]`` and feed step 1.  Its sources list, mixing
    matrix and rank-check state are its own copies of ``init``'s, since a
    step replaces items of them and a start may be shared."""
    sources = list(init.sources)
    a_tilde = init.a_tilde.copy()
    targets = a_tilde.T @ whitened.y_tilde
    rows = np.vstack([s.edge_vector() for s in sources])
    cell = _Cell(config, sources, a_tilde, targets, rows, [], set(),
                 init.basis.copy(), init.ready.copy())
    cell.trace.append(float(_objectives(targets[None], rows[None], [cell])[0]))
    return cell


def _mix(parts, whitened: WhitenedData, rows: np.ndarray) -> dict:
    """:func:`update_mixing` of the (cell, index) ``parts`` from their rows
    in the stack ``rows``, as one stack; the estimates by cell."""
    if len(parts) < len(rows):
        rows = rows[[k for _, k in parts]]
    return {cell: a for (cell, _), a in zip(parts, update_mixing(whitened, rows))}


def _advance(whitened: WhitenedData, cells: list[_Cell], it: int) -> dict:
    """The rest of outer iteration ``it`` for the stepped ``cells``, as
    stacked passes: stack every cell's rows, update every mixing matrix
    (:func:`update_mixing`; cell by cell where the stack fails), compute
    the next targets once and score them.  Returns, per cell that
    advanced, whether the relative changes of A~ and S fell below its eps1
    and eps2; a cell whose mixing update fails or overflows gets that
    error instead."""
    if not cells:
        return {}
    rows = np.array([[src.edge_vector() for src in cell.sources]
                     for cell in cells])
    mixing = _by_cell(_mix, [(cell, k) for k, cell in enumerate(cells)],
                      whitened, rows)
    for cell, a_tilde in mixing.items():
        if not np.isfinite(a_tilde).all():
            cell.error = NumericError("non_finite", "mixing update overflowed "
                                      f"at iteration {it}")
    done = [k for k, cell in enumerate(cells) if cell.error is None]
    if not done:
        return {}
    if len(done) < len(cells):
        cells, rows = [cells[k] for k in done], rows[done]
    a_tilde = _stack([mixing[cell] for cell in cells])
    targets = np.matmul(a_tilde.transpose(0, 2, 1), whitened.y_tilde)
    values = _objectives(targets, rows, cells)
    rel_a = _relative_changes(a_tilde, _stack([cell.a_tilde for cell in cells]))
    rel_s = _relative_changes(rows, _stack([cell.rows for cell in cells]))
    converged = {}
    for k, cell in enumerate(cells):
        converged[cell] = bool(rel_a[k] < cell.config.eps1
                               and rel_s[k] < cell.config.eps2)
        cell.a_tilde, cell.targets, cell.rows = a_tilde[k], targets[k], rows[k]
        cell.trace.append(float(values[k]))
    return converged


def _unmix(parts, whitened: WhitenedData) -> dict:
    """The subject loadings of the (cell,) ``parts`` from their final rows,
    in one pass over the centred data (:func:`unmix_to_subject_space`)."""
    loadings = unmix_to_subject_space(whitened,
                                      _stack([cell.rows for cell, in parts]))
    return {cell: a for (cell,), a in zip(parts, loadings)}


def _fit_cells(whitened: WhitenedData, cells) -> list:
    """Fit every (config, start) cell on the same whitened data in
    lockstep, each start a :class:`_Start` of that data.

    Each cell is a start, one step per outer iteration and a stopping rule,
    and its state is one :class:`_Cell` record.  Start (:func:`_start`):
    the targets A~' Y~ and stacked (q, p) source rows of the start give
    ``objective_trace[0]`` and feed step 1, and the eigenvectors it keeps
    seed the warm rank checks.  Step: one
    :func:`_step` updates the sources of every running cell.  Then
    :func:`_advance` stacks every cell's rows once, re-estimates each A~
    from them (:func:`update_mixing`) and computes the next targets once,
    for the objective, the relative changes and the next step.  The
    arithmetic of a step and an advance runs as stacked passes over every
    running cell; the decisions stay per cell: prune and re-seed, the
    once-per-cell DegenerateSourceWarning, the stopping rule and the
    errors.  Stop: a cell leaves, and frees its record, when the relative
    changes of A~ and S fall below its eps1/eps2, at its max_iter, or when
    a :data:`CELL_ERRORS` error stops it (its ``error``); no other cell
    sees either.  Loadings are least squares on the final rows, for the
    cells that stop in the same iteration in one pass over the centred
    data.  Every cell's model is the one :func:`fit` returns for that cell
    alone, bit for bit.  No random numbers are drawn.

    Returns per cell the fitted LocusModel or the error.
    """
    results: list = [None] * len(cells)
    running = {}  # per running cell, in cell order
    for i, (config, start) in enumerate(cells):
        try:
            running[i] = _start(whitened, config, start)
        except CELL_ERRORS as err:
            results[i] = err

    it = 0
    while running:
        it += 1
        _step(list(running.values()), it)
        converged = _advance(whitened, [cell for cell in running.values()
                                        if cell.error is None], it)
        loadings = _by_cell(_unmix, [
            (cell,) for cell in running.values() if cell.error is None
            and (converged[cell] or it == cell.config.max_iter)], whitened)
        for i, cell in list(running.items()):
            if cell.error is not None:
                results[i] = cell.error
            elif cell in loadings:
                results[i] = LocusModel(
                    cell.sources, cell.a_tilde, loadings[cell],
                    np.asarray(cell.trace), converged=converged[cell],
                    iterations=it)
            else:
                continue
            del running[i]
    return results


def fit(whitened: WhitenedData, q: int, config: SolverConfig) -> LocusModel:
    """Run the node-rotation algorithm on whitened data: start, step, stop.

    Starts from :func:`initialize` (which checks ``q`` against the data),
    then fits that one cell with :func:`_fit_cells`, the loop
    :func:`~locus.modelsel.tune` runs every grid cell through, and raises
    the error that stopped it, if any.  Each step re-selects every
    rank by :func:`~locus.modelsel.select_rank`'s rule, confirmed by a warm
    Ritz check where it can be (see the module docstring); the model is
    the exact rule's wherever their decisions agree.  No random numbers
    are drawn after the start.
    """
    (result,) = _fit_cells(whitened, [(config, initialize(whitened, q, config))])
    if isinstance(result, Exception):
        raise result
    return result


# ---------------------------------------------------------------------------
# model serialization: one directory per fit
# ---------------------------------------------------------------------------

def write_meta(path: str, meta: dict) -> None:
    """Write one ``key=value`` line per item, in order; values as str()."""
    with open(path, "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key}={value}\n")


def read_meta(path: str) -> dict:
    """Read a key=value file such as :func:`write_meta` writes; every value
    is a str.  Keys and values are stripped, lines without ``=`` skipped."""
    meta = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep:
                meta[key.strip()] = value.strip()
    return meta


def read_sources(path: str, meta_name: str) -> tuple[dict, np.ndarray, int]:
    """Read a fit or truth directory: its key=value file ``meta_name`` and
    S_1.csv .. S_<q>.csv (V x V symmetric), q read from that file.  Returns
    the key=value dict, the (q, p) edge vectors and V.  A q that is missing
    or not a positive integer raises ValidationError, an S_<l> whose shape
    differs from S_1's DimensionError, and one that :func:`vectorize`
    rejects (not square, asymmetric) its error, each naming the file."""
    meta_path = os.path.join(path, meta_name)
    meta = read_meta(meta_path)
    try:
        q = int(meta["q"])
    except (KeyError, ValueError):
        q = 0
    if q < 1:
        got = repr(meta["q"]) if "q" in meta else "no q line"
        raise ValidationError("bad_meta", f"{meta_path}: q must be a positive "
                              f"integer, got {got}")
    rows, shape = [], None
    for ell in range(q):
        name = os.path.join(path, f"S_{ell + 1}.csv")
        m = read_csv(name)
        shape = shape or m.shape
        if m.shape != shape:
            raise DimensionError("dimension_mismatch",
                                 f"{name} is {m.shape}, S_1.csv is {shape}")
        try:
            rows.append(vectorize(m))
        except ValidationError as err:
            raise type(err)(err.code, f"{name}: {err.message}") from err
    return meta, np.vstack(rows), shape[0]


def write_sources(path: str, sources: np.ndarray, node_count: int) -> None:
    """Write (q, p) edge vectors as the files :func:`read_sources` reads."""
    for ell, source in enumerate(sources):
        write_csv(os.path.join(path, f"S_{ell + 1}.csv"),
                  unvectorize(source, node_count))


def save_decomposition(path: str, sources: np.ndarray, node_count: int,
                       a: np.ndarray, a_tilde: np.ndarray, meta: dict,
                       factors: list[LowRankSource] | None = None) -> None:
    """Write a fit directory: A.csv, A_tilde.csv, per-source S_<l>.csv
    (V x V symmetric), optional X_<l>.csv / d_<l>.csv, and a key=value
    meta file.  Source files are 1-indexed."""
    os.makedirs(path, exist_ok=True)
    write_csv(os.path.join(path, "A.csv"), a)
    write_csv(os.path.join(path, "A_tilde.csv"), a_tilde)
    write_sources(path, sources, node_count)
    if factors is not None:
        for ell, src in enumerate(factors):
            write_csv(os.path.join(path, f"X_{ell + 1}.csv"), src.x)
            write_csv(os.path.join(path, f"d_{ell + 1}.csv"), np.atleast_1d(src.d))
    write_meta(os.path.join(path, "meta"), meta)


def save_model(model: LocusModel, path: str, config: SolverConfig) -> None:
    """Serialize a fitted model and the settings it was fitted with (see
    :func:`save_decomposition` for layout)."""
    if model.a is None:
        raise ValidationError("no_loadings", "model has no subject loadings to save")
    meta = {
        "q": model.q,
        "ranks": ",".join(str(r) for r in model.ranks),
        "iterations": model.iterations,
        "converged": model.converged,
        "final_objective": (f"{model.objective_trace[-1]:.17g}"
                            if model.objective_trace.size else "nan"),
        "phi": config.phi,
        "rho": config.rho,
        "seed": config.seed,
        "regularizer": config.regularizer,
    }
    save_decomposition(path, model.source_matrix(),
                       model.sources[0].node_count, model.a, model.a_tilde,
                       meta, factors=model.sources)


def load_decomposition(path: str) -> dict:
    """Read back a fit directory written by :func:`save_decomposition`.

    Returns a dict with keys "sources" (q, p), "a", "a_tilde", "meta" and
    "node_count".  Checks q and the sources as :func:`read_sources` does,
    and raises DimensionError naming A.csv unless it has q columns, or
    A_tilde.csv unless it is q x q.
    """
    meta, sources, node_count = read_sources(path, "meta")
    q = sources.shape[0]
    a = read_csv(os.path.join(path, "A.csv"))
    a_tilde = read_csv(os.path.join(path, "A_tilde.csv"))
    for name, got, want in (("A.csv", a, (a.shape[0], q)),
                            ("A_tilde.csv", a_tilde, (q, q))):
        if got.shape != want:
            raise DimensionError("dimension_mismatch",
                                 f"{os.path.join(path, name)} is {got.shape}, "
                                 f"expected {want} for q={q}")
    return {"sources": sources, "a": a, "a_tilde": a_tilde, "meta": meta,
            "node_count": node_count}
