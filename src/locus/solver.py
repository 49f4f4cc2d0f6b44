"""Iterative node-rotation solver for sparse low-rank source separation.

Each latent source is a symmetric low-rank factorization X diag(d) X' whose
upper-triangle vector lives in edge space; stacked, they are the (q, p)
source rows S.  A fit is a start, one step per outer iteration and a
stopping rule, and :func:`_fit_cells` runs any number of fits (cells, such
as a tuning grid's) in lockstep; :func:`fit` is its one-cell call.  A step
(:func:`_step`) updates, against fixed targets A~' Y~, the latent node
coordinates one node at a time (Gauss-Seidel) and then the diagonal
weights of every source; with the targets fixed, one sweep updates node v
of every source of every cell in a batch at once (:func:`sweep_nodes`).
Each cell then stacks its rows once, re-estimates and orthogonalizes its
reduced mixing matrix from them, and computes its next targets once.

A step first re-selects each source's rank by the paper's rule, the
smallest eigen-truncation of its target within rho
(:func:`~locus.modelsel.select_rank`), whose full V x V eigh per source
per iteration is the costliest part of a step.  So each cell keeps, per
source, the top-k eigen or Ritz vectors of its last check, and one warm
check batched over every source of every running cell
(:func:`~locus.modelsel._select_ranks`) may confirm the current rank;
everything else runs the exact rule.  A step uses the exact rule's
factor only when the rank changes, so fits equal those of the exact rule
bit for bit wherever the two decisions agree.

Each node block is a least-squares solve against X(-v)' X(-v), X'X less
one rank-1 downdate.  The sweep's certified path solves it from a tracked
(X'X)^(-1) by Sherman-Morrison while a running bound certifies
cond(X(-v)' X(-v)) <= CERT, two decades inside the PINV_RTOL rule
(:func:`_pinv_rule`); its exact path solves an eigendecomposition of
X(-v)' X(-v) under the rule and restarts the tracking from it when it is
within CERT.  The weight step solves for the per-component edge vectors Z
under the same rule, with Z'Z and Z't read from closed-form moments of X
and the (V, V) target (:func:`update_d`), so no p x R matrix is built.

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
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import baselines
from .connmat import (nodes_from_edge_count, read_csv, triu_indices, unvectorize,
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
    reconstructed matrix unchanged.
    """

    x: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        d = np.atleast_1d(np.asarray(self.d, dtype=float))
        if x.ndim != 2 or d.ndim != 1 or x.shape[1] != d.shape[0]:
            raise DimensionError("dimension_mismatch",
                                 f"factor shape {x.shape} incompatible with "
                                 f"{d.shape[0]} weights")
        if not 1 <= x.shape[1] < x.shape[0]:
            raise DimensionError("dimension_mismatch",
                                 f"rank must lie in [1, V-1], got R={x.shape[1]} "
                                 f"for V={x.shape[0]}")
        norms = np.linalg.norm(x, axis=0)
        safe = np.where(norms > 0, norms, 1.0)
        x = x / safe
        d = d * norms ** 2
        x.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "d", d)

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
        vec = self.__dict__.get("_edge_vector")
        if vec is None:
            vec = self.matrix()[triu_indices(self.node_count)]
            vec.setflags(write=False)
            object.__setattr__(self, "_edge_vector", vec)
        return vec


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


def soft_threshold(y: np.ndarray, t: float) -> np.ndarray:
    """Elementwise sign(y) * max(|y| - t, 0); exact zeros where |y| <= t."""
    if not t >= 0:
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


def _each_cell(reduce, mask: np.ndarray, starts: np.ndarray, sizes) -> np.ndarray:
    """Reduce the per-source ``mask`` over each cell's run of sources with
    the ufunc ``reduce`` and repeat the result for every source of the
    cell."""
    return np.repeat(reduce.reduceat(mask.reshape(-1), starts), sizes)


def _exact_rows(x, x_v, rhs, inv_d, pad_eye, pad_cells):
    """New node rows from an eigendecomposition of X(-v)' X(-v) under the
    PINV_RTOL rule; also returns its eigenvalues, eigenvectors and
    reciprocals for the restart.  ``pad_eye`` fills the padded columns'
    Gram block; ``pad_cells`` (None: every source) marks the sources whose
    cell has padding, the only ones a lone sweep of that cell pads.  A
    source whose Gram is not finite (its coordinates overflowed) gets NaN
    rows, whatever its rank, which the caller reports; the identity stands
    in for its Gram, so that eigh neither fails the batch nor converges on
    NaN."""
    gram = np.matmul(x.transpose(0, 2, 1), x) - x_v.transpose(0, 2, 1) * x_v
    if pad_eye is not None:
        top = np.diagonal(gram, axis1=1, axis2=2).max(axis=1)
        padded = gram + pad_eye * top[:, None, None]
        gram = padded if pad_cells is None else np.where(pad_cells, padded, gram)
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


def _within_cert(eigvals: np.ndarray) -> np.ndarray:
    """Per source: whether the Gram with these ascending eigenvalues is
    positive definite with condition number at most CERT."""
    return (eigvals[:, 0] > 0) & (eigvals[:, -1] <= CERT * eigvals[:, 0])


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


def sweep_nodes(factors, targets: np.ndarray, shrink: float = 0.0,
                nodes=None, cells=None) -> list[np.ndarray]:
    """One Gauss-Seidel pass over the nodes, updating node v of every source
    together.

    ``factors`` holds one (x, d) pair per source, x (V, R_l) and d (R_l,);
    ``targets`` is (q, V, V) whose row v holds the (thresholded) edge values
    at node v, with a zero diagonal.  Each node's new coordinates are the
    projection D^(-1) (X(-v)' X(-v))^+ X(-v)' b_v against the freshest rows
    of the other nodes, soft-thresholded at ``shrink`` afterwards.  Visits
    ``nodes`` in order (default: all) and returns the updated x arrays.
    X(-v)' b_v is X' b_v since b_v has no diagonal entry.  Ranks are padded
    to a common R with zero columns whose Gram block is maxdiag(G) I; that
    value lies inside G's spectrum, so the extreme eigenvalues are those of
    the sources' own Grams.  Weights below PRUNE_RTOL * max|d| are dead
    components; their coordinates come back as zero instead of dividing by
    them.

    The certified solve tracks H = (X'X)^(-1): with w = H x_v and
    s = 1 - x_v' H x_v, (X(-v)' X(-v))^(-1) = H + w w' / s.  Bounds lo <=
    lambda_min(X'X) and hi >= lambda_max(X'X) certify a node when every
    source has s > 0 and hi <= CERT lo s: then cond(X(-v)' X(-v)) <= CERT,
    two decades inside the PINV_RTOL rule, which would also have used the
    plain solve.  Any other node, the first included, gets the exact
    solve: one batched eigh of X(-v)' X(-v) under the PINV_RTOL rule.  If
    that Gram is within CERT for every source, its inverse and lo =
    lambda_min, hi = lambda_max restart the tracking.  A source whose Gram
    is not finite (its rows overflowed) gets NaN rows from then on instead
    of failing the batched eigh, at any rank.  After each node the
    new row r is added to H as a rank-1 update, and the bounds stay bounds
    as lo <- lo s after a certified node (lambda_min(G - x_v x_v') >=
    s lambda_min(G)) and hi <- hi + |r|^2.  At DEBUG level each sweep logs
    its certified, exact and pseudo-inverse solves (a node where some cells
    certify and others do not counts as one of each).

    ``cells`` splits the sources into consecutive runs, one per fit (cell),
    by their counts (default: one cell of all q).  The cells share every
    batched product but nothing else: "every source" above means every
    source of the cell, so each cell takes the certified or exact path,
    restarts its tracking and pads its Gram on its own.  A cell's rows then
    equal those of a sweep over that cell alone, bit for bit, provided its
    widest rank is the widest of the batch.
    """
    q = len(factors)
    node_count = np.shape(factors[0][0])[0]
    if targets.shape != (q, node_count, node_count):
        raise DimensionError("dimension_mismatch",
                             f"targets of shape {targets.shape}, expected "
                             f"{(q, node_count, node_count)}")
    sizes = [q] if cells is None else list(cells)
    if sum(sizes) != q or min(sizes) < 1:
        raise DimensionError("dimension_mismatch",
                             f"cells of sizes {sizes} do not split {q} sources")
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
    if logger.isEnabledFor(logging.DEBUG) and not keep[~pad].all():
        logger.debug("%d near-zero weights skipped in the node projection",
                     int((~keep[~pad]).sum()))
    # with several cells: where each cell's run of sources starts, and
    # which sources belong to a cell with padding (None: all of them)
    starts = pad_cells = None
    if len(sizes) > 1:
        starts = np.cumsum([0] + sizes[:-1])
        if pad_eye is not None:
            padded = _each_cell(np.logical_or, pad.any(axis=1), starts, sizes)
            if not padded.all():
                pad_cells = padded[:, None, None]

    # tracked inverses and bounds; None until a cell restarts, then zero
    # (never certified) in the rows of the cells that have not
    h = cap = hi = None
    certified = exact = singular = 0
    for v in (range(node_count) if nodes is None else nodes):
        x_v = x[:, v, None, :]
        x_col = x_v.transpose(0, 2, 1)
        rhs = np.matmul(targets[:, v, None, :], x)
        # the certified sources: True (all), False (none) or, with several
        # cells, a per-source mask
        ok = False
        if h is not None:
            # cap = CERT * lo; lo and hi are positive, so hi <= cap * s
            # also requires s > 0
            w = np.matmul(x_v, h)
            s = 1.0 - np.matmul(w, x_col)
            fits = hi <= cap * s
            ok = bool(fits.all())
            if not ok and starts is not None:
                ok = _each_cell(np.logical_and, fits, starts, sizes)
                ok = ok if ok.any() else False
        if ok is not False:
            certified += 1
            if ok is not True:
                # the other cells' rows and tracking come from the exact
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
                None if pad_eye is None else pad_eye[es],
                None if pad_cells is None else pad_cells[es])
            singular += int(np.count_nonzero((inv == 0).any(axis=2)))
            within = _within_cert(eigvals)
            if ok is False:
                row = row_e
                restart = (within.all() if starts is None
                           else _each_cell(np.logical_and, within, starts, sizes))
                h = cap = hi = None
                if restart.any():
                    h, cap, hi = _restart(eigvals, eigvecs, inv, restart)
            else:
                row[es] = row_e
                # a cell restarts when all of its sources are within CERT
                everyone = np.ones(q, dtype=bool)
                everyone[es] = within
                restart = _each_cell(np.logical_and, everyone, starts, sizes)[es]
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


def update_d(x: np.ndarray, target: np.ndarray,
             shrink: float = 0.0) -> np.ndarray:
    """Diagonal-weights step for the node coordinates ``x`` (V, R).

    Projects the (V, V) ``target`` (symmetric with a zero diagonal; for
    uniform_l1, already thresholded by the caller) onto the span of the
    per-component edge vectors Z, whose r-th column holds the edges of
    x_r x_r', then soft-thresholds the weights at ``shrink`` (phi/2 for
    nuclear, 0 otherwise).  The normal equations come from closed-form
    moments instead of Z itself:
    Z'Z = ((X'X) o (X'X) - (X o X)'(X o X)) / 2 and Z't = diag(X' T X) / 2
    (the halves cancel), solved by eigh under the PINV_RTOL rule.
    Weights below PRUNE_RTOL * max|d| are zeroed (rank reduction happens in
    the caller).
    """
    node_count = x.shape[0]
    target = np.asarray(target, dtype=float)
    if target.shape != (node_count, node_count):
        raise DimensionError("dimension_mismatch",
                             f"expected a {node_count} x {node_count} target, "
                             f"got {target.shape}")
    gram = x.T @ x
    squares = x * x
    eigvals, eigvecs = np.linalg.eigh(gram * gram - squares.T @ squares)
    inv = _pinv_rule(eigvals)
    if logger.isEnabledFor(logging.DEBUG) and not inv.all():
        logger.debug("rank-deficient weight Gram, using pseudo-inverse")
    d = eigvecs @ (inv * (eigvecs.T @ np.sum((target @ x) * x, axis=0)))
    if shrink:
        d = soft_threshold(d, shrink)
    scale = np.max(np.abs(d), initial=0.0)
    small = np.abs(d) < PRUNE_RTOL * scale
    if small.any():
        logger.debug("zeroing %d near-zero diagonal weights", int(small.sum()))
        d = np.where(small, 0.0, d)
    return d


def update_mixing(whitened: WhitenedData, s: np.ndarray) -> np.ndarray:
    """Least-squares mixing estimate Y~ S' (S S')^(-1) on the (q, p) source
    rows ``s``, then symmetric orthogonalization.  The result satisfies
    A~' A~ = I to 1e-10; zero or dependent rows raise DegeneracyError, rows
    of the wrong shape DimensionError."""
    s = _source_rows(whitened, s)
    return _polar_orthogonalize(whitened.y_tilde @ s.T @ _source_gram_inverse(s))


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


def _objective(targets: np.ndarray, s: np.ndarray, sources: list[LowRankSource],
               phi: float, regularizer: str) -> float:
    """|targets - s|_F^2 plus the penalty of ``sources``, whose rows are s."""
    return float(np.sum((targets - s) ** 2)) + penalty(sources, phi, regularizer)


def objective(whitened: WhitenedData, model: LocusModel, phi: float,
              regularizer: str = "uniform_l1") -> float:
    """Source-domain objective: sum_l |Y~' A~_l - s_l|^2 plus the penalty.

    By the orthogonality of the mixing matrix this equals the data-domain
    residual |Y~ - A~ S|_F^2 plus the same penalty.
    """
    return _objective(model.a_tilde.T @ whitened.y_tilde, model.source_matrix(),
                      model.sources, phi, regularizer)


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


@dataclass
class _Start(LocusModel):
    """A start from :func:`initialize`, which also keeps the top-k
    eigenvectors (V, k) of each unstructured source it truncated (None for
    a re-seeded one): they seed the first warm rank check of
    :func:`_fit_cells`."""

    basis: list = field(default_factory=list)


def _mixing_start(whitened: WhitenedData, q: int, config: SolverConfig) -> tuple:
    """The rank-free half of :func:`initialize`: FastICA's orthogonalized
    mixing matrix and, per unstructured source, its top-k eigenpairs by
    |lambda| and its |s|^2 (k from :func:`~locus.modelsel._basis_width`),
    or, if the baseline fails with a package error or a LinAlgError, a random
    orthogonal mixing matrix seeded by ``config.seed`` and the projected
    sources it implies.  Reads ``seed`` and ``r_max`` of ``config``."""
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
    node_count = nodes_from_edge_count(whitened.n_edges)
    keep = _basis_width(config, node_count)
    rows = []
    for row in raw:
        m = unvectorize(row, node_count)
        rows.append((*_top_eigen(m, keep), 0.5 * float(np.vdot(m, m))))
    return a_tilde, rows


def _truncated_start(whitened: WhitenedData, a_tilde: np.ndarray,
                     rows: list, config: SolverConfig) -> _Start:
    """The per-rho half of :func:`initialize`: each unstructured source,
    given by the eigenpairs of :func:`_mixing_start`, truncated to the rank
    that :func:`~locus.modelsel.select_rank`'s rule picks under
    ``config.rho`` and ``config.r_max``, bit for bit.  A zero source is
    re-seeded from its projected target (:func:`_reseed_source`)."""
    from .modelsel import _truncate

    node_count = nodes_from_edge_count(whitened.n_edges)
    r_max = min(config.r_max, node_count - 1)
    sources, basis = [], []
    for ell, (eigvals, eigvecs, norm2) in enumerate(rows):
        if norm2 == 0:
            warnings.warn(f"initial source {ell} is zero; re-seeding",
                          DegenerateSourceWarning)
            sources.append(_reseed_source((a_tilde.T @ whitened.y_tilde)[ell],
                                          node_count))
            basis.append(None)
        else:
            sources.append(_truncate(eigvals, eigvecs, norm2, config.rho,
                                     r_max)[1])
            basis.append(eigvecs)
    return _Start(sources=sources, a_tilde=a_tilde, basis=basis)


def initialize(whitened: WhitenedData, q: int, config: SolverConfig) -> LocusModel:
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
    :func:`~locus.modelsel.tune` runs them, and decomposes each source,
    once for every rho.  The returned start also carries those
    eigenvectors, which seed :func:`fit`'s first warm rank check.
    """
    if q != whitened.q:
        raise DimensionError("dimension_mismatch",
                             f"q={q} does not match whitened data (q={whitened.q})")
    return _truncated_start(whitened, *_mixing_start(whitened, q, config),
                            config)


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    denom = np.linalg.norm(old)
    diff = np.linalg.norm(new - old)
    if denom == 0:
        return 0.0 if diff == 0 else np.inf
    return float(diff / denom)


# the errors that stop one cell of _fit_cells and leave the others running
CELL_ERRORS = (LocusError, np.linalg.LinAlgError)


def _shrinks(config: SolverConfig) -> tuple[float, float, float]:
    """The one phi/2 soft-threshold as (edge, node row, weight) thresholds:
    on the targets' edges, the node rows or the weights, 0 elsewhere."""
    half, name = config.phi / 2.0, config.regularizer
    return (half if name == "uniform_l1" else 0.0,
            half if name == "vector_l1" else 0.0,
            half if name == "nuclear" else 0.0)


def _no_basis(config: SolverConfig, sources: list[LowRankSource]) -> tuple:
    """A cell's rank-check state with no basis yet: the (q, V, k) warm bases
    and the (q,) mask of the sources that have one."""
    from .modelsel import _basis_width

    node_count = sources[0].node_count
    return (np.zeros((len(sources), node_count, _basis_width(config, node_count))),
            np.zeros(len(sources), dtype=bool))


def _target_mats(config: SolverConfig, sources: list[LowRankSource],
                 targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A cell's targets thresholded (uniform_l1) and unvectorized, the
    (q, V, V) matrices shared by rank selection and both block updates,
    and their squared edge norms |s_star|^2 (q,)."""
    node_count = sources[0].node_count
    edge_shrink = _shrinks(config)[0]
    s_star = soft_threshold(targets, edge_shrink) if edge_shrink else targets
    return (np.stack([unvectorize(row, node_count) for row in s_star]),
            np.einsum("ij,ij->i", s_star, s_star))


def _sweep_cells(batch, shrink: float) -> list:
    """One :func:`sweep_nodes` call over the live sources of the cells in
    ``batch``, each a (sources, target matrices, live indices) triple.
    Returns per cell the swept x arrays, or the LinAlgError that stopped
    its sweep: a failure in one cell's eigh fails the batched call, so the
    cells are then swept one by one to find it."""
    factors = [(sources[ell].x, sources[ell].d)
               for sources, _, live in batch for ell in live]
    mats = [cell_mats[live] for _, cell_mats, live in batch]
    sizes = [len(live) for _, _, live in batch]
    try:
        xs = sweep_nodes(factors, np.concatenate(mats) if len(mats) > 1
                         else mats[0], shrink, cells=sizes)
    except np.linalg.LinAlgError as err:
        if len(batch) == 1:
            return [err]
        return [out for cell in batch for out in _sweep_cells([cell], shrink)]
    out = []
    for size in sizes:
        out.append(xs[:size])
        xs = xs[size:]
    return out


def _weigh(config: SolverConfig, sources: list[LowRankSource],
           targets: np.ndarray, target_mats: np.ndarray, swept: dict,
           it: int) -> tuple[list[LowRankSource], list[int]]:
    """The last block of a step for one cell: renormalize each swept
    source's columns, re-fit and prune its weights; a source with a zero
    target or zero weights is re-seeded from its unthresholded target's
    dominant eigenpair.  Returns the sources and the re-seeded indices."""
    if not all(np.all(np.isfinite(x)) for x in swept.values()):
        raise NumericError("non_finite", f"node update overflowed at iteration {it}")
    weight_shrink = _shrinks(config)[2]
    reseeded = []
    for ell in range(len(sources)):
        if ell in swept:
            x = swept[ell]
            # renormalize columns; the weight step below re-fits d
            norms = np.linalg.norm(x, axis=0)
            alive = norms > 0
            x[:, alive] /= norms[alive]
            # diagonal weights against the whole target
            d = update_d(x, target_mats[ell], weight_shrink)
            if not np.all(np.isfinite(d)):
                raise NumericError("non_finite", "weight update overflowed "
                                   f"at iteration {it}")
            keep = d != 0
            if keep.any():
                if not keep.all():
                    logger.debug("source %d: pruning %d components at "
                                 "iteration %d", ell, int((~keep).sum()), it)
                    x, d = x[:, keep], d[keep]
                sources[ell] = LowRankSource(x, d)
                continue

        # a zero target or zero weights: re-seed from the projected target
        reseeded.append(ell)
        sources[ell] = _reseed_source(targets[ell], sources[ell].node_count)
    return sources, reseeded


def _step(cells, it: int, checks=None) -> list:
    """The source blocks of outer iteration ``it`` for every cell, each a
    (config, sources, targets) triple with the (q, p) targets A~' Y~:
    threshold (uniform_l1), re-select each rank, sweep the nodes of the
    sources with nonzero targets, re-fit and prune the weights
    (:func:`~locus.modelsel._select_ranks`, :func:`sweep_nodes`,
    :func:`_weigh`).

    ``checks`` holds each cell's rank-check state (:func:`_no_basis`, the
    default), which the step updates in place: a source that is pruned or
    re-seeded loses its basis, so its next check is exact.  Rank selection
    batches the warm checks of all cells; the cells whose live sources
    have the same widest rank and node-row threshold make one batch, one
    :func:`sweep_nodes` call, in which every source keeps the padding a
    lone sweep of its cell gives it.  Returns per cell its new sources and
    re-seeded indices, or the :data:`CELL_ERRORS` error that stopped it;
    ``it`` labels errors.  At DEBUG level it logs its warm, exact and
    changed rank checks.
    """
    from . import modelsel

    if checks is None:
        checks = [_no_basis(config, sources) for config, sources, _ in cells]
    mats = [_target_mats(config, sources, t) for config, sources, t in cells]
    out, counts = modelsel._select_ranks([cell[:2] for cell in cells], mats,
                                         checks)
    logger.debug("rank checks: %d warm, %d exact, %d changed", *counts)
    batches: dict[tuple[int, float], list[int]] = {}
    for i, selected in enumerate(out):
        if not isinstance(selected, Exception) and selected[1]:
            sources, live = selected
            width = max(sources[ell].rank for ell in live)
            batches.setdefault((width, _shrinks(cells[i][0])[1]), []).append(i)

    swept = {}
    for (_, shrink), batch in batches.items():
        swept.update(zip(batch, _sweep_cells(
            [(out[i][0], mats[i][0], out[i][1]) for i in batch], shrink)))

    for i, selected in enumerate(out):
        if isinstance(selected, Exception):
            continue
        (config, _, t), (sources, live) = cells[i], selected
        ranks = [src.rank for src in sources]
        xs = swept.get(i, [])
        try:
            if isinstance(xs, Exception):
                raise xs
            out[i] = _weigh(config, sources, t, mats[i][0],
                            dict(zip(live, xs)), it)
        except CELL_ERRORS as err:
            out[i] = err
            continue
        new, reseeded = out[i]
        ready = checks[i][1]
        ready &= [src.rank == rank and ell not in reseeded
                  for ell, (src, rank) in enumerate(zip(new, ranks))]
    return out


def _start(whitened: WhitenedData, config: SolverConfig,
           init: LocusModel) -> tuple:
    """A cell's state at the start: (sources, A~, targets A~' Y~, stacked
    (q, p) source rows, objective trace, indices warned about, rank-check
    state).  The targets and rows give ``objective_trace[0]`` and feed
    step 1.  The rank-check state (:func:`_no_basis`) is the cell's own
    copy of the eigenvectors an :func:`initialize` start keeps, where
    their width suits ``config``."""
    a_tilde = np.asarray(init.a_tilde, dtype=float).copy()
    targets = a_tilde.T @ whitened.y_tilde
    s_mat = np.vstack([s.edge_vector() for s in init.sources])
    trace = [_objective(targets, s_mat, init.sources, config.phi,
                        config.regularizer)]
    checks = _no_basis(config, init.sources)
    for ell, vecs in enumerate(init.basis if isinstance(init, _Start) else []):
        if vecs is not None and vecs.shape == checks[0].shape[1:]:
            checks[0][ell], checks[1][ell] = vecs, True
    return init.sources, a_tilde, targets, s_mat, trace, set(), checks


def _advance(whitened: WhitenedData, config: SolverConfig, cell: tuple,
             stepped, it: int) -> tuple[tuple, bool]:
    """The rest of outer iteration ``it`` for one cell, from its state
    ``cell`` (see :func:`_start`) and its :func:`_step` result: warn
    once per re-seeded source, stack the rows once, update the mixing,
    compute the next targets once and score them.  Returns the cell's next
    state and whether the relative changes of A~ and S fell below eps1 and
    eps2."""
    if isinstance(stepped, Exception):
        raise stepped
    sources, reseeded = stepped
    _, a_tilde, _, s_mat, trace, warned, checks = cell
    for ell in reseeded:
        if ell not in warned:
            warnings.warn(f"source {ell} collapsed to zero at iteration {it}; "
                          "re-seeding", DegenerateSourceWarning)
            warned.add(ell)
        else:
            logger.debug("source %d collapsed again at iteration %d", ell, it)

    s_new = np.vstack([s.edge_vector() for s in sources])
    a_new = update_mixing(whitened, s_new)
    if not np.all(np.isfinite(a_new)):
        raise NumericError("non_finite", f"mixing update overflowed at iteration {it}")
    targets = a_new.T @ whitened.y_tilde
    trace.append(_objective(targets, s_new, sources, config.phi,
                            config.regularizer))
    converged = (_relative_change(a_new, a_tilde) < config.eps1
                 and _relative_change(s_new, s_mat) < config.eps2)
    return (sources, a_new, targets, s_new, trace, warned, checks), converged


def _finish(whitened: WhitenedData, cell: tuple, converged: bool,
            it: int) -> LocusModel:
    """A stopped cell's model; the loadings are least squares on its final
    rows."""
    sources, a_tilde, _, s_mat, trace, _, _ = cell
    return LocusModel(sources, a_tilde, unmix_to_subject_space(whitened, s_mat),
                      np.asarray(trace), converged=converged, iterations=it)


def _fit_cells(whitened: WhitenedData, cells) -> list:
    """Fit every (config, init) cell on the same whitened data in lockstep.

    Each cell is a start, one step per outer iteration and a stopping rule.
    Start (:func:`_start`): the targets A~' Y~ and stacked (q, p) source
    rows of ``init`` give ``objective_trace[0]`` and feed step 1, and the
    eigenvectors an :func:`initialize` start keeps seed the warm rank
    checks.  Step: one :func:`_step` updates the sources of every running
    cell, sharing the warm rank checks and the node sweeps.  Then, per cell
    (:func:`_advance`), the rows are stacked once, :func:`update_mixing`
    re-estimates A~ from them and the next targets are computed once, for
    the objective, the relative changes and the next step.  A re-seeded
    source warns once per cell (DegenerateSourceWarning).  Stop: a cell
    leaves, and frees its state, when the relative changes of A~ and S
    fall below its eps1/eps2, at its max_iter, or when a
    :data:`CELL_ERRORS` error stops it; no other cell sees either.  Every
    cell's model is the one :func:`fit` returns for that cell alone, bit
    for bit.  No random numbers are drawn.  Loadings are least squares on
    the final rows.

    Returns per cell the fitted LocusModel or the error.  The inits are not
    checked against the data; :func:`fit` does that.
    """
    results: list = [None] * len(cells)
    state = {}  # per running cell, in cell order: see _start
    for i, (config, init) in enumerate(cells):
        try:
            state[i] = _start(whitened, config, init)
        except CELL_ERRORS as err:
            results[i] = err

    it = 0
    while state:
        it += 1
        stepped = _step([(cells[i][0], state[i][0], state[i][2]) for i in state],
                        it, [state[i][6] for i in state])
        for i, out in zip(list(state), stepped):
            config = cells[i][0]
            # popped and put back (cell order holds), so that no old state
            # outlives the step that replaces it
            try:
                state[i], converged = _advance(whitened, config, state.pop(i),
                                               out, it)
                if converged or it == config.max_iter:
                    results[i] = _finish(whitened, state.pop(i), converged, it)
            except CELL_ERRORS as err:
                results[i] = err
    return results


def fit(whitened: WhitenedData, q: int, config: SolverConfig,
        init: LocusModel | None = None) -> LocusModel:
    """Run the node-rotation algorithm on whitened data: start, step, stop.

    Checks ``q`` and ``init`` (default: :func:`initialize`) against the
    data, then fits the one cell (config, init) with :func:`_fit_cells`,
    the loop :func:`~locus.modelsel.tune` runs every grid cell through, and
    raises the error that stopped it, if any.  Each step re-selects every
    rank by :func:`~locus.modelsel.select_rank`'s rule, confirmed by a warm
    Ritz check where it can be (see the module docstring); the model is
    the exact rule's wherever their decisions agree.  No random numbers
    are drawn after the start.
    """
    if q != whitened.q:
        raise DimensionError("dimension_mismatch",
                             f"q={q} does not match whitened data (q={whitened.q})")
    node_count = nodes_from_edge_count(whitened.n_edges)
    if init is None:
        init = initialize(whitened, q, config)
    if init.q != q or init.a_tilde.shape != (q, q):
        raise DimensionError("dimension_mismatch",
                             "init model does not match q")
    for ell, src in enumerate(init.sources):
        if src.node_count != node_count:
            raise DimensionError("dimension_mismatch",
                                 f"init source {ell} has V={src.node_count}, "
                                 f"the data has V={node_count}")
    (result,) = _fit_cells(whitened, [(config, init)])
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
