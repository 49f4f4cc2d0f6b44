"""Iterative node-rotation solver for sparse low-rank source separation.

Each latent source is a symmetric low-rank factorization X diag(d) X' whose
upper-triangle vector lives in edge space.  One outer iteration updates the
latent node coordinates one node at a time (conditioning on all other
nodes, Gauss-Seidel), then the diagonal weights of every source, and
finally re-estimates the reduced mixing matrix and orthogonalizes it.  The
targets are fixed while the sources update, so the sources' node blocks are
independent: one sweep over the nodes updates node v of every source at
once (:func:`sweep_nodes`).

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
lands.  :func:`fit` reads the regularizer once and hands each block kernel
a plain threshold (0 where the variant puts none):

* ``uniform_l1`` (default): element-wise L1 on the reconstructed source's
  edges.  :func:`fit` thresholds the projected targets' edges before both
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

from .connmat import nodes_from_edge_count, triu_indices, unvectorize, vectorize
from .errors import (DegeneracyError, DimensionError, LocusError, NumericError,
                     ValidationError)
from .preprocess import (WhitenedData, _polar_orthogonalize,
                         _regress_on_sources, unmix_to_subject_space)

logger = logging.getLogger(__name__)

PINV_RTOL = 1e-10
# condition-number bound under which sweep_nodes solves by its
# Sherman-Morrison inverse: two decades inside the PINV_RTOL rule
CERT = 1e-2 / PINV_RTOL
PRUNE_RTOL = 1e-10


def _check_penalty(phi: float, regularizer: str) -> None:
    if phi < 0:
        raise ValidationError("bad_config", f"phi must be >= 0, got {phi}")
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
        if self.eps1 <= 0 or self.eps2 <= 0:
            raise ValidationError("bad_config", "stopping tolerances must be positive")
        if self.max_iter < 1:
            raise ValidationError("bad_config", "max_iter must be >= 1")
        if self.r_max < 1:
            raise ValidationError("bad_config", "r_max must be >= 1")


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
    if t < 0:
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


def sweep_nodes(factors, targets: np.ndarray, shrink: float = 0.0,
                nodes=None) -> list[np.ndarray]:
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
    lambda_min, hi = lambda_max restart the tracking.  After each node the
    new row r is added to H as a rank-1 update, and the bounds stay bounds
    as lo <- lo s after a certified node (lambda_min(G - x_v x_v') >=
    s lambda_min(G)) and hi <- hi + |r|^2.  At DEBUG level each sweep logs
    its certified, exact and pseudo-inverse solves.
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
    if logger.isEnabledFor(logging.DEBUG) and not keep[~pad].all():
        logger.debug("%d near-zero weights skipped in the node projection",
                     int((~keep[~pad]).sum()))

    h = cap = hi = None
    certified = exact = singular = 0
    for v in (range(node_count) if nodes is None else nodes):
        x_v = x[:, v, None, :]
        x_col = x_v.transpose(0, 2, 1)
        rhs = np.matmul(targets[:, v, None, :], x)
        ok = h is not None
        if ok:
            # cap = CERT * lo; lo and hi are positive, so hi <= cap * s
            # also requires s > 0
            w = np.matmul(x_v, h)
            s = 1.0 - np.matmul(w, x_col)
            ok = bool((hi <= cap * s).all())
        if ok:
            certified += 1
            c = np.matmul(rhs, h)
            row = (c + np.matmul(c, x_col) / s * w) * inv_d
            # downdate by x_v
            h = h + w.transpose(0, 2, 1) * (w / s)
            cap = cap * s
        else:
            exact += 1
            gram = np.matmul(x.transpose(0, 2, 1), x) - x_col * x_v
            if pad_eye is not None:
                top = np.diagonal(gram, axis1=1, axis2=2).max(axis=1)
                gram = gram + pad_eye * top[:, None, None]
            eigvals, eigvecs = np.linalg.eigh(gram)
            inv = _pinv_rule(eigvals)[:, None, :]
            singular += int(np.count_nonzero((inv == 0).any(axis=2)))
            eigvecs_t = eigvecs.transpose(0, 2, 1)
            row = np.matmul(np.matmul(rhs, eigvecs) * inv, eigvecs_t) * inv_d
            h = None
            if (eigvals[:, 0].min() > 0
                    and (eigvals[:, -1] <= CERT * eigvals[:, 0]).all()):
                h = np.matmul(eigvecs * inv, eigvecs_t)
                cap, hi = CERT * eigvals[:, None, :1], eigvals[:, None, -1:]
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


def update_mixing(whitened: WhitenedData, sources: list[LowRankSource]) -> np.ndarray:
    """Least-squares mixing estimate Y~ S' (S S')^(-1), then symmetric
    orthogonalization.  The result satisfies A~' A~ = I to 1e-10."""
    s = np.vstack([src.edge_vector() for src in sources])
    return _polar_orthogonalize(_regress_on_sources(whitened.y_tilde, s))


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


def objective(whitened: WhitenedData, model: LocusModel, phi: float,
              regularizer: str = "uniform_l1") -> float:
    """Source-domain objective: sum_l |Y~' A~_l - s_l|^2 plus the penalty.

    By the orthogonality of the mixing matrix this equals the data-domain
    residual |Y~ - A~ S|_F^2 plus the same penalty.
    """
    targets = model.a_tilde.T @ whitened.y_tilde
    s = model.source_matrix()
    fidelity = float(np.sum((targets - s) ** 2))
    return fidelity + penalty(model.sources, phi, regularizer)


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
    seeds FastICA and the random fallback.
    """
    from . import baselines
    from .modelsel import select_rank

    if q != whitened.q:
        raise DimensionError("dimension_mismatch",
                             f"q={q} does not match whitened data (q={whitened.q})")
    node_count = nodes_from_edge_count(whitened.n_edges)
    r_max = min(config.r_max, node_count - 1)

    try:
        ica = baselines.fastica(whitened, q, seed=config.seed)
        a_tilde = _polar_orthogonalize(ica.mixing)
        raw = ica.sources
    except (LocusError, np.linalg.LinAlgError) as err:
        # fall back to a seeded random start
        logger.warning("baseline initialization failed (%s); using random "
                       "orthogonal start", err)
        rng = np.random.default_rng(config.seed)
        a_tilde = _polar_orthogonalize(rng.standard_normal((q, q)))
        raw = a_tilde.T @ whitened.y_tilde

    sources = []
    for ell in range(q):
        try:
            _, src = select_rank(unvectorize(raw[ell], node_count), config.rho,
                                 r_max)
        except DegeneracyError:
            warnings.warn(f"initial source {ell} is zero; re-seeding",
                          DegenerateSourceWarning)
            src = _reseed_source((a_tilde.T @ whitened.y_tilde)[ell],
                                 node_count)
        sources.append(src)
    return LocusModel(sources=sources, a_tilde=a_tilde)


def _relative_change(new: np.ndarray, old: np.ndarray) -> float:
    denom = np.linalg.norm(old)
    diff = np.linalg.norm(new - old)
    if denom == 0:
        return 0.0 if diff == 0 else np.inf
    return float(diff / denom)


def fit(whitened: WhitenedData, q: int, config: SolverConfig,
        init: LocusModel | None = None) -> LocusModel:
    """Run the node-rotation algorithm on whitened data.

    Iterates the three block updates until the relative changes of the
    mixing matrix and the source matrix drop below eps1/eps2 or max_iter is
    reached.  Each iteration takes every source through one path: its rank
    is re-selected from the thresholded unstructured source (a rank change
    restarts its factors from the truncated eigendecomposition of that
    target), its nodes are swept, its weights are re-fitted and zero
    weights pruned.  A source whose target or weights are all zero is
    re-seeded at the end of its step from the dominant eigenpair of its
    projected target, with one DegenerateSourceWarning per source.  The
    iterations draw no random numbers.  Subject loadings are filled in by
    least squares against the final sources.  ``init`` is the start
    (default: :func:`initialize`).
    """
    from .modelsel import select_rank

    if q != whitened.q:
        raise DimensionError("dimension_mismatch",
                             f"q={q} does not match whitened data (q={whitened.q})")
    node_count = nodes_from_edge_count(whitened.n_edges)
    r_max = min(config.r_max, node_count - 1)
    phi = config.phi
    regularizer = config.regularizer
    # the one phi/2 soft-threshold lands on the targets' edges, on each new
    # node row or on the diagonal weights
    edge_shrink = phi / 2.0 if regularizer == "uniform_l1" else 0.0
    row_shrink = phi / 2.0 if regularizer == "vector_l1" else 0.0
    weight_shrink = phi / 2.0 if regularizer == "nuclear" else 0.0

    if init is None:
        init = initialize(whitened, q, config)
    if init.q != q or init.a_tilde.shape != (q, q):
        raise DimensionError("dimension_mismatch",
                             "init model does not match q")

    sources = list(init.sources)
    a_tilde = np.asarray(init.a_tilde, dtype=float).copy()
    trace = [objective(whitened, LocusModel(sources, a_tilde), phi, regularizer)]
    prev_s = np.vstack([s.edge_vector() for s in sources])
    converged = False
    iterations = 0
    warned_degenerate: set[int] = set()

    for it in range(1, config.max_iter + 1):
        iterations = it
        targets = a_tilde.T @ whitened.y_tilde
        s_star = soft_threshold(targets, edge_shrink) if edge_shrink else targets
        # the (V, V) targets shared by rank selection and both block updates
        target_mats = np.stack([unvectorize(row, node_count) for row in s_star])

        # adaptive rank re-selection against the unstructured sources; a
        # zero target leaves its source out of the sweep
        live = []
        for ell in range(q):
            try:
                new_rank, eig_src = select_rank(target_mats[ell], config.rho,
                                                r_max)
            except DegeneracyError:
                continue
            if new_rank != sources[ell].rank:
                sources[ell] = eig_src
            live.append(ell)

        # Step 1: node sweep over the live sources together, freshest
        # coordinates within the sweep
        swept = {}
        if live:
            swept = dict(zip(live, sweep_nodes(
                [(sources[ell].x, sources[ell].d) for ell in live],
                target_mats[live], row_shrink)))
            if not all(np.all(np.isfinite(x)) for x in swept.values()):
                raise NumericError("non_finite",
                                   f"node update overflowed at iteration {it}")

        for ell in range(q):
            if ell in swept:
                x = swept[ell]
                # renormalize columns; the weight step below re-fits d
                norms = np.linalg.norm(x, axis=0)
                alive = norms > 0
                x[:, alive] /= norms[alive]

                # Step 2: diagonal weights against the whole target
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
            if ell not in warned_degenerate:
                warnings.warn(f"source {ell} collapsed to zero at iteration "
                              f"{it}; re-seeding", DegenerateSourceWarning)
                warned_degenerate.add(ell)
            else:
                logger.debug("source %d collapsed again at iteration %d", ell, it)
            sources[ell] = _reseed_source(targets[ell], node_count)

        # Step 3: mixing matrix
        a_new = update_mixing(whitened, sources)
        if not np.all(np.isfinite(a_new)):
            raise NumericError("non_finite",
                               f"mixing update overflowed at iteration {it}")

        s_mat = np.vstack([s.edge_vector() for s in sources])
        trace.append(objective(whitened, LocusModel(sources, a_new), phi,
                               regularizer))
        rel_a = _relative_change(a_new, a_tilde)
        rel_s = _relative_change(s_mat, prev_s)
        a_tilde, prev_s = a_new, s_mat
        if rel_a < config.eps1 and rel_s < config.eps2:
            converged = True
            break

    model = LocusModel(sources=sources, a_tilde=a_tilde,
                       objective_trace=np.asarray(trace),
                       converged=converged, iterations=iterations)
    model.a = unmix_to_subject_space(whitened, prev_s)
    return model


# ---------------------------------------------------------------------------
# model serialization: one directory per fit
# ---------------------------------------------------------------------------

def write_meta(path: str, meta: dict) -> None:
    """Write one ``key=value`` line per item, in order; values as str()."""
    with open(path, "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key}={value}\n")


def read_meta(path: str) -> dict:
    """Read a file written by :func:`write_meta`; every value is a str."""
    meta = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                key, value = line.split("=", 1)
                meta[key] = value
    return meta


def read_sources(path: str, q: int) -> tuple[np.ndarray, int]:
    """Read S_1.csv .. S_<q>.csv (V x V symmetric) from a fit or truth
    directory.  Returns their (q, p) edge vectors and V."""
    matrices = [np.loadtxt(os.path.join(path, f"S_{ell + 1}.csv"),
                           delimiter=",", ndmin=2) for ell in range(q)]
    return np.vstack([vectorize(m) for m in matrices]), matrices[0].shape[0]


def save_decomposition(path: str, sources: np.ndarray, node_count: int,
                       a: np.ndarray, a_tilde: np.ndarray, meta: dict,
                       factors: list[LowRankSource] | None = None) -> None:
    """Write a fit directory: A.csv, A_tilde.csv, per-source S_<l>.csv
    (V x V symmetric), optional X_<l>.csv / d_<l>.csv, and a key=value
    meta file.  Source files are 1-indexed."""
    os.makedirs(path, exist_ok=True)
    np.savetxt(os.path.join(path, "A.csv"), a, delimiter=",", fmt="%.17g")
    np.savetxt(os.path.join(path, "A_tilde.csv"), a_tilde, delimiter=",", fmt="%.17g")
    for ell in range(sources.shape[0]):
        np.savetxt(os.path.join(path, f"S_{ell + 1}.csv"),
                   unvectorize(sources[ell], node_count),
                   delimiter=",", fmt="%.17g")
    if factors is not None:
        for ell, src in enumerate(factors):
            np.savetxt(os.path.join(path, f"X_{ell + 1}.csv"), src.x,
                       delimiter=",", fmt="%.17g")
            np.savetxt(os.path.join(path, f"d_{ell + 1}.csv"),
                       np.atleast_1d(src.d), delimiter=",", fmt="%.17g")
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
    "node_count".
    """
    meta = read_meta(os.path.join(path, "meta"))
    sources, node_count = read_sources(path, int(meta["q"]))
    a = np.loadtxt(os.path.join(path, "A.csv"), delimiter=",", ndmin=2)
    a_tilde = np.loadtxt(os.path.join(path, "A_tilde.csv"), delimiter=",", ndmin=2)
    return {"sources": sources, "a": a, "a_tilde": a_tilde, "meta": meta,
            "node_count": node_count}
