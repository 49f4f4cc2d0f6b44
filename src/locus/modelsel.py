"""Adaptive per-source rank selection and BIC-based tuning of (phi, rho).

The rank of each latent source is the smallest r whose rank-r symmetric
eigen-truncation retains a rho fraction of the unstructured source's edge
energy.  The (phi, rho) pair is picked over a grid by a BIC that trades the
Gaussian log-likelihood of the residuals against the L0 size of the
reconstructed sources.

The solver re-selects every rank at every iteration, and a full V x V
eigh per source (:func:`select_rank`, the exact rule) would be the
costliest part of its step.  So each source keeps the top-k eigen or Ritz
vectors of its last check, k = min(r_max + RITZ_EXTRA, V - 1), and one
warm check (:func:`_select_ranks`) batched over every source of every
running cell -- a QR of M Z, a Rayleigh-Ritz projection and a batched
eigh of the k x k projections -- may confirm the current rank.
Everything else runs the exact rule: a proposed change, a deciding ratio
within RITZ_MARGIN times the Ritz error estimate of 1 - rho (a heuristic
margin, not a bound), and a source with no basis yet or whose rank the
last weight step pruned.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .connmat import ConnectivityDataset
from .errors import DegeneracyError, DimensionError, ValidationError
from .preprocess import _centered_blocks, whiten
from .solver import (CELL_ERRORS, LocusModel, LowRankSource, SolverConfig,
                     _fit_cells, _mixing_start, _truncated_start)

# edges above this fraction of their source's largest edge count toward L0
ZERO_TOL = 1e-3
# the warm rank check keeps RITZ_EXTRA Ritz vectors past the rank cap, and
# defers to the exact rule when a deciding ratio lies within RITZ_MARGIN
# times its Ritz error estimate of 1 - rho (a heuristic, not a bound)
RITZ_EXTRA = 4
RITZ_MARGIN = 10.0


class RankCapWarning(UserWarning):
    """Requested closeness not reachable within the rank cap."""


@dataclass(frozen=True)
class TuningCell:
    phi: float
    rho: float
    bic: float
    iterations: int = 0
    converged: bool = False
    ranks: tuple[int, ...] = ()
    error: str | None = None


@dataclass(frozen=True)
class TuningResult:
    grid: tuple[TuningCell, ...]
    best: tuple[float, float]


def truncation_ratios(eigvals: np.ndarray, eigvecs: np.ndarray,
                      norm2: float | np.ndarray) -> np.ndarray:
    """Edge-space residual ratios |s_hat_r - s_star|^2 / |s_star|^2 of the
    eigen-truncations r = 1..R, in closed form, for one source (eigvals
    (R,), eigvecs (V, R), norm2 a float) or a stack of them (eigvals
    (..., R), eigvecs (..., V, R), norm2 (...)).

    With M the unvectorized source (zero diagonal, |M|_F^2 = 2 norm2) and
    T_r = sum_{i<=r} lambda_i u_i u_i' its truncation, the edge residual is
    half the matrix residual minus the diagonal of T_r:

        ratio_r = (2 norm2 - sum_{i<=r} lambda_i^2 - |diag(T_r)|^2)
                  / (2 norm2),   diag(T_r) = sum_{i<=r} lambda_i u_i^2.

    The pairs need not be exact: the warm check of :func:`_select_ranks`
    passes Ritz pairs.
    """
    eigvals = np.asarray(eigvals)
    norm2 = np.asarray(norm2)[..., None]
    diag_t = np.cumsum(eigvecs ** 2 * eigvals[..., None, :], axis=-1)
    return ((2.0 * norm2 - np.cumsum(eigvals ** 2, axis=-1)
             - np.sum(diag_t ** 2, axis=-2)) / (2.0 * norm2))


def _cap_warning(r_max: int, rho: float) -> None:
    warnings.warn(f"rank cap {r_max} hit before reaching closeness {rho}",
                  RankCapWarning)


def _top_eigen(m: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``keep`` eigenpairs of the symmetric ``m`` largest in |lambda|,
    in that order: eigenvalues (keep,) and eigenvectors (V, keep)."""
    eigvals, eigvecs = np.linalg.eigh(m)
    order = np.argsort(-np.abs(eigvals))[:keep]
    return eigvals[order], eigvecs[:, order]


def _truncate(eigvals: np.ndarray, eigvecs: np.ndarray, norm2: float,
              rho: float, r_max: int) -> tuple[int, LowRankSource]:
    """:func:`select_rank`'s rule on eigenpairs sorted by decreasing
    |lambda| (at least ``r_max`` of them) of a source with
    |s_star|^2 = norm2 > 0 and an effective cap ``r_max``."""
    ratios = truncation_ratios(eigvals[:r_max], eigvecs[:, :r_max], norm2)
    reached = np.flatnonzero(ratios <= 1.0 - rho)
    if reached.size:
        rank = int(reached[0]) + 1
    else:
        rank = r_max
        _cap_warning(r_max, rho)
    return rank, LowRankSource(eigvecs[:, :rank], eigvals[:rank])


def select_rank(m: np.ndarray, rho: float, r_max: int, basis: int = 0):
    """Smallest rank whose eigen-truncation reconstructs the unstructured
    source to the requested closeness.

    ``m`` is the source as a symmetric (V, V) matrix with a zero diagonal
    (:func:`~locus.connmat.unvectorize` of its edge vector s_star), so
    |s_star|^2 = |M|_F^2 / 2.  The residual ratio
    |s_hat_r - s_star|^2 / |s_star|^2 is evaluated on edge vectors, where
    the vectorization drops the diagonal, so eigenvalue sums alone do not
    give it (see :func:`truncation_ratios`).  Returns the rank and the
    truncated eigen-factor; hitting the cap emits a RankCapWarning.  With
    ``basis`` > 0 it also returns, third, the eigenvectors of the
    ``basis`` eigenvalues largest in magnitude, (V, basis), from the same
    decomposition.  This is the exact rule the solver re-selects ranks by.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError("dimension_mismatch",
                             f"expected a square source matrix, got shape {m.shape}")
    if not 0 < rho < 1:
        raise ValidationError("bad_config", f"rho must lie in (0, 1), got {rho}")
    norm2 = 0.5 * float(np.vdot(m, m))
    if norm2 == 0:
        raise DegeneracyError("zero_source",
                              "cannot select a rank for an all-zero source")
    r_max = min(r_max, m.shape[0] - 1)
    eigvals, eigvecs = _top_eigen(m, max(r_max, basis))
    rank, source = _truncate(eigvals, eigvecs, norm2, rho, r_max)
    return (rank, source, eigvecs[:, :basis]) if basis else (rank, source)


def _basis_width(config: SolverConfig, node_count: int) -> int:
    """Columns k of each source's warm basis: RITZ_EXTRA past the effective
    rank cap min(r_max, V-1), and at most V-1."""
    return min(min(config.r_max, node_count - 1) + RITZ_EXTRA, node_count - 1)


def _ritz_pairs(group) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One warm subspace step for the sources ``rows`` of every
    (target matrices, bases, rows) cell in ``group``, batched: Q from the
    QR of M Z, the eigenpairs (theta, W) of Q' M Q, the Ritz vectors
    U = Q W and the residual norms |M u - theta u|.  Returns theta (n, k),
    U (n, V, k) and the residuals (n, k) over the group's rows in order,
    each source's pairs sorted by decreasing |theta|.  Each cell's target
    stack is read in place: a source outside ``rows`` multiplies zeros or
    a stale basis, and its product is dropped."""
    y = np.concatenate([np.matmul(mats, z)[rows] for mats, z, rows in group])
    q_mat = np.linalg.qr(y)[0]
    products, at = [], 0
    for mats, z, rows in group:
        part = q_mat[at:at + rows.size]
        at += rows.size
        if rows.size < len(mats):
            full = np.zeros_like(z)
            full[rows] = part
            part = full
        products.append(np.matmul(mats, part)[rows])
    mq = np.concatenate(products)
    theta, w = np.linalg.eigh(np.matmul(q_mat.transpose(0, 2, 1), mq))
    order = np.argsort(-np.abs(theta), axis=1)
    theta = np.take_along_axis(theta, order, axis=1)
    w = np.take_along_axis(w, order[:, None, :], axis=2)
    u = np.matmul(q_mat, w)
    resid = np.linalg.norm(np.matmul(mq, w) - u * theta[:, None, :], axis=1)
    return theta, u, resid


def _warm_ranks(theta, u, resid, norm2, gap, ranks, r_max: int):
    """Per source: whether its Ritz pairs confirm its current rank under
    the cap ``r_max`` and 1 - rho = ``gap``, and whether that rank is
    below the cap (a ratio reached ``gap``).  A rank is confirmed when the
    rule of :func:`select_rank` applied to the Ritz pairs gives it, and
    every ratio that decides it (those up to the rank) lies more than
    RITZ_MARGIN * sum(resid |theta|) / |s_star|^2 from ``gap``."""
    ratios = truncation_ratios(theta[:, :r_max], u[:, :, :r_max], norm2)
    reached = ratios <= gap[:, None]
    found = reached.any(axis=1)
    rank = np.where(found, reached.argmax(axis=1) + 1, r_max)
    deciding = np.arange(r_max) < rank[:, None]
    margin = np.where(deciding, np.abs(ratios - gap[:, None]), np.inf).min(axis=1)
    error = np.sum(resid[:, :r_max] * np.abs(theta[:, :r_max]), axis=1) / norm2
    return (rank == ranks) & (margin > RITZ_MARGIN * error), found


def _select_ranks(cells, targets) -> tuple[list, tuple[int, int, int]]:
    """The first block of a step for every :class:`~locus.solver._Cell`,
    given its (target matrices, |s_star|^2): re-select the rank of each
    source with a nonzero target, updating the cell's sources and
    rank-check state (``basis``, ``ready``) in place.

    One warm check (:func:`_ritz_pairs`, :func:`_warm_ranks`), batched
    over every source with a basis of every cell of the same effective
    cap, may confirm a rank; the Ritz vectors become the new basis, and a
    confirmation at the cap warns as the exact rule does (RankCapWarning).
    Every other source takes the exact rule, :func:`select_rank`, whose
    eigenvectors become its basis; a changed rank restarts the factors
    from its truncated eigendecomposition.  Returns per cell the indices
    of the sources with nonzero targets, which go to the node sweep, and
    the counts of warm, exact and changed checks.  A :data:`CELL_ERRORS`
    error goes to the cell's ``error``."""
    warm = [np.zeros(len(cell.sources), dtype=bool) for cell in cells]
    groups: dict[int, list[tuple[int, np.ndarray]]] = {}
    for i, (cell, (_, norm2)) in enumerate(zip(cells, targets)):
        rows = np.flatnonzero(cell.ready & (norm2 > 0))
        if rows.size:
            cap = min(cell.config.r_max, cell.sources[0].node_count - 1)
            groups.setdefault(cap, []).append((i, rows))
    for r_max, members in groups.items():
        try:
            theta, u, resid = _ritz_pairs([(targets[i][0], cells[i].basis, rows)
                                           for i, rows in members])
        except np.linalg.LinAlgError:
            continue  # every source of the group takes the exact rule
        split = np.cumsum([rows.size for _, rows in members])[:-1]
        confirmed, below = _warm_ranks(
            theta, u, resid,
            np.concatenate([targets[i][1][rows] for i, rows in members]),
            np.concatenate([np.full(rows.size, 1.0 - cells[i].config.rho)
                            for i, rows in members]),
            np.array([cells[i].sources[ell].rank for i, rows in members
                      for ell in rows]), r_max)
        for (i, rows), ok, found, vecs in zip(members, np.split(confirmed, split),
                                              np.split(below, split),
                                              np.split(u, split)):
            cells[i].basis[rows[ok]] = vecs[ok]
            warm[i][rows[ok]] = True
            for _ in range(int(np.count_nonzero(ok & ~found))):
                _cap_warning(r_max, cells[i].config.rho)

    lives, exact, changed = [], 0, 0
    for cell, (mats, norm2), warmed in zip(cells, targets, warm):
        config, sources, live = cell.config, cell.sources, []
        try:
            for ell in np.flatnonzero(norm2 > 0):
                if not warmed[ell]:
                    exact += 1
                    cell.ready[ell] = False
                    try:
                        rank, src, vecs = select_rank(
                            mats[ell], config.rho, config.r_max,
                            basis=cell.basis.shape[2])
                    except DegeneracyError:
                        continue
                    cell.basis[ell], cell.ready[ell] = vecs, True
                    if rank != sources[ell].rank:
                        sources[ell] = src
                        changed += 1
                live.append(int(ell))
        except CELL_ERRORS as err:
            cell.error = err
        lives.append(live)
    return lives, (sum(int(w.sum()) for w in warm), exact, changed)


def bic(dataset: ConnectivityDataset, model: LocusModel) -> float:
    """BIC of a fitted model on (demeaned) data.

    The likelihood term is a spherical Gaussian with variance estimated
    from the residuals, summed over centred column blocks; the complexity
    term counts, per source, the edges whose magnitude exceeds ZERO_TOL
    times the source's largest edge.
    A perfect fit (zero residual variance) returns the -inf sentinel.
    """
    if model.a is None:
        raise ValidationError("no_loadings", "model has no subject loadings")
    y = dataset.data
    n, p = y.shape
    s = model.source_matrix()
    if model.a.shape != (n, model.q) or s.shape[1] != p:
        raise ValidationError("dimension_mismatch",
                              "model dimensions do not match the dataset")
    squares = 0.0
    for cols, resid in _centered_blocks(y, y.mean(axis=0)):
        resid -= model.a @ s[:, cols]
        squares += float(np.sum(resid ** 2))
    sigma2 = squares / (n * p)

    l0 = 0
    for ell in range(model.q):
        scale = float(np.max(np.abs(s[ell])))
        if scale > 0:
            l0 += int(np.count_nonzero(np.abs(s[ell]) > ZERO_TOL * scale))
    if sigma2 == 0:
        return -math.inf
    loglik = -0.5 * n * p * (math.log(2.0 * math.pi * sigma2) + 1.0)
    return -2.0 * loglik + math.log(n) * l0


def tune(dataset: ConnectivityDataset, q: int, phi_grid, rho_grid,
         config: SolverConfig | None = None) -> TuningResult:
    """Full factorial fit over (phi, rho), sharing one whitening and one
    FastICA run; returns all BICs and the argmin cell.

    FastICA (or its seeded random fallback) runs once, since it reads
    neither phi nor rho, and each rho truncates it to one start, built
    before any cell is fitted and shared by every phi.  The cells are then
    fitted in lockstep (:func:`~locus.solver._fit_cells`): each outer
    iteration makes one node sweep per batch of cells of equal width, and
    every cell's model is bit for bit the one :func:`~locus.solver.fit`
    returns from the same start.  Ties break toward larger phi, then
    larger rho (the sparser model).  Cells whose start or fit raises a
    package error or a LinAlgError are recorded with that error and
    excluded; the other cells run on unaffected.  All cells failing is an
    error.  Any other exception is a programming error and propagates.  A
    grid value that :class:`SolverConfig` rejects, such as NaN, raises
    before any fit runs.
    """
    phi_grid = list(phi_grid)
    rho_grid = list(rho_grid)
    if not phi_grid or not rho_grid:
        raise ValidationError("empty_grid", "phi and rho grids must be non-empty")
    config = config or SolverConfig()
    configs = [replace(config, phi=float(phi), rho=float(rho))
               for phi in phi_grid for rho in rho_grid]
    whitened = whiten(dataset, q)
    # one start per rho, shared by every phi; a failed start is kept and
    # recorded for every cell of its rho
    starts: dict[float, LocusModel | Exception] = {}
    try:
        mixing = _mixing_start(whitened, q, config)
    except CELL_ERRORS as err:
        mixing = err
    for cfg in configs:
        if cfg.rho not in starts:
            try:
                if isinstance(mixing, Exception):
                    raise mixing
                starts[cfg.rho] = _truncated_start(whitened, *mixing, cfg)
            except CELL_ERRORS as err:
                starts[cfg.rho] = err

    outcomes = [starts[cfg.rho] for cfg in configs]
    runnable = [i for i, start in enumerate(outcomes)
                if not isinstance(start, Exception)]
    fitted = _fit_cells(whitened, [(configs[i], outcomes[i]) for i in runnable])
    for i, model in zip(runnable, fitted):
        outcomes[i] = model

    cells = []
    for cfg, model in zip(configs, outcomes):
        try:
            if isinstance(model, Exception):
                raise model
            cells.append(TuningCell(phi=cfg.phi, rho=cfg.rho,
                                    bic=bic(dataset, model),
                                    iterations=model.iterations,
                                    converged=model.converged,
                                    ranks=tuple(model.ranks)))
        except CELL_ERRORS as err:
            cells.append(TuningCell(phi=cfg.phi, rho=cfg.rho, bic=math.nan,
                                    error=f"{type(err).__name__}: {err}"))

    ok = [c for c in cells if c.error is None and not math.isnan(c.bic)]
    if not ok:
        raise DegeneracyError("all_cells_failed",
                              "every grid cell failed; see per-cell errors")
    best = min(ok, key=lambda c: (c.bic, -c.phi, -c.rho))
    return TuningResult(grid=tuple(cells), best=(best.phi, best.rho))
