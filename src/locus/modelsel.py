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
eigh of the k x k projections -- may confirm the current rank.  It reads
the step's (cells, q, V, V) stack of target matrices in place, as one
flat (cells * q, V, V) batch per rank cap, and masks out the sources it
cannot confirm.  Everything else runs the exact rule: a proposed change,
a deciding ratio within RITZ_MARGIN times the Ritz error estimate of
1 - rho (a heuristic margin, not a bound), and a source with no basis yet
or whose rank the last weight step pruned.
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
                     _fit_cells, _mixing_start, _stack, _truncated_start)

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
    """The ``keep`` eigenpairs of the symmetric ``m`` (V, V), or of each of
    a stack (..., V, V), largest in |lambda|, in that order: eigenvalues
    (..., keep) and eigenvectors (..., V, keep).  Each (V, keep) block is
    column-major, as a lone eigh's gathered columns are, so a reduction
    over it rounds alike in a stack and alone."""
    eigvals, eigvecs = np.linalg.eigh(m)
    order = np.argsort(-np.abs(eigvals), axis=-1)[..., :keep]
    rows = np.take_along_axis(np.swapaxes(eigvecs, -1, -2), order[..., None],
                              axis=-2)
    return np.take_along_axis(eigvals, order, axis=-1), np.swapaxes(rows, -1, -2)


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


def _ritz_pairs(m: np.ndarray, z: np.ndarray):
    """One warm subspace step for each of a stack of symmetric matrices
    ``m`` (n, V, V) from its basis ``z`` (n, V, k): Q from the QR of M Z,
    the eigenpairs (theta, W) of Q' M Q, the Ritz vectors U = Q W and the
    residual norms |M u - theta u|.  Returns theta (n, k), U (n, V, k) and
    the residuals (n, k), each item's pairs sorted by decreasing |theta|.
    Every item is computed on its own, so no item changes another's
    bytes."""
    q_mat = np.linalg.qr(np.matmul(m, z))[0]
    mq = np.matmul(m, q_mat)
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


def _select_ranks(cells, mats: np.ndarray,
                  norm2: np.ndarray) -> tuple[list, tuple[int, int, int]]:
    """The first block of a step for every :class:`~locus.solver._Cell`,
    given the stacks of :func:`~locus.solver._target_mats`: the target
    matrices (cells, q, V, V) and their |s_star|^2 (cells, q).  Re-selects
    the rank of each source with a nonzero target, updating the cells'
    sources and rank-check state (``basis``, ``ready``) in place.

    One warm check (:func:`_ritz_pairs`, :func:`_warm_ranks`) runs over
    the flat (cells * q, V, V) view of every cell of the same effective
    cap that has a ready source with a nonzero target, against the cells'
    bases stacked once; the sources that are not ready or have a zero
    target ride along and are masked out.  It may confirm a rank; the
    Ritz vectors become the new basis, and a confirmation at the cap warns
    as the exact rule does (RankCapWarning).  Every other source with a
    nonzero target takes the exact rule, :func:`select_rank`, whose
    eigenvectors become its basis; a changed rank restarts the factors
    from its truncated eigendecomposition.  Returns per cell the indices
    of the sources with nonzero targets, which go to the node sweep, and
    the counts of warm, exact and changed checks.  A :data:`CELL_ERRORS`
    error goes to the cell's ``error``."""
    live = norm2 > 0
    warm = np.zeros(live.shape, dtype=bool)
    groups: dict[int, list[int]] = {}
    for i, cell in enumerate(cells):
        if (cell.ready & live[i]).any():
            cap = min(cell.config.r_max, mats.shape[-1] - 1)
            groups.setdefault(cap, []).append(i)
    for r_max, members in groups.items():
        group = slice(None) if len(members) == len(cells) else members
        z = _stack([cells[i].basis for i in members])
        try:
            theta, u, resid = _ritz_pairs(
                mats[group].reshape(-1, *mats.shape[2:]),
                z.reshape(-1, *z.shape[2:]))
        except np.linalg.LinAlgError:
            continue  # every source of the group takes the exact rule
        candidate = np.array([cells[i].ready for i in members]) & live[group]
        n2 = norm2[group].reshape(-1)
        confirmed, below = _warm_ranks(
            theta, u, resid, np.where(n2 > 0, n2, 1.0),
            np.repeat([1.0 - cells[i].config.rho for i in members], z.shape[1]),
            np.array([src.rank for i in members for src in cells[i].sources]),
            r_max)
        ok = confirmed.reshape(candidate.shape) & candidate
        capped = ok & ~below.reshape(candidate.shape)
        u = u.reshape(z.shape)
        for i, cell_ok, cell_u, cell_capped in zip(members, ok, u, capped):
            cells[i].basis[cell_ok] = cell_u[cell_ok]
            warm[i] = cell_ok
            for _ in range(int(np.count_nonzero(cell_capped))):
                _cap_warning(r_max, cells[i].config.rho)

    lives, exact, changed = [], 0, 0
    for cell, cell_mats, cell_live, warmed in zip(cells, mats, live, warm):
        config, sources, kept = cell.config, cell.sources, []
        try:
            for ell in np.flatnonzero(cell_live):
                if not warmed[ell]:
                    exact += 1
                    rank, src, vecs = select_rank(
                        cell_mats[ell], config.rho, config.r_max,
                        basis=cell.basis.shape[2])
                    cell.basis[ell], cell.ready[ell] = vecs, True
                    if rank != sources[ell].rank:
                        sources[ell] = src
                        changed += 1
                kept.append(int(ell))
        except CELL_ERRORS as err:
            cell.error = err
        lives.append(kept)
    return lives, (int(warm.sum()), exact, changed)


def bic(dataset: ConnectivityDataset, model: LocusModel) -> float:
    """BIC of a fitted model on (demeaned) data.

    The likelihood term is a spherical Gaussian with variance estimated
    from the residuals, summed over centred column blocks; the complexity
    term counts, per source, the edges whose magnitude exceeds ZERO_TOL
    times the source's largest edge.
    A perfect fit (zero residual variance) returns the -inf sentinel.
    """
    return _bics(dataset, dataset.data.mean(axis=0), [model])[0]


def _bics(dataset: ConnectivityDataset, col_means: np.ndarray,
          models) -> list[float]:
    """:func:`bic` of each of ``models`` (all with q sources) on the data
    centred by ``col_means``, the column means of ``dataset``: each block
    of the data is centred once for every model, and their L0 counts are
    stacked."""
    y = dataset.data
    n, p = y.shape
    rows = []
    for model in models:
        if model.a is None:
            raise ValidationError("no_loadings", "model has no subject loadings")
        rows.append(model.source_matrix())
        if model.a.shape != (n, model.q) or rows[-1].shape[1] != p:
            raise ValidationError("dimension_mismatch",
                                  "model dimensions do not match the dataset")
    s = np.stack(rows)
    squares = [0.0] * len(models)
    for cols, block in _centered_blocks(y, col_means):
        for k, model in enumerate(models):
            resid = block - model.a @ s[k, :, cols]
            squares[k] += float(np.sum(resid ** 2))

    scale = np.max(np.abs(s), axis=2, keepdims=True)
    l0 = np.count_nonzero(np.abs(s) > ZERO_TOL * scale, axis=(1, 2))
    out = []
    for total, size in zip(squares, l0):
        sigma2 = total / (n * p)
        if sigma2 == 0:
            out.append(-math.inf)
            continue
        loglik = -0.5 * n * p * (math.log(2.0 * math.pi * sigma2) + 1.0)
        out.append(-2.0 * loglik + math.log(n) * int(size))
    return out


def tune(dataset: ConnectivityDataset, q: int, phi_grid, rho_grid,
         config: SolverConfig | None = None) -> TuningResult:
    """Full factorial fit over (phi, rho), sharing one whitening and one
    FastICA run; returns all BICs and the argmin cell.

    FastICA (or its seeded random fallback) and the projection A~' Y~ it
    gives run once, since they read neither phi nor rho, and each rho
    truncates that projection to one start, built before any cell is
    fitted and shared by every phi.  The cells are then
    fitted in lockstep (:func:`~locus.solver._fit_cells`): each outer
    iteration runs its arithmetic as stacked passes over every running
    cell, with one node sweep per batch of cells of equal width, while
    every decision stays per cell; every cell's model is bit for bit the
    one :func:`~locus.solver.fit` returns for that cell's settings.  The data
    is centred once, block by block, for the loadings of the cells that
    stop in the same iteration, and once for every cell's BIC
    (:func:`_bics`), against the column means the whitening computed.
    Ties break toward larger phi, then larger rho (the sparser model).
    Cells whose start or fit raises a package error or a LinAlgError are
    recorded with that error and excluded; the other cells run on
    unaffected.  All cells failing is an error.  Any other exception is a
    programming error and propagates.  A grid value that
    :class:`SolverConfig` rejects, such as NaN, raises before any fit runs.
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
                starts[cfg.rho] = _truncated_start(mixing, cfg)
            except CELL_ERRORS as err:
                starts[cfg.rho] = err

    outcomes = [starts[cfg.rho] for cfg in configs]
    runnable = [i for i, start in enumerate(outcomes)
                if not isinstance(start, Exception)]
    fitted = _fit_cells(whitened, [(configs[i], outcomes[i]) for i in runnable])
    for i, model in zip(runnable, fitted):
        outcomes[i] = model

    # every fitted cell's BIC, against the whitening's column means
    fitted = [model for model in outcomes if isinstance(model, LocusModel)]
    bics = iter(_bics(dataset, whitened.col_means, fitted) if fitted else ())
    cells = []
    for cfg, model in zip(configs, outcomes):
        if isinstance(model, Exception):
            cells.append(TuningCell(phi=cfg.phi, rho=cfg.rho, bic=math.nan,
                                    error=f"{type(model).__name__}: {model}"))
        else:
            cells.append(TuningCell(phi=cfg.phi, rho=cfg.rho, bic=next(bics),
                                    iterations=model.iterations,
                                    converged=model.converged,
                                    ranks=tuple(model.ranks)))

    ok = [c for c in cells if c.error is None and not math.isnan(c.bic)]
    if not ok:
        raise DegeneracyError("all_cells_failed",
                              "every grid cell failed; see per-cell errors")
    best = min(ok, key=lambda c: (c.bic, -c.phi, -c.rho))
    return TuningResult(grid=tuple(cells), best=(best.phi, best.rho))
