"""Adaptive per-source rank selection and BIC-based tuning of (phi, rho).

The rank of each latent source is the smallest r whose rank-r symmetric
eigen-truncation retains a rho fraction of the unstructured source's edge
energy.  The (phi, rho) pair is picked over a grid by a BIC that trades the
Gaussian log-likelihood of the residuals against the L0 size of the
reconstructed sources.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .connmat import ConnectivityDataset
from .errors import DegeneracyError, DimensionError, LocusError, ValidationError
from .preprocess import _centered_blocks, whiten
from .solver import LocusModel, LowRankSource, SolverConfig, fit, initialize

# edges above this fraction of their source's largest edge count toward L0
ZERO_TOL = 1e-3


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
                      norm2: float) -> np.ndarray:
    """Edge-space residual ratios |s_hat_r - s_star|^2 / |s_star|^2 of the
    eigen-truncations r = 1..len(eigvals), in closed form.

    With M the unvectorized source (zero diagonal, |M|_F^2 = 2 norm2) and
    T_r = sum_{i<=r} lambda_i u_i u_i' its truncation, the edge residual is
    half the matrix residual minus the diagonal of T_r:

        ratio_r = (2 norm2 - sum_{i<=r} lambda_i^2 - |diag(T_r)|^2)
                  / (2 norm2),   diag(T_r) = sum_{i<=r} lambda_i u_i^2.
    """
    diag_t = np.cumsum(eigvecs ** 2 * eigvals, axis=1)
    return ((2.0 * norm2 - np.cumsum(eigvals ** 2)
             - np.sum(diag_t ** 2, axis=0)) / (2.0 * norm2))


def select_rank(m: np.ndarray, rho: float, r_max: int) -> tuple[int, LowRankSource]:
    """Smallest rank whose eigen-truncation reconstructs the unstructured
    source to the requested closeness.

    ``m`` is the source as a symmetric (V, V) matrix with a zero diagonal
    (:func:`~locus.connmat.unvectorize` of its edge vector s_star), so
    |s_star|^2 = |M|_F^2 / 2.  The residual ratio
    |s_hat_r - s_star|^2 / |s_star|^2 is evaluated on edge vectors, where
    the vectorization drops the diagonal, so eigenvalue sums alone do not
    give it (see :func:`truncation_ratios`).  Returns the rank and the
    truncated eigen-factor; hitting the cap emits a RankCapWarning.
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

    eigvals, eigvecs = np.linalg.eigh(m)
    order = np.argsort(-np.abs(eigvals))[:r_max]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    ratios = truncation_ratios(eigvals, eigvecs, norm2)
    reached = np.flatnonzero(ratios <= 1.0 - rho)
    if reached.size:
        rank = int(reached[0]) + 1
    else:
        rank = r_max
        warnings.warn(
            f"rank cap {r_max} hit before reaching closeness {rho}",
            RankCapWarning)
    return rank, LowRankSource(eigvecs[:, :rank], eigvals[:rank])


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
    """Full factorial fit over (phi, rho), sharing one whitening; returns
    all BICs and the argmin cell.

    Each rho gets one start from :func:`~locus.solver.initialize` (FastICA,
    or its seeded random fallback), built before any cell is fitted and
    shared by every phi, since the start does not depend on phi.  Ties
    break toward larger phi, then larger rho (the sparser model).  Cells
    whose start or fit raises a package error or a LinAlgError are recorded
    with that error and excluded; all cells failing is an error.  Any other
    exception is a programming error and propagates.  A grid value that
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
    # raised again for every cell of its rho
    starts: dict[float, LocusModel | Exception] = {}
    for cfg in configs:
        if cfg.rho not in starts:
            try:
                starts[cfg.rho] = initialize(whitened, q, cfg)
            except (LocusError, np.linalg.LinAlgError) as err:
                starts[cfg.rho] = err

    cells = []
    for cfg in configs:
        try:
            start = starts[cfg.rho]
            if isinstance(start, Exception):
                raise start
            model = fit(whitened, q, cfg, init=start)
            cells.append(TuningCell(phi=cfg.phi, rho=cfg.rho,
                                    bic=bic(dataset, model),
                                    iterations=model.iterations,
                                    converged=model.converged,
                                    ranks=tuple(model.ranks)))
        except (LocusError, np.linalg.LinAlgError) as err:
            cells.append(TuningCell(phi=cfg.phi, rho=cfg.rho, bic=math.nan,
                                    error=f"{type(err).__name__}: {err}"))

    ok = [c for c in cells if c.error is None and not math.isnan(c.bic)]
    if not ok:
        raise DegeneracyError("all_cells_failed",
                              "every grid cell failed; see per-cell errors")
    best = min(ok, key=lambda c: (c.bic, -c.phi, -c.rho))
    return TuningResult(grid=tuple(cells), best=(best.phi, best.rho))
