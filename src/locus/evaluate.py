"""Scoring recovered sources against ground truth.

Estimated sources come back in arbitrary order and sign, so scoring starts
with an optimal assignment (maximizing total |Pearson|) between truth and
estimates, found exactly by the shortest augmenting path method (see
:func:`_assign`); signs are taken from the matched correlations.
Replicated fits are summarized with a chance-corrected reliability index:
the average matched similarity, shifted and scaled by the average
similarity against *all* extracted components,

    RI_l = (mean_b h(S_l, S_hat[b, l]) - mean_{b,j} h(S_l, S_hat[b, j]))
           / (1 - mean_{b,j} h(S_l, S_hat[b, j])),

where S_hat[b] is replicate b aligned to the truth and h is a similarity
(Pearson, or Jaccard of the top edge supports), so that 1 means perfectly
reproducible and 0 means no better than chance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connmat import ConnectivityDataset
from .errors import DimensionError, LocusError, ValidationError

SIMILARITIES = ("pearson", "jaccard")
DEFAULT_TOP_FRACTION = 0.01


@dataclass(frozen=True)
class MatchResult:
    """Assignment of estimates to true sources.

    permutation[l] is the estimate index matched to truth l; signs[l] the
    alignment sign; per_source_corr the matched |Pearson| values;
    loading_corr the per-source loading correlations after the same
    permutation and sign flips (None when loadings were not supplied).
    Every field has one entry per true source; an estimate left unmatched
    (there may be more estimates than true sources) appears in none.
    """

    permutation: np.ndarray
    signs: np.ndarray
    per_source_corr: np.ndarray
    loading_corr: np.ndarray | None = None


@dataclass(frozen=True)
class ReliabilityReport:
    per_source_ri: np.ndarray


def correlation_matrix(truth: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Pearson correlations of the rows of ``truth`` (q, p) with the rows of
    ``est`` (..., q', p), shape (..., q, q'); 0 by convention where either
    row is constant."""
    def centered(rows):
        rows = rows - rows.mean(axis=-1, keepdims=True)
        return rows, np.sqrt(np.einsum("...i,...i->...", rows, rows))

    # A centered row is orthogonal to constants, so only the truth needs
    # centering for the products; the estimates are centered one (q', p)
    # block at a time, only for their norms, so a stack of replicates is
    # never copied whole.  einsum works every entry out by the same loop,
    # so identical rows get identical correlations and exact ties in the
    # matching stay ties.
    est_norms = np.empty(est.shape[:-1])
    for block in np.ndindex(est.shape[:-2]):
        est_norms[block] = centered(est[block])[1]
    truth, truth_norms = centered(truth)
    num = np.einsum("ip,...jp->...ij", truth, est)
    den = truth_norms[:, None] * est_norms[..., None, :]
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _assign(corr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Match the rows of a (q, q') correlation matrix, q <= q', to distinct
    columns so that the total |corr| is as large as possible: the matched
    column of each row, and the sign of each matched correlation.

    This is the shortest augmenting path method with dual potentials
    (Jonker and Volgenant; Crouse 2016, IEEE TAES 52:1679), on costs
    -|corr|.  Rows are added in index order, each by one augmentation
    along a shortest alternating path, found by Dijkstra's search over the
    columns with reduced costs, so the result is an exact optimum.  Tie
    rule: among columns tied for the shortest path, the search takes a
    free column first, then the lowest index, and of equally short paths
    to a column it keeps the one found first; so an all-zero matrix, as
    constant estimates give, matches row l to column l.  Non-finite
    entries raise ValueError.
    """
    if not np.isfinite(corr).all():
        raise ValueError("correlation matrix contains non-finite entries")
    cost = (-np.abs(corr)).tolist()
    q, n_cols = corr.shape
    u, v = [0.0] * q, [0.0] * n_cols
    row_of, col_of = [-1] * n_cols, [-1] * q
    for start in range(q):
        # Dijkstra from row `start`: dist[j] is the shortest alternating
        # path to column j in reduced costs, via[j] the row it enters from
        dist, via = [math.inf] * n_cols, [start] * n_cols
        todo, rows, cols = list(range(n_cols)), [], []
        row, reach = start, 0.0
        while True:
            rows.append(row)
            c, ur = cost[row], u[row]
            best, sink = math.inf, -1
            for j in todo:
                d = reach + c[j] - ur - v[j]
                if d < dist[j]:
                    dist[j], via[j] = d, row
                d = dist[j]
                if d < best or (d == best and row_of[j] < 0 <= row_of[sink]):
                    best, sink = d, j
            reach = best
            todo.remove(sink)
            cols.append(sink)
            if row_of[sink] < 0:
                break
            row = row_of[sink]
        # keep the reduced costs nonnegative and tight on the matching
        u[start] += reach
        for row in rows[1:]:
            u[row] += reach - dist[col_of[row]]
        for j in cols:
            v[j] -= reach - dist[j]
        # flip the path: each row on it takes the column it was reached by
        j = sink
        while True:
            row = via[j]
            row_of[j] = row
            col_of[row], j = j, col_of[row]
            if row == start:
                break
    perm = np.array(col_of, dtype=int)
    matched = corr[np.arange(q), perm]
    return perm, np.where(matched >= 0, 1.0, -1.0)


def match_sources(truth: np.ndarray, est: np.ndarray,
                  truth_loadings: np.ndarray | None = None,
                  est_loadings: np.ndarray | None = None) -> MatchResult:
    """Optimal assignment between true and estimated sources.

    Maximizes the total |Pearson| over one-to-one matchings, exactly, by
    the shortest augmenting path method of :func:`_assign`; among tied
    matchings its tie rule decides.  The sign of each matched correlation
    becomes the alignment sign.  Constant sources correlate 0 with
    everything.  The (q, p) ``truth`` may have fewer rows than the (q', p)
    estimates, as when a fit has more components than there are true
    sources: each true source is matched to a distinct estimate and the
    other q' - q estimates stay unmatched.  Fewer estimates than true
    sources, or another shape mismatch, raise DimensionError.
    """
    truth = np.asarray(truth, dtype=float)
    est = np.asarray(est, dtype=float)
    if (truth.ndim != 2 or est.ndim != 2 or truth.shape[1] != est.shape[1]
            or truth.shape[0] > est.shape[0]):
        raise DimensionError("dimension_mismatch",
                             f"truth {truth.shape} vs estimates {est.shape}")
    corr = correlation_matrix(truth, est)
    perm, signs = _assign(corr)
    rows = np.arange(truth.shape[0])
    loading_corr = None
    if truth_loadings is not None and est_loadings is not None:
        loading_corr = correlation_matrix(
            np.asarray(truth_loadings, dtype=float).T,
            np.asarray(est_loadings, dtype=float).T)[rows, perm] * signs
    return MatchResult(permutation=perm, signs=signs,
                       per_source_corr=np.abs(corr[rows, perm]),
                       loading_corr=loading_corr)


def check_top_fraction(top_fraction: float) -> None:
    """Raise ValidationError unless ``top_fraction`` lies in (0, 1]."""
    if not 0 < top_fraction <= 1:
        raise ValidationError("bad_config",
                              f"top_fraction must lie in (0, 1], got {top_fraction}")


def top_edge_support(values: np.ndarray, top_fraction: float) -> np.ndarray:
    """Boolean mask of the top `top_fraction` entries by magnitude along
    the last axis (at least one per row; stable tie-break by index)."""
    check_top_fraction(top_fraction)
    magnitude = np.abs(values)
    k = max(1, int(round(top_fraction * magnitude.shape[-1])))
    # everything above the k-th largest magnitude, then the entries tied
    # with it in index order until k are taken
    kth = -np.partition(-magnitude, k - 1, axis=-1)[..., [k - 1]]
    above = magnitude > kth
    tied = magnitude == kth
    room = k - np.count_nonzero(above, axis=-1)[..., None]
    return above | (tied & (np.cumsum(tied, axis=-1) <= room))


def reliability_report(truth: np.ndarray, replicate_estimates,
                       similarity: str = "pearson",
                       top_fraction: float = DEFAULT_TOP_FRACTION) -> ReliabilityReport:
    """Chance-corrected reliability of every source across replicated fits.

    Each (q, p) replicate is matched to the truth as by
    :func:`match_sources`; S_hat[b] is replicate b reordered and
    sign-flipped accordingly.  With h the Pearson correlation, or the
    Jaccard index of the top ``top_fraction`` edge supports,

        RI_l = (mean_b h(S_l, S_hat[b, l]) - mean_{b,j} h(S_l, S_hat[b, j]))
               / (1 - mean_{b,j} h(S_l, S_hat[b, j]))

    RI_l is NaN when the denominator vanishes.  Values are reported
    unclipped and can dip slightly below zero.
    """
    if similarity not in SIMILARITIES:
        raise ValidationError("bad_config",
                              f"similarity must be one of {SIMILARITIES}")
    truth = np.asarray(truth, dtype=float)
    # a stacked array is checked and used in place, without a copy
    replicates = replicate_estimates
    if not isinstance(replicates, np.ndarray):
        replicates = [np.asarray(e, dtype=float) for e in replicates]
    if len(replicates) < 2:
        raise ValidationError("bad_config", "need at least 2 replicates")
    for est in replicates:
        if est.shape != truth.shape:
            raise DimensionError("dimension_mismatch",
                                 f"truth {truth.shape} vs estimates {est.shape}")
    estimates = np.asarray(replicates, dtype=float)
    corr = correlation_matrix(truth, estimates)
    perms, signs = (np.array(a) for a in zip(*map(_assign, corr)))
    # sims[b, l, j]: similarity of truth l to the j-th aligned estimate of
    # replicate b, read off the unaligned (b, l, perms[b, j]) entry
    aligned = perms[:, None, :]
    if similarity == "pearson":
        sims = np.take_along_axis(corr, aligned, axis=2) * signs[:, None, :]
    else:
        truth_support = top_edge_support(truth, top_fraction).astype(float)
        overlap = np.stack([truth_support @ top_edge_support(e, top_fraction).T
                            for e in estimates])
        # every support holds the same number of edges
        union = 2.0 * truth_support.sum(axis=1)[:, None] - overlap
        sims = np.take_along_axis(overlap / union, aligned, axis=2)
    matched = np.diagonal(sims, axis1=1, axis2=2).mean(axis=0)
    chance = sims.mean(axis=(0, 2))
    denom = 1.0 - chance
    ri = np.full(truth.shape[0], np.nan)
    np.divide(matched - chance, denom, out=ri, where=np.abs(denom) >= 1e-12)
    return ReliabilityReport(per_source_ri=ri)


@dataclass(frozen=True)
class BootstrapResult:
    """Stacked per-replicate source estimates plus bookkeeping."""

    estimates: np.ndarray
    failures: tuple[tuple[int, str], ...]

    @property
    def n_success(self) -> int:
        return len(self.estimates)


def bootstrap_indices(n_subjects: int, n_replicates: int, seed: int) -> np.ndarray:
    """(B, N) subject indices resampled with replacement, deterministic in
    the master seed."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_subjects, size=(n_replicates, n_subjects))


def bootstrap_replicates(dataset: ConnectivityDataset, fit_fn, b: int,
                         seed: int = 0) -> BootstrapResult:
    """Refit B subject-resampled copies of the dataset.

    ``fit_fn(dataset, seed) -> (q, p) array`` runs one decomposition; its
    per-replicate seeds derive deterministically from the master seed, drawn
    from a stream spawned off it so they are independent of the subject
    draws of :func:`bootstrap_indices`.
    Replicates whose fit raises a package error or a LinAlgError are
    recorded in ``failures`` and skipped; any other exception propagates.
    """
    if b < 2:
        raise ValidationError("bad_config", f"need B >= 2 replicates, got {b}")
    if seed < 0:
        raise ValidationError("bad_config", f"seed must be >= 0, got {seed}")
    indices = bootstrap_indices(dataset.n_subjects, b, seed)
    seed_stream = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    child_seeds = seed_stream.integers(0, 2 ** 31 - 1, size=b)
    estimates, failures = [], []
    for rep in range(b):
        rows = dataset.data[indices[rep]]
        rows.setflags(write=False)  # a fresh array, adopted without a copy
        resampled = ConnectivityDataset(data=rows, node_count=dataset.node_count)
        try:
            estimates.append(np.asarray(fit_fn(resampled, int(child_seeds[rep])),
                                        dtype=float))
        except (LocusError, np.linalg.LinAlgError) as err:
            failures.append((rep, f"{type(err).__name__}: {err}"))
    return BootstrapResult(estimates=np.array(estimates),
                           failures=tuple(failures))
