"""Scoring recovered sources against ground truth.

Estimated sources come back in arbitrary order and sign, so scoring starts
with an optimal assignment (maximizing total |Pearson|) between truth and
estimates; signs are taken from the matched correlations.  Replicated fits
are summarized with a chance-corrected reliability index: the average
matched similarity, shifted and scaled by the average similarity against
*all* extracted components, so that 1 means perfectly reproducible and 0
means no better than chance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .connmat import ConnectivityDataset
from .errors import DimensionError, LocusError, ValidationError

SIMILARITIES = ("pearson", "jaccard")
DEFAULT_TOP_FRACTION = 0.01
RI_UNDEFINED = float("nan")


@dataclass(frozen=True)
class MatchResult:
    """Assignment of estimates to true sources.

    permutation[l] is the estimate index matched to truth l; signs[l] the
    alignment sign; per_source_corr the matched |Pearson| values;
    loading_corr the per-source loading correlations after the same
    permutation and sign flips (None when loadings were not supplied).
    """

    permutation: np.ndarray
    signs: np.ndarray
    per_source_corr: np.ndarray
    loading_corr: np.ndarray | None = None


@dataclass(frozen=True)
class ReliabilityReport:
    per_source_ri: np.ndarray
    similarity: str
    n_replicates: int
    jaccard_top_fraction: float = DEFAULT_TOP_FRACTION


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation; 0 by convention when either side is constant."""
    a = a - a.mean()
    b = b - b.mean()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))


def correlation_matrix(truth: np.ndarray, est: np.ndarray) -> np.ndarray:
    out = np.zeros((truth.shape[0], est.shape[0]))
    for i in range(truth.shape[0]):
        for j in range(est.shape[0]):
            out[i, j] = _pearson(truth[i], est[j])
    return out


def match_sources(truth: np.ndarray, est: np.ndarray,
                  truth_loadings: np.ndarray | None = None,
                  est_loadings: np.ndarray | None = None) -> MatchResult:
    """Optimal assignment between true and estimated sources.

    Maximizes the total |Pearson| over one-to-one matchings (Hungarian
    method); the sign of each matched correlation becomes the alignment
    sign.  Constant sources correlate 0 with everything.
    """
    truth = np.asarray(truth, dtype=float)
    est = np.asarray(est, dtype=float)
    if truth.shape != est.shape:
        raise DimensionError("dimension_mismatch",
                             f"truth {truth.shape} vs estimates {est.shape}")
    corr = correlation_matrix(truth, est)
    row_ind, col_ind = linear_sum_assignment(-np.abs(corr))
    perm = np.empty(truth.shape[0], dtype=int)
    perm[row_ind] = col_ind
    matched = corr[np.arange(truth.shape[0]), perm]
    signs = np.where(matched >= 0, 1.0, -1.0)
    loading_corr = None
    if truth_loadings is not None and est_loadings is not None:
        loading_corr = np.array([
            _pearson(truth_loadings[:, ell], signs[ell] * est_loadings[:, perm[ell]])
            for ell in range(truth.shape[0])])
    return MatchResult(permutation=perm, signs=signs,
                       per_source_corr=np.abs(matched),
                       loading_corr=loading_corr)


def align_estimates(truth: np.ndarray, est: np.ndarray) -> np.ndarray:
    """Estimates reordered and sign-flipped to line up with the truth."""
    match = match_sources(truth, est)
    return est[match.permutation] * match.signs[:, None]


def top_edge_support(values: np.ndarray, top_fraction: float) -> np.ndarray:
    """Boolean mask of the top `top_fraction` edges by magnitude (at least
    one edge; stable tie-break by index)."""
    if not 0 < top_fraction <= 1:
        raise ValidationError("bad_config",
                              f"top_fraction must lie in (0, 1], got {top_fraction}")
    p = values.shape[0]
    k = max(1, int(round(top_fraction * p)))
    order = np.argsort(-np.abs(values), kind="stable")
    mask = np.zeros(p, dtype=bool)
    mask[order[:k]] = True
    return mask


def _jaccard(a: np.ndarray, b: np.ndarray, top_fraction: float) -> float:
    sa = top_edge_support(a, top_fraction)
    sb = top_edge_support(b, top_fraction)
    union = np.count_nonzero(sa | sb)
    if union == 0:
        return 0.0
    return float(np.count_nonzero(sa & sb) / union)


def reliability_index(truth_l: np.ndarray, estimates: np.ndarray, ell: int,
                      similarity: str = "pearson",
                      top_fraction: float = DEFAULT_TOP_FRACTION) -> float:
    """Chance-corrected reliability of one source across replicates.

    ``estimates`` is (B, q, p), already matched so that estimates[b, ell]
    is the component matched to this truth in replicate b:

        RI = (mean_b h(S, S_hat[b, ell]) - mean_{b,j} h(S, S_hat[b, j]))
             / (1 - mean_{b,j} h(S, S_hat[b, j]))

    Returns NaN when the denominator vanishes.  Values are reported
    unclipped and can dip slightly below zero.
    """
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 3:
        raise DimensionError("dimension_mismatch",
                             f"estimates must be (B, q, p), got {estimates.shape}")
    if estimates.shape[0] < 2:
        raise ValidationError("bad_config", "need at least 2 replicates")
    if similarity not in SIMILARITIES:
        raise ValidationError("bad_config",
                              f"similarity must be one of {SIMILARITIES}")
    if similarity == "pearson":
        def h(a, b):
            return _pearson(a, b)
    else:
        def h(a, b):
            return _jaccard(a, b, top_fraction)

    b_count, q = estimates.shape[0], estimates.shape[1]
    all_sims = np.array([[h(truth_l, estimates[b, j]) for j in range(q)]
                         for b in range(b_count)])
    matched = float(np.mean(all_sims[:, ell]))
    chance = float(np.mean(all_sims))
    denom = 1.0 - chance
    if abs(denom) < 1e-12:
        return RI_UNDEFINED
    return (matched - chance) / denom


def reliability_report(truth: np.ndarray, replicate_estimates,
                       similarity: str = "pearson",
                       top_fraction: float = DEFAULT_TOP_FRACTION) -> ReliabilityReport:
    """Match every replicate to the truth, then compute all q reliability
    indices."""
    truth = np.asarray(truth, dtype=float)
    aligned = np.stack([align_estimates(truth, np.asarray(e, dtype=float))
                        for e in replicate_estimates])
    ri = np.array([reliability_index(truth[ell], aligned, ell, similarity,
                                     top_fraction)
                   for ell in range(truth.shape[0])])
    return ReliabilityReport(per_source_ri=ri, similarity=similarity,
                             n_replicates=aligned.shape[0],
                             jaccard_top_fraction=top_fraction)


@dataclass(frozen=True)
class BootstrapResult:
    """Stacked per-replicate source estimates plus bookkeeping."""

    estimates: np.ndarray
    indices: np.ndarray
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
    per-replicate seeds derive deterministically from the master seed.
    Replicates whose fit raises a package error or a LinAlgError are
    recorded in ``failures`` and skipped; any other exception propagates.
    """
    if b < 2:
        raise ValidationError("bad_config", f"need B >= 2 replicates, got {b}")
    indices = bootstrap_indices(dataset.n_subjects, b, seed)
    child_seeds = np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=b)
    estimates, failures = [], []
    for rep in range(b):
        idx = indices[rep]
        ids = None
        if dataset.subject_ids is not None:
            ids = [dataset.subject_ids[i] for i in idx]
        resampled = ConnectivityDataset(data=dataset.data[idx],
                                        node_count=dataset.node_count,
                                        subject_ids=ids)
        try:
            estimates.append(np.asarray(fit_fn(resampled, int(child_seeds[rep])),
                                        dtype=float))
        except (LocusError, np.linalg.LinAlgError) as err:
            failures.append((rep, f"{type(err).__name__}: {err}"))
    return BootstrapResult(estimates=np.array(estimates), indices=indices,
                           failures=tuple(failures))
