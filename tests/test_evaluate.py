import itertools

import numpy as np
import pytest

# scipy is a test-only oracle: the library matches sources without it
from scipy.optimize import linear_sum_assignment

from locus.connmat import ConnectivityDataset
from locus.errors import DegeneracyError, DimensionError, ValidationError
from locus.evaluate import (_assign, bootstrap_indices, bootstrap_replicates,
                            correlation_matrix, match_sources,
                            reliability_report, top_edge_support)


def pearson_reference(a, b):
    """Per-pair Pearson correlation, 0 when either side is constant."""
    a = a - a.mean()
    b = b - b.mean()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))


def support_reference(values, top_fraction):
    """Top edges of one vector by a stable sort of the magnitudes."""
    k = max(1, int(round(top_fraction * values.shape[0])))
    mask = np.zeros(values.shape[0], dtype=bool)
    mask[np.argsort(-np.abs(values), kind="stable")[:k]] = True
    return mask


def reliability_reference(truth, replicates, similarity, top_fraction=0.01):
    """Per-replicate match and alignment, then per-pair similarity loops."""
    q = truth.shape[0]
    aligned = []
    for est in replicates:
        corr = np.array([[pearson_reference(t, e) for e in est] for t in truth])
        rows, cols = linear_sum_assignment(-np.abs(corr))
        perm = np.empty(q, dtype=int)
        perm[rows] = cols
        signs = np.where(corr[np.arange(q), perm] >= 0, 1.0, -1.0)
        aligned.append(est[perm] * signs[:, None])

    def h(a, b):
        if similarity == "pearson":
            return pearson_reference(a, b)
        sa = support_reference(a, top_fraction)
        sb = support_reference(b, top_fraction)
        return np.count_nonzero(sa & sb) / np.count_nonzero(sa | sb)

    ri = np.empty(q)
    for ell in range(q):
        sims = np.array([[h(truth[ell], est[j]) for j in range(q)]
                         for est in aligned])
        matched, chance = np.mean(sims[:, ell]), np.mean(sims)
        denom = 1.0 - chance
        ri[ell] = np.nan if abs(denom) < 1e-12 else (matched - chance) / denom
    return ri


def best_total_reference(gain):
    """Largest total gain over every injective map of rows to columns."""
    q, n_cols = gain.shape
    maps = np.array(list(itertools.permutations(range(n_cols), q)), dtype=int)
    return gain[np.arange(q), maps].sum(axis=1).max()


def check_optimal(corr, perm, signs):
    q = corr.shape[0]
    assert perm.shape == (q,) and len(set(perm.tolist())) == q
    assert 0 <= perm.min() and perm.max() < corr.shape[1]
    matched = corr[np.arange(q), perm]
    assert np.array_equal(signs, np.where(matched >= 0, 1.0, -1.0))
    gain = np.abs(corr)
    assert abs(gain[np.arange(q), perm].sum()
               - best_total_reference(gain)) <= 1e-12


class TestMatchSources:
    def test_permutation_and_signs_recovered_exactly(self):
        rng = np.random.default_rng(0)
        truth = rng.standard_normal((4, 60))
        perm = [2, 0, 3, 1]
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        est = truth[perm] * signs[:, None]
        match = match_sources(truth, est)
        # est[j] corresponds to truth[perm[j]]
        for j, src in enumerate(perm):
            assert match.permutation[src] == j
        assert np.allclose(match.per_source_corr, 1.0, atol=1e-12)
        aligned = est[match.permutation] * match.signs[:, None]
        assert np.allclose(aligned, truth, atol=1e-12)

    def test_identity_match_regardless_of_q(self):
        rng = np.random.default_rng(1)
        for q in (1, 2, 5, 9):
            truth = rng.standard_normal((q, 40))
            match = match_sources(truth, truth)
            assert match.permutation.tolist() == list(range(q))
            assert np.allclose(match.per_source_corr, 1.0, atol=1e-12)

    def test_independent_noise_has_small_mean_correlation(self):
        rng = np.random.default_rng(2)
        p = 1225
        vals = []
        for _ in range(25):
            truth = rng.standard_normal((3, p))
            est = rng.standard_normal((3, p))
            vals.append(match_sources(truth, est).per_source_corr.mean())
        assert np.mean(vals) < 0.2

    def test_assignment_optimal_against_brute_force(self):
        # square and rectangular, real and integer-valued (many ties),
        # with all-zero columns as constant estimates give
        rng = np.random.default_rng(3)
        for case in range(1500):
            q = int(rng.integers(1, 7))
            n_cols = int(rng.integers(q, 8))
            if case % 2:
                corr = rng.integers(-3, 4, size=(q, n_cols)).astype(float)
            else:
                corr = rng.uniform(-1, 1, size=(q, n_cols))
            if case % 3 == 0:
                corr[:, rng.random(n_cols) < 0.4] = 0.0
            check_optimal(corr, *_assign(corr))
        # the same through match_sources, from sources with duplicated
        # and constant estimates
        for case in range(200):
            q = int(rng.integers(1, 6))
            n_cols = int(rng.integers(q, 8))
            truth = rng.standard_normal((q, 40))
            est = rng.standard_normal((n_cols, 40))
            est[rng.random(n_cols) < 0.3] = 2.0
            est[rng.integers(n_cols)] = est[rng.integers(n_cols)]
            corr = correlation_matrix(truth, est)
            match = match_sources(truth, est)
            check_optimal(corr, match.permutation, match.signs)
            matched = corr[np.arange(q), match.permutation]
            assert np.array_equal(match.per_source_corr, np.abs(matched))

    def test_assignment_tie_rule(self):
        # _assign's tie rule: among columns tied for the shortest path, a
        # free column first, then the lowest index; of equally short paths
        # to a column, the first found
        for q, n_cols in [(1, 1), (2, 5), (3, 3), (4, 7), (7, 7)]:
            for value in (0.0, 0.5, -1.0):
                perm, signs = _assign(np.full((q, n_cols), value))
                assert perm.tolist() == list(range(q))
                assert signs.tolist() == [1.0 if value >= 0 else -1.0] * q
        perm, signs = _assign(np.array([[0.5, -0.9, 0.9, 0.9]]))
        assert perm.tolist() == [1] and signs.tolist() == [-1.0]
        # row 1 ties between column 0, held by row 0, and free column 2:
        # it takes the free one, where the lowest index would go on from
        # column 0 and move row 0 to column 1
        assert _assign(np.array([[1.0, 1.0, 0.0],
                                 [2.0, 0.0, 2.0]]))[0].tolist() == [0, 2]
        # the search from row 2 reaches column 0 by equally short paths
        # from row 2 itself and, later, from rows 1 and 0: the first found
        # stands, so no other row moves
        assert _assign(np.array([[0.0, 0.0, 1.0],
                                 [0.0, 1.0, 1.0],
                                 [1.0, 2.0, 2.0]]))[0].tolist() == [2, 1, 0]
        # constant estimates 0, 2 and 3 correlate 0 with every source:
        # the source left over takes the lowest-index one
        rng = np.random.default_rng(17)
        truth = rng.standard_normal((3, 50))
        est = np.ones((5, 50))
        est[4], est[1] = truth[0], -truth[1]
        match = match_sources(truth, est)
        assert match.permutation.tolist() == [4, 1, 0]
        assert match.signs.tolist() == [1.0, -1.0, 1.0]

    def test_assignment_equals_scipy_without_ties(self):
        rng = np.random.default_rng(18)
        for case in range(500):
            q = int(rng.integers(1, 21))
            n_cols = q + int(rng.integers(0, 6))
            corr = rng.uniform(-1, 1, size=(q, n_cols))
            rows, cols = linear_sum_assignment(-np.abs(corr))
            assert rows.tolist() == list(range(q))
            assert _assign(corr)[0].tolist() == cols.tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_correlation_rejected(self, bad):
        corr = np.eye(3)
        corr[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _assign(corr)

    def test_constant_source_correlates_zero(self):
        truth = np.vstack([np.ones(30), np.arange(30.0)])
        est = np.vstack([np.arange(30.0), np.ones(30)])
        match = match_sources(truth, est)
        assert 0.0 in match.per_source_corr

    def test_loading_correlations_after_alignment(self):
        rng = np.random.default_rng(4)
        truth = rng.standard_normal((3, 50))
        loadings = rng.standard_normal((20, 3))
        perm = [1, 2, 0]
        signs = np.array([-1.0, 1.0, -1.0])
        est = truth[perm] * signs[:, None]
        est_loadings = loadings[:, perm] * signs[None, :]
        match = match_sources(truth, est, loadings, est_loadings)
        assert np.allclose(match.loading_corr, 1.0, atol=1e-12)

    def test_more_estimates_than_true_sources(self):
        # a fit with surplus components: each true source is matched to a
        # distinct estimate, and the noise rows stay unmatched
        rng = np.random.default_rng(5)
        truth = rng.standard_normal((3, 80))
        loadings = rng.standard_normal((20, 3))
        est = rng.standard_normal((5, 80))
        est_loadings = rng.standard_normal((20, 5))
        placed = [4, 0, 2]
        signs = np.array([1.0, -1.0, 1.0])
        est[placed] = truth * signs[:, None]
        est_loadings[:, placed] = loadings * signs
        match = match_sources(truth, est, loadings, est_loadings)
        assert match.permutation.tolist() == placed
        assert match.signs.tolist() == signs.tolist()
        assert np.allclose(match.per_source_corr, 1.0, atol=1e-12)
        assert np.allclose(match.loading_corr, 1.0, atol=1e-12)

    @pytest.mark.parametrize("truth_shape, est_shape", [
        ((4, 30), (3, 30)), ((3, 30), (3, 29)), ((3, 30), (30,))])
    def test_fewer_estimates_or_other_edges_rejected(self, truth_shape,
                                                     est_shape):
        with pytest.raises(DimensionError, match="dimension_mismatch"):
            match_sources(np.ones(truth_shape), np.ones(est_shape))


class TestCorrelationMatrix:
    def test_stacked_estimates_match_per_pair_pearson(self):
        rng = np.random.default_rng(12)
        truth = rng.standard_normal((3, 40)) * 5 + 2
        truth[1] = 2.5  # constant row
        est = rng.standard_normal((4, 2, 3, 40)) + 7
        est[1, 0, 2] = 0.0
        est[3, 1, 0] = 1.0
        got = correlation_matrix(truth, est)
        assert got.shape == (4, 2, 3, 3)
        for idx in np.ndindex(4, 2):
            ref = np.array([[pearson_reference(t, e) for e in est[idx]]
                            for t in truth])
            assert np.allclose(got[idx], ref, rtol=0, atol=1e-12)
        assert np.all(got[:, :, 1] == 0.0)
        assert np.all(got[1, 0, :, 2] == 0.0)


class TestTopEdgeSupport:
    def test_stacked_rows_match_row_by_row_with_ties(self):
        rng = np.random.default_rng(13)
        for top_fraction in (0.01, 0.05, 0.2, 0.5, 1.0):
            # rounded values tie often in magnitude, zeros and signs included
            values = np.round(rng.standard_normal((3, 4, 90)) * 1.5)
            got = top_edge_support(values, top_fraction)
            for idx in np.ndindex(3, 4):
                row = values[idx]
                assert np.array_equal(got[idx], top_edge_support(row, top_fraction))
                assert np.array_equal(got[idx],
                                      support_reference(row, top_fraction))


class TestReliabilityReport:
    def test_matches_per_replicate_reference(self):
        rng = np.random.default_rng(14)
        for case in range(60):
            q, p, b = (int(rng.integers(1, 6)), int(rng.integers(10, 200)),
                       int(rng.integers(2, 8)))
            truth = rng.standard_normal((q, p))
            replicates = []
            for _ in range(b):
                est = (truth[rng.permutation(q)]
                       * rng.choice([-1.0, 1.0], q)[:, None]
                       + rng.uniform(0, 2) * rng.standard_normal((q, p)))
                if case % 3 == 1:
                    est = np.round(est)  # ties in the Jaccard supports
                if case % 3 == 2:
                    est[int(rng.integers(q))] = 1.0  # a constant row
                replicates.append(est)
            if case % 4 == 3:
                replicates = [replicates[0]] * b  # identical replicates
            top_fraction = float(rng.choice([0.01, 0.05, 0.3]))
            for similarity in ("pearson", "jaccard"):
                got = reliability_report(truth, replicates, similarity,
                                         top_fraction).per_source_ri
                ref = reliability_reference(truth, replicates, similarity,
                                            top_fraction)
                assert np.array_equal(np.isnan(got), np.isnan(ref))
                assert np.allclose(got, ref, rtol=0, atol=1e-12, equal_nan=True)

    def test_replicate_shape_mismatch_raises_dimension_error(self):
        truth = np.zeros((2, 10))
        with pytest.raises(DimensionError):
            reliability_report(truth, [np.ones((2, 10)), np.ones((2, 9))])

    def test_stacked_input_used_in_place(self):
        # a (B, q, p) float array is neither copied nor centered whole:
        # the peak beyond it stays a small fraction of it; lists and
        # iterables of replicates give the same report, and the checks
        # still hold
        import tracemalloc
        rng = np.random.default_rng(16)
        truth = rng.standard_normal((3, 20000))
        stacked = truth + rng.standard_normal((40, 3, 20000))
        for similarity in ("pearson", "jaccard"):
            tracemalloc.start()
            got = reliability_report(truth, stacked, similarity).per_source_ri
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 0.25 * stacked.nbytes
            for other in (list(stacked), iter(stacked)):
                again = reliability_report(truth, other, similarity)
                assert np.array_equal(again.per_source_ri, got)
        with pytest.raises(ValidationError):
            reliability_report(truth, stacked[:1])
        with pytest.raises(DimensionError):
            reliability_report(truth, stacked[:, :2])

    @pytest.mark.parametrize("similarity, top_fraction",
                             [("spearman", 0.01), ("jaccard", 0.0),
                              ("jaccard", 1.5)])
    def test_bad_similarity_or_top_fraction(self, similarity, top_fraction):
        rng = np.random.default_rng(15)
        truth = rng.standard_normal((2, 10))
        with pytest.raises(ValidationError):
            reliability_report(truth, [truth, truth], similarity, top_fraction)


class TestReliabilityIndex:
    def test_identical_estimates_and_zero_cross_similarity(self):
        # orthogonal binary supports: cross-similarities vanish, matched
        # similarity is 1, so RI = (1 - 1/q) / (1 - 1/q) = 1
        q, p, b = 3, 30, 4
        truth = np.zeros((q, p))
        for ell in range(q):
            truth[ell, ell * 10:(ell + 1) * 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        truth -= truth.mean(axis=1, keepdims=True)
        estimates = np.stack([truth] * b)
        ri = reliability_report(truth, estimates, "pearson").per_source_ri
        assert np.allclose(ri, 1.0, atol=0.02)

    def test_matched_equal_to_chance_gives_zero(self):
        # every estimate identical to every other, and positively correlated
        # with every truth so that alignment flips no sign: the matched mean
        # equals the cross mean and the numerator vanishes
        q, p, b = 3, 40, 5
        rng = np.random.default_rng(5)
        shared = rng.standard_normal(p)
        estimates = np.stack([np.vstack([shared] * q)] * b)
        truth = shared + 0.5 * rng.standard_normal((q, p))
        ri = reliability_report(truth, estimates, "pearson").per_source_ri
        assert np.allclose(ri, 0.0, atol=1e-12)

    def test_undefined_denominator_gives_nan(self):
        # every row of every replicate is +-truth[0]; alignment flips each
        # to +truth[0], so truth 0's similarities are all 1 and 1 - chance
        # vanishes, while truth 1 keeps a nonzero denominator
        x = np.arange(20.0)
        truth = np.vstack([x, x ** 2])
        estimates = [np.vstack([x, x]), np.vstack([x, -x]), np.vstack([-x, x])]
        ri = reliability_report(truth, estimates, "pearson").per_source_ri
        assert np.isnan(ri[0])
        assert np.isfinite(ri[1])

    def test_pearson_ri_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(6)
        q, p, b = 3, 60, 6
        truth = rng.standard_normal((q, p))
        ests = rng.standard_normal((b, q, p)) * 0.2 + truth[None]
        r1 = reliability_report(truth, ests, "pearson").per_source_ri
        r2 = reliability_report(truth, ests * 17.3, "pearson").per_source_ri
        assert np.allclose(r1, r2, atol=1e-12)

    def test_jaccard_ri_invariant_to_monotone_rescaling(self):
        rng = np.random.default_rng(7)
        q, p, b = 2, 200, 4
        truth = rng.standard_normal((q, p))
        ests = rng.standard_normal((b, q, p)) * 0.5 + truth[None]
        r1 = reliability_report(truth, ests, "jaccard", 0.05).per_source_ri
        cubed = np.sign(ests) * np.abs(ests) ** 3  # monotone in |value|
        r2 = reliability_report(truth, cubed, "jaccard", 0.05).per_source_ri
        assert np.allclose(r1, r2, atol=1e-12)

    def test_jaccard_bounded_unit_interval(self):
        rng = np.random.default_rng(8)
        a, bvec = rng.standard_normal(100), rng.standard_normal(100)
        sa = top_edge_support(a, 0.05)
        assert sa.sum() == 5
        report = reliability_report(np.vstack([a, bvec]),
                                    [np.vstack([a, bvec])] * 3, "jaccard", 0.05)
        assert report.per_source_ri.shape == (2,)

    def test_requires_two_replicates(self):
        with pytest.raises(ValidationError):
            reliability_report(np.zeros((2, 5)), np.zeros((1, 2, 5)))


class TestBootstrap:
    def make_dataset(self, rng, n=14, node_count=6):
        p = node_count * (node_count - 1) // 2
        return ConnectivityDataset(data=rng.standard_normal((n, p)),
                                   node_count=node_count)

    def test_passthrough_fit_gives_identical_replicates(self):
        rng = np.random.default_rng(9)
        ds = self.make_dataset(rng)
        truth = rng.standard_normal((2, ds.n_edges))
        result = bootstrap_replicates(ds, lambda d, seed: truth, 2, seed=0)
        assert result.n_success == 2
        assert np.array_equal(result.estimates[0], result.estimates[1])

    def test_indices_reproducible_and_with_replacement(self):
        idx1 = bootstrap_indices(14, 5, seed=3)
        idx2 = bootstrap_indices(14, 5, seed=3)
        assert np.array_equal(idx1, idx2)
        assert idx1.shape == (5, 14)
        assert idx1.min() >= 0 and idx1.max() < 14

    @pytest.mark.parametrize("n", [24, 100, 500])
    def test_replicate_seeds_independent_of_subject_draws(self, n):
        # drawn from the subjects' own stream, the seeds rescaled to [0, N)
        # would repeat replicate 0's subject draw
        rng = np.random.default_rng(12)
        ds = self.make_dataset(rng, n=n)
        b = 6
        seeds = []

        def record(d, seed):
            seeds.append(seed)
            return np.zeros((2, ds.n_edges))

        for seed in range(6):
            seeds.clear()
            bootstrap_replicates(ds, record, b, seed=seed)
            rescaled = np.array(seeds) * n // (2 ** 31 - 1)
            draws = bootstrap_indices(n, b, seed)[0, :b]
            assert not np.array_equal(rescaled, draws), seed

    def test_index_distribution_is_uniform_monte_carlo(self):
        idx = bootstrap_indices(10, 1000, seed=4)
        counts = np.bincount(idx.ravel(), minlength=10) / idx.size
        assert np.abs(counts - 0.1).max() < 0.01

    def test_failures_recorded_not_raised(self):
        rng = np.random.default_rng(10)
        ds = self.make_dataset(rng)

        calls = {"n": 0}

        def flaky(d, seed):
            calls["n"] += 1
            if calls["n"] == 2:
                raise DegeneracyError("singular_sources", "boom")
            return np.zeros((2, ds.n_edges))

        result = bootstrap_replicates(ds, flaky, 3, seed=1)
        assert result.n_success == 2
        assert len(result.failures) == 1
        assert result.failures[0][0] == 1
        assert result.failures[0][1].startswith("DegeneracyError")

    def test_programming_error_propagates(self):
        rng = np.random.default_rng(10)
        ds = self.make_dataset(rng)

        def buggy(d, seed):
            raise TypeError("shape bug")

        with pytest.raises(TypeError):
            bootstrap_replicates(ds, buggy, 3, seed=1)

    def test_b_lower_bound(self):
        rng = np.random.default_rng(11)
        ds = self.make_dataset(rng)
        with pytest.raises(ValidationError):
            bootstrap_replicates(ds, lambda d, s: None, 1)

    def test_negative_seed_rejected(self):
        rng = np.random.default_rng(11)
        ds = self.make_dataset(rng)
        with pytest.raises(ValidationError, match="bad_config"):
            bootstrap_replicates(ds, lambda d, s: np.zeros((2, ds.n_edges)),
                                 2, seed=-1)
