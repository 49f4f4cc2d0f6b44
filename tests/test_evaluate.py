import numpy as np
import pytest

from locus.connmat import ConnectivityDataset
from locus.errors import DegeneracyError, ValidationError
from locus.evaluate import (align_estimates, bootstrap_indices,
                            bootstrap_replicates, match_sources,
                            reliability_index, reliability_report,
                            top_edge_support)


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
        aligned = align_estimates(truth, est)
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

    def test_assignment_at_least_as_good_as_greedy(self):
        rng = np.random.default_rng(3)
        p = 50
        for _ in range(1000):
            q = int(rng.integers(2, 5))
            corr = rng.uniform(-1, 1, size=(q, q))
            # greedy matching oracle on |corr|
            remaining = set(range(q))
            greedy_total = 0.0
            for i in range(q):
                j = max(remaining, key=lambda c: abs(corr[i, c]))
                greedy_total += abs(corr[i, j])
                remaining.discard(j)
            from scipy.optimize import linear_sum_assignment
            rows, cols = linear_sum_assignment(-np.abs(corr))
            optimal_total = float(np.abs(corr)[rows, cols].sum())
            assert optimal_total >= greedy_total - 1e-12

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
        for ell in range(q):
            ri = reliability_index(truth[ell], estimates, ell, "pearson")
            assert ri == pytest.approx(1.0, abs=0.02)

    def test_matched_equal_to_chance_gives_zero(self):
        # every estimate identical to every other: matched mean equals the
        # cross mean, numerator vanishes
        q, p, b = 3, 40, 5
        rng = np.random.default_rng(5)
        shared = rng.standard_normal(p)
        estimates = np.stack([np.vstack([shared] * q)] * b)
        truth = rng.standard_normal((q, p))
        for ell in range(q):
            assert reliability_index(truth[ell], estimates, ell,
                                     "pearson") == pytest.approx(0.0, abs=1e-12)

    def test_undefined_denominator_gives_nan(self):
        q, p, b = 2, 20, 3
        truth = np.vstack([np.arange(20.0), -np.arange(20.0)])
        estimates = np.stack([np.vstack([truth[0], truth[0]])] * b)
        ri = reliability_index(truth[0], estimates, 0, "pearson")
        assert np.isnan(ri)

    def test_pearson_ri_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(6)
        q, p, b = 3, 60, 6
        truth = rng.standard_normal((q, p))
        ests = rng.standard_normal((b, q, p)) * 0.2 + truth[None]
        r1 = np.array([reliability_index(truth[ell], ests, ell, "pearson")
                       for ell in range(q)])
        r2 = np.array([reliability_index(truth[ell], ests * 17.3, ell, "pearson")
                       for ell in range(q)])
        assert np.allclose(r1, r2, atol=1e-12)

    def test_jaccard_ri_invariant_to_monotone_rescaling(self):
        rng = np.random.default_rng(7)
        q, p, b = 2, 200, 4
        truth = rng.standard_normal((q, p))
        ests = rng.standard_normal((b, q, p)) * 0.5 + truth[None]
        r1 = np.array([reliability_index(truth[ell], ests, ell, "jaccard", 0.05)
                       for ell in range(q)])
        cubed = np.sign(ests) * np.abs(ests) ** 3  # monotone in |value|
        r2 = np.array([reliability_index(truth[ell], cubed, ell, "jaccard", 0.05)
                       for ell in range(q)])
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
            reliability_index(np.arange(5.0), np.zeros((1, 2, 5)), 0)


class TestBootstrap:
    def make_dataset(self, rng, n=14, node_count=6):
        p = node_count * (node_count - 1) // 2
        return ConnectivityDataset(data=rng.standard_normal((n, p)),
                                   node_count=node_count,
                                   subject_ids=[f"s{i}" for i in range(n)])

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
