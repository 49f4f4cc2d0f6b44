import math
import tracemalloc

import numpy as np
import pytest

from locus.connmat import ConnectivityDataset
from locus.errors import DegeneracyError, DimensionError
from locus.modelsel import ZERO_TOL, bic
from locus.preprocess import (BLOCK_BYTES, _fix_eigvec_signs,
                              unmix_to_subject_space, whiten)
from locus.solver import LocusModel, LowRankSource, SolverConfig, fit
from locus.synth import SyntheticSpec, generate


def make_dataset(rng, n=12, node_count=8):
    p = node_count * (node_count - 1) // 2
    return ConnectivityDataset(data=rng.standard_normal((n, p)),
                               node_count=node_count)


class TestWhiten:
    def test_demeaned_columns(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng)
        w = whiten(ds, 3)
        yc = ds.data - w.col_means
        assert np.max(np.abs(yc.mean(axis=0))) < 1e-12
        assert w.data is ds.data

    def test_whitened_gram_diagonal_with_eigenvalue_ratio(self):
        # independent oracle: eigendecompose the demeaned Gram from scratch
        rng = np.random.default_rng(1)
        ds = make_dataset(rng, n=5, node_count=4)
        q = 2
        w = whiten(ds, q)
        yc = ds.data - ds.data.mean(axis=0)
        lam = np.sort(np.linalg.eigvalsh(yc @ yc.T))[::-1]
        sigma2 = lam[q:].mean()
        got = w.h @ yc @ yc.T @ w.h.T
        expected = np.diag(lam[:q] / (lam[:q] - sigma2))
        assert np.allclose(got, expected, rtol=1e-8, atol=1e-10)
        assert abs(w.sigma2_resid - sigma2) < 1e-10 * max(1.0, sigma2)

    def test_zero_residual_reduces_to_classical_pca_whitening(self):
        # data with exactly q nonzero singular values after demeaning
        rng = np.random.default_rng(2)
        q, n, node_count = 3, 8, 7
        p = node_count * (node_count - 1) // 2
        basis = rng.standard_normal((q, p))
        coefs = rng.standard_normal((n, q))
        ds = ConnectivityDataset(data=coefs @ basis, node_count=node_count)
        w = whiten(ds, q)
        assert w.sigma2_resid < 1e-8
        yc = ds.data - ds.data.mean(axis=0)
        assert np.allclose(w.h @ yc @ yc.T @ w.h.T, np.eye(q), atol=1e-8)

    def test_q_equals_n_minus_one_sigma_is_smallest_eigenvalue(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng, n=6)
        w = whiten(ds, 5)
        yc = ds.data - ds.data.mean(axis=0)
        lam = np.sort(np.linalg.eigvalsh(yc @ yc.T))
        # demeaning leaves one zero eigenvalue; the remaining smallest one
        # is the single-term average
        assert abs(w.sigma2_resid - lam[0]) < 1e-8 * max(1.0, abs(lam[0]))

    def test_eigvals_strictly_decreasing_and_above_sigma2(self):
        rng = np.random.default_rng(4)
        w = whiten(make_dataset(rng), 4)
        assert np.all(np.diff(w.eigvals_top) < 0)
        assert np.all(w.eigvals_top > w.sigma2_resid)

    def test_q_out_of_range_rejected(self):
        rng = np.random.default_rng(5)
        ds = make_dataset(rng, n=6)
        with pytest.raises(DimensionError):
            whiten(ds, 6)
        with pytest.raises(DimensionError):
            whiten(ds, 0)

    def test_rank_deficiency_reported(self):
        # rank-2 demeaned data cannot support q=3
        rng = np.random.default_rng(6)
        node_count, p = 8, 28
        basis = rng.standard_normal((2, p))
        coefs = rng.standard_normal((10, 2))
        ds = ConnectivityDataset(data=coefs @ basis, node_count=node_count)
        with pytest.raises(DegeneracyError, match="lower q"):
            whiten(ds, 3)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(7)
        ds = make_dataset(rng)
        w1 = whiten(ds, 3)
        w2 = whiten(ds, 3)
        assert np.array_equal(w1.y_tilde, w2.y_tilde)
        assert np.array_equal(w1.h, w2.h)


class TestUnmixToSubjectSpace:
    def test_exact_factorization_recovered(self):
        rng = np.random.default_rng(8)
        n, q, node_count = 20, 3, 10
        p = node_count * (node_count - 1) // 2
        s = rng.standard_normal((q, p))
        a_true = rng.standard_normal((n, q))
        a_true -= a_true.mean(axis=0)  # demeaning removes the mean loading
        ds = ConnectivityDataset(data=a_true @ s, node_count=node_count)
        w = whiten(ds, q)
        a_hat = unmix_to_subject_space(w, s)
        assert np.allclose(a_hat, a_true, atol=1e-8)

    def test_scalar_projection_for_single_source(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng, n=6, node_count=5)
        w = whiten(ds, 1)
        s = rng.standard_normal((1, 10))
        s /= np.linalg.norm(s)
        a_hat = unmix_to_subject_space(w, s)
        yc = ds.data - ds.data.mean(axis=0)
        expected = yc @ s.T / float(s[0] @ s[0])
        assert np.allclose(a_hat, expected, atol=1e-12)

    def test_zero_demeaned_data_gives_zero_loadings(self):
        node_count, p = 5, 10
        data = np.tile(np.arange(p, dtype=float), (4, 1))  # identical subjects
        ds = ConnectivityDataset(data=data, node_count=node_count)
        # build whitened data by hand: demeaned data is exactly zero, so
        # whiten() would refuse; exercise the op directly
        from locus.preprocess import WhitenedData
        w = WhitenedData(y_tilde=np.zeros((1, p)), h=np.zeros((1, 4)),
                         col_means=data[0], sigma2_resid=0.0,
                         eigvals_top=np.array([1.0]),
                         data=data)
        s = np.ones((1, p))
        a_hat = unmix_to_subject_space(w, s)
        assert not a_hat.any()

    def test_singular_source_gram_rejected(self):
        rng = np.random.default_rng(11)
        ds = make_dataset(rng, n=8, node_count=6)
        w = whiten(ds, 2)
        s = np.vstack([np.ones(15), np.ones(15)])
        with pytest.raises(DegeneracyError,
                           match=r"sources 0 and 1 .* \(\|corr\| = 1\.000000\)"):
            unmix_to_subject_space(w, s)
        s = np.vstack([rng.standard_normal(15), np.zeros(15)])
        with pytest.raises(DegeneracyError, match=r"sources \[1\] are zero"):
            unmix_to_subject_space(w, s)
        for bad in (np.nan, np.inf):
            s = rng.standard_normal((2, 15))
            s[0, 3] = bad
            with pytest.raises(DegeneracyError, match=r"sources \[0\]"):
                unmix_to_subject_space(w, s)


class TestColumnBlocks:
    """whiten, unmix_to_subject_space and bic centre one column block at a
    time and share the dataset's array instead of holding a demeaned copy."""

    @staticmethod
    def multi_block(node_count, n, seed=0):
        ds, _ = generate(SyntheticSpec(node_count=node_count, q=3,
                                       n_subjects=n, sigma=1.0, seed=seed))
        assert ds.data.nbytes > BLOCK_BYTES  # more than one block
        return ds

    @staticmethod
    def rel_err(got, expected):
        return float(np.max(np.abs(got - expected)) / np.max(np.abs(expected)))

    def test_whitened_data_is_the_dataset_array(self):
        ds = make_dataset(np.random.default_rng(12))
        assert whiten(ds, 3).data is ds.data

    def test_multi_block_matches_dense_formulas(self):
        ds, q = self.multi_block(200, 20), 3
        w = whiten(ds, q)
        # whiten, as one dense demeaned copy
        yc = ds.data - ds.data.mean(axis=0)
        gram = yc @ yc.T
        lam, vecs = np.linalg.eigh((gram + gram.T) / 2.0)
        lam, vecs = lam[::-1], _fix_eigvec_signs(vecs[:, ::-1])
        sigma2 = float(np.mean(lam[q:]))
        h = (1.0 / np.sqrt(lam[:q] - sigma2))[:, None] * vecs[:, :q].T
        assert self.rel_err(w.h, h) < 1e-12
        assert self.rel_err(w.y_tilde, h @ yc) < 1e-12
        assert abs(w.sigma2_resid - sigma2) < 1e-12 * sigma2
        # unmix_to_subject_space
        rng = np.random.default_rng(13)
        s = rng.standard_normal((q, ds.n_edges))
        a = yc @ s.T @ np.linalg.inv(s @ s.T)
        assert self.rel_err(unmix_to_subject_space(w, s), a) < 1e-12
        # bic
        sources = [LowRankSource(rng.standard_normal((200, 2)), [1.0, -0.5])
                   for _ in range(q)]
        model = LocusModel(sources=sources, a_tilde=np.eye(q), a=a)
        s = model.source_matrix()
        resid2 = float(np.mean((yc - a @ s) ** 2))
        n, p = ds.data.shape
        l0 = sum(int(np.count_nonzero(np.abs(row) > ZERO_TOL * np.max(np.abs(row))))
                 for row in s)
        dense = n * p * (math.log(2.0 * math.pi * resid2) + 1.0) + math.log(n) * l0
        assert abs(bic(ds, model) - dense) < 1e-12 * abs(dense)

    def test_decompose_holds_no_second_copy(self):
        # whiten -> fit -> loadings, traced above the dataset it is given;
        # a shape where the data outweighs the (N, N) and (V, V) work
        # arrays of the eigen-decompositions
        ds = self.multi_block(150, 300, seed=1)
        config = SolverConfig(phi=0.01, rho=0.9, max_iter=2)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            model = fit(whiten(ds, 3), 3, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.a.shape == (300, 3)
        assert peak - held < 0.5 * ds.data.nbytes
