import numpy as np
import pytest

from locus.connmat import ConnectivityDataset
from locus.errors import DegeneracyError, DimensionError
from locus.preprocess import unmix_to_subject_space, whiten


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
        assert np.array_equal(w.y_centered, yc)

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
                         y_centered=np.zeros((4, p)))
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
