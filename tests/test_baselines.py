import numpy as np
import pytest

from locus.baselines import fastica
from locus.errors import DegeneracyError, ValidationError
from locus.evaluate import match_sources
from locus.preprocess import WhitenedData, whiten
from locus.synth import SyntheticSpec, generate


def wrap_whitened(y_tilde):
    q, p = y_tilde.shape
    return WhitenedData(y_tilde=y_tilde, h=np.zeros((q, 4)),
                        col_means=np.zeros(p), sigma2_resid=0.0,
                        eigvals_top=np.arange(q, 0, -1).astype(float),
                        data=np.zeros((4, p)))


def non_gaussian_sources(rng, q, p):
    # cubed normals: heavy-tailed, strongly non-Gaussian
    s = rng.standard_normal((q, p)) ** 3
    s -= s.mean(axis=1, keepdims=True)
    s /= s.std(axis=1, keepdims=True)
    return s


class TestFastica:
    def test_recovers_independent_non_gaussian_sources(self):
        rng = np.random.default_rng(0)
        q, p = 2, 4000
        s = non_gaussian_sources(rng, q, p)
        mixing = np.linalg.qr(rng.standard_normal((q, q)))[0]
        model = fastica(wrap_whitened(mixing @ s), q, seed=1)
        match = match_sources(s, model.sources)
        assert np.all(match.per_source_corr > 0.99)

    def test_mixing_orthogonal(self):
        rng = np.random.default_rng(1)
        s = non_gaussian_sources(rng, 3, 2000)
        mixing = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        model = fastica(wrap_whitened(mixing @ s), 3, seed=2)
        gram = model.mixing.T @ model.mixing
        assert np.linalg.norm(gram - np.eye(3)) < 1e-6

    def test_gaussian_data_does_not_crash(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((3, 1500))
        model = fastica(wrap_whitened(y), 3, max_iter=30, seed=3)
        assert model.sources.shape == (3, 1500)
        assert model.iterations <= 30
        # converged may well be False here; either way the API holds
        assert isinstance(model.converged, bool)

    def test_fixed_seed_reproducible(self):
        rng = np.random.default_rng(3)
        s = non_gaussian_sources(rng, 2, 1000)
        w = wrap_whitened(np.linalg.qr(rng.standard_normal((2, 2)))[0] @ s)
        m1 = fastica(w, 2, seed=7)
        m2 = fastica(w, 2, seed=7)
        assert np.array_equal(m1.sources, m2.sources)
        assert np.array_equal(m1.mixing, m2.mixing)

    def test_sign_flip_of_start_changes_sources_only_up_to_sign(self):
        rng = np.random.default_rng(4)
        s = non_gaussian_sources(rng, 2, 3000)
        w = wrap_whitened(np.linalg.qr(rng.standard_normal((2, 2)))[0] @ s)
        m1 = fastica(w, 2, seed=5)
        m2 = fastica(w, 2, seed=11)
        match = match_sources(m1.sources, m2.sources)
        assert np.all(match.per_source_corr > 0.999)

    def test_negative_seed_rejected(self):
        s = non_gaussian_sources(np.random.default_rng(3), 2, 200)
        with pytest.raises(ValidationError, match="bad_config"):
            fastica(wrap_whitened(s), 2, seed=-1)

    @pytest.mark.parametrize("seed", range(6))
    def test_converges_to_uncorrelated_sources_on_blocks_scenario(self, seed):
        # the sources' edges have non-zero means, so the centred rows of the
        # whitened data correlate; FastICA must whiten them to converge
        ds, _ = generate(SyntheticSpec(node_count=50, q=3, n_subjects=100,
                                       sigma=1.0, seed=seed))
        model = fastica(whiten(ds, 3), 3)
        assert model.converged and model.iterations <= 50
        cov = np.cov(model.sources, bias=True)
        assert np.max(np.abs(cov - np.diag(np.diag(cov)))) <= 1e-8
        assert np.allclose(np.diag(cov), 1.0)

    @pytest.mark.parametrize("second", ["dependent", "constant"])
    def test_dependent_centred_rows_rejected(self, second):
        s = non_gaussian_sources(np.random.default_rng(5), 2, 500)
        # a shifted multiple of a row, or a constant row, is linearly
        # dependent once the rows are centred
        other = 2.0 * s[0] + 3.0 if second == "dependent" else np.full(500, 4.0)
        y = np.vstack([s, other])
        with pytest.raises(DegeneracyError, match="singular_mixing"):
            fastica(wrap_whitened(y), 3)
