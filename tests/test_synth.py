import numpy as np
import pytest

from locus.errors import DimensionError, ValidationError
from locus.synth import (SyntheticSpec, generate, templates_blocks_cross,
                         templates_triangle_circle_square)


class TestTemplates:
    @pytest.mark.parametrize("builder", [templates_blocks_cross,
                                         templates_triangle_circle_square])
    @pytest.mark.parametrize("node_count", [10, 11, 50, 73, 137, 264, 399])
    def test_templates_render_symmetric_nonempty_distinct(self, builder, node_count):
        mats = builder(node_count)
        assert len(mats) == 3
        supports = []
        for m in mats:
            assert m.shape == (node_count, node_count)
            assert np.array_equal(m, m.T)
            assert not np.diag(m).any()
            assert m.any()
            supports.append(frozenset(map(tuple, np.argwhere(m > 0))))
        assert len(set(supports)) == 3

    def test_scenario_one_geometry_at_v50(self):
        m1, m2, m3 = templates_blocks_cross(50)
        # block on nodes [5, 20): fully connected inside, nothing outside
        assert m1[5, 6] == 1 and m1[5, 19] == 1
        assert m1[4, 6] == 0 and m1[20, 21] == 0
        # cross band [22.5 -> 22, 27.5 -> 28): edges touch the band
        assert m2[23, 0] == 1 and m2[0, 23] == 1
        assert m2[0, 1] == 0
        # off-diagonal block [30, 40) x [10, 20)
        assert m3[30, 10] == 1 and m3[10, 30] == 1
        assert m3[30, 31] == 0

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError, match="template_too_small"):
            SyntheticSpec(node_count=8, q=3, n_subjects=5, sigma=0.0)


class TestGenerate:
    def test_identity_mixing_reproduces_sources(self):
        spec = SyntheticSpec(node_count=12, q=3, n_subjects=3, sigma=0.0,
                             seed=0, loading_dist=lambda rng, size: np.eye(3))
        ds, truth = generate(spec)
        assert np.array_equal(ds.data, truth.sources)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (4,)])
    def test_loading_sampler_shape_checked(self, shape):
        spec = SyntheticSpec(node_count=12, q=3, n_subjects=4, sigma=0.0,
                             loading_dist=lambda rng, size: np.ones(shape))
        with pytest.raises(DimensionError, match=r"expected \(4, 3\)"):
            generate(spec)

    def test_paper_scale_settings(self):
        for sigma in (1.0, 3.0, 6.0):
            spec = SyntheticSpec(node_count=50, q=3, n_subjects=100,
                                 sigma=sigma, seed=1)
            ds, truth = generate(spec)
            assert ds.data.shape == (100, 1225)
            assert truth.sources.shape == (3, 1225)
            assert truth.noise_sd == sigma

    def test_fixed_seed_bit_identical(self):
        spec = SyntheticSpec(node_count=15, q=3, n_subjects=10, sigma=2.0,
                             seed=42)
        ds1, t1 = generate(spec)
        ds2, t2 = generate(spec)
        assert np.array_equal(ds1.data, ds2.data)
        assert np.array_equal(t1.loadings, t2.loadings)

    def test_noise_sd_monte_carlo(self):
        # zero out the loadings: observed edge SD must track sigma within 2%
        spec = SyntheticSpec(node_count=10, q=3, n_subjects=10_000, sigma=1.5,
                             seed=3,
                             loading_dist=lambda rng, size: np.zeros(size))
        ds, _ = generate(spec)
        assert abs(ds.data.std() - 1.5) / 1.5 < 0.02

    def test_zero_mean_loadings_give_zero_mean_data(self):
        spec = SyntheticSpec(node_count=12, q=3, n_subjects=10_000, sigma=0.0,
                             seed=4)
        ds, truth = generate(spec)
        # loading distribution is symmetric around zero; check Monte-Carlo
        # convergence of the data mean on the heaviest edges
        scale = np.abs(truth.sources).sum(axis=0).max()
        assert np.abs(ds.data.mean(axis=0)).max() < 0.05 * scale

    def test_loading_distribution_default_bounded_away_from_zero(self):
        spec = SyntheticSpec(node_count=12, q=3, n_subjects=500, sigma=0.0,
                             seed=5)
        _, truth = generate(spec)
        mags = np.abs(truth.loadings)
        assert mags.min() >= 0.5
        assert mags.max() <= 2.0

    def test_bad_scenario_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(node_count=10, q=3, n_subjects=5, sigma=0.0,
                          scenario="spiral")
