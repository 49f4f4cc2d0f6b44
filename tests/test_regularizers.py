import numpy as np
import pytest

from locus.errors import ValidationError
from locus.regularizers import RegularizerKind, penalty_value, prox_step
from locus.solver import LowRankSource, soft_threshold, update_d, update_node


def textbook_row(x, d, v, bhat):
    """D^(-1) (X(-v)' X(-v))^(-1) X(-v)' bhat with an explicit row delete."""
    x_minus = np.delete(x, v, axis=0)
    return np.linalg.solve(x_minus.T @ x_minus, x_minus.T @ bhat) / d


def basis_source(node_count, node, weight):
    x = np.zeros((node_count, 1))
    x[node, 0] = 1.0
    return LowRankSource(x, np.array([weight]))


class TestPenaltyValue:
    def test_single_node_source_uniform_is_zero(self):
        src = basis_source(5, 0, 2.0)
        assert penalty_value(RegularizerKind("uniform_l1", 1.0), [src]) == 0.0

    def test_single_node_source_vector_and_nuclear(self):
        src = basis_source(5, 0, 2.0)
        assert penalty_value(RegularizerKind("vector_l1", 1.0), [src]) == pytest.approx(1.0)
        assert penalty_value(RegularizerKind("nuclear", 1.0), [src]) == pytest.approx(2.0)

    def test_uniform_matches_brute_force_edge_sum(self):
        rng = np.random.default_rng(0)
        src = LowRankSource(rng.standard_normal((7, 3)), rng.standard_normal(3))
        m = src.matrix()
        brute = sum(abs(m[u, v]) for u in range(7) for v in range(u + 1, 7))
        got = penalty_value(RegularizerKind("uniform_l1", 2.5), [src])
        assert got == pytest.approx(2.5 * brute, rel=1e-12)

    def test_nuclear_orthonormal_columns_equals_weighted_l1_of_d(self):
        rng = np.random.default_rng(1)
        x = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        d = np.array([2.0, -1.0, 0.5])
        src = LowRankSource(x, d)
        got = penalty_value(RegularizerKind("nuclear", 1.0), [src])
        svd_based = np.sum(np.linalg.svd(src.matrix(), compute_uv=False))
        assert got == pytest.approx(np.sum(np.abs(d)), rel=1e-12)
        assert got == pytest.approx(svd_based, rel=1e-8)

    def test_nuclear_falls_back_to_svd_for_skewed_columns(self):
        # mixed-sign weights on nearly parallel columns: the components
        # nearly cancel, so sum |d_r| badly overstates the nuclear norm
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 2))
        x[:, 1] = x[:, 0] + 0.05 * rng.standard_normal(8)
        src = LowRankSource(x, np.array([1.0, -1.0]))
        got = penalty_value(RegularizerKind("nuclear", 1.0), [src])
        svd_based = float(np.sum(np.linalg.svd(src.matrix(), compute_uv=False)))
        assert got == pytest.approx(svd_based, rel=1e-10)
        assert got < 0.5 * float(np.sum(np.abs(src.d)))

    def test_nonnegative_and_zero_weight(self):
        rng = np.random.default_rng(3)
        src = LowRankSource(rng.standard_normal((6, 2)), np.ones(2))
        for variant in ("uniform_l1", "vector_l1", "nuclear"):
            assert penalty_value(RegularizerKind(variant, 0.0), [src]) == 0.0
            assert penalty_value(RegularizerKind(variant, 1.3), [src]) >= 0.0

    def test_bad_variant_rejected(self):
        with pytest.raises(ValidationError):
            RegularizerKind("scad", 1.0)
        with pytest.raises(ValidationError):
            RegularizerKind("uniform_l1", -0.1)


class TestProxStep:
    def test_nuclear_bare_target_shrinks_weights(self):
        got = prox_step(RegularizerKind("nuclear", 1.0), np.array([3.0, -0.5]))
        assert got.tolist() == [2.5, 0.0]

    def test_vector_weight_zero_is_plain_least_squares_row(self):
        rng = np.random.default_rng(4)
        src = LowRankSource(rng.standard_normal((8, 2)), rng.standard_normal(2) + 2.0)
        y_proj = rng.standard_normal(7)
        ctx = {"x": np.array(src.x), "d": np.array(src.d), "node": 3}
        got = prox_step(RegularizerKind("vector_l1", 0.0), y_proj, ctx)
        assert np.allclose(got, textbook_row(src.x, src.d, 3, y_proj), atol=1e-14)

    def test_uniform_node_path_equals_solver_update(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            node_count = int(rng.integers(5, 10))
            rank = int(rng.integers(1, 4))
            src = LowRankSource(rng.standard_normal((node_count, rank)),
                                rng.standard_normal(rank) + 2.0)
            v = int(rng.integers(node_count))
            y_proj = rng.standard_normal(node_count - 1)
            phi = float(rng.uniform(0, 1))
            ctx = {"x": np.array(src.x), "d": np.array(src.d), "node": v}
            ours = prox_step(RegularizerKind("uniform_l1", phi), y_proj, ctx)
            solver_row = update_node(src, v, y_proj, phi)
            assert np.array_equal(ours, solver_row)

    def test_uniform_weight_path_equals_solver_update_d(self):
        rng = np.random.default_rng(6)
        from locus.solver import _z_columns
        for _ in range(20):
            src = LowRankSource(rng.standard_normal((7, 2)),
                                rng.standard_normal(2) + 2.0)
            y_src = rng.standard_normal(21)
            phi = float(rng.uniform(0, 1))
            got = prox_step(RegularizerKind("uniform_l1", phi), y_src,
                            {"z": _z_columns(src.x)})
            assert np.allclose(got, update_d(src, y_src, phi), atol=1e-14)

    def test_bare_threshold_consistency(self):
        rng = np.random.default_rng(7)
        y = rng.standard_normal(9)
        for variant in ("uniform_l1", "vector_l1", "nuclear"):
            got = prox_step(RegularizerKind(variant, 0.8), y)
            assert np.array_equal(got, soft_threshold(y, 0.4))
