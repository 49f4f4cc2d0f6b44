"""The three regularizers: their penalty terms and where each variant's
phi/2 soft-threshold lands in the solver's block steps."""

import numpy as np
import pytest

from locus.connmat import unvectorize, vectorize
from locus.errors import ValidationError
from locus.solver import (LowRankSource, SolverConfig, penalty, soft_threshold,
                          sweep_nodes, update_d)


def textbook_row(x, d, v, bhat):
    """D^(-1) (X(-v)' X(-v))^(-1) X(-v)' bhat with an explicit row delete."""
    x_minus = np.delete(x, v, axis=0)
    return np.linalg.solve(x_minus.T @ x_minus, x_minus.T @ bhat) / d


def z_columns(x):
    """(p, R) matrix whose r-th column is the edge vector of x_r x_r'."""
    return np.column_stack([vectorize(np.outer(col, col)) for col in x.T])


def visit_node(src, v, bhat, shrink=0.0):
    """Node v's new row from a :func:`sweep_nodes` visit of node v against
    the other rows of ``src``: the sweep of a relabelled copy in which
    node v comes first, so that it visits node v before any other."""
    order = [v] + [u for u in range(src.node_count) if u != v]
    targets = np.zeros((1, src.node_count, src.node_count))
    targets[0, 0, 1:] = bhat
    return sweep_nodes([(src.x[order], src.d)], targets, shrink)[0][0]


def basis_source(node_count, node, weight):
    x = np.zeros((node_count, 1))
    x[node, 0] = 1.0
    return LowRankSource(x, np.array([weight]))


class TestPenaltyValue:
    def test_single_node_source_uniform_is_zero(self):
        src = basis_source(5, 0, 2.0)
        assert penalty([src], 1.0, "uniform_l1") == 0.0

    def test_single_node_source_vector_and_nuclear(self):
        src = basis_source(5, 0, 2.0)
        assert penalty([src], 1.0, "vector_l1") == pytest.approx(1.0)
        assert penalty([src], 1.0, "nuclear") == pytest.approx(2.0)

    def test_uniform_matches_brute_force_edge_sum(self):
        rng = np.random.default_rng(0)
        src = LowRankSource(rng.standard_normal((7, 3)), rng.standard_normal(3))
        m = src.matrix()
        brute = sum(abs(m[u, v]) for u in range(7) for v in range(u + 1, 7))
        got = penalty([src], 2.5, "uniform_l1")
        assert got == pytest.approx(2.5 * brute, rel=1e-12)

    def test_nuclear_orthonormal_columns_equals_weighted_l1_of_d(self):
        rng = np.random.default_rng(1)
        x = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        d = np.array([2.0, -1.0, 0.5])
        src = LowRankSource(x, d)
        got = penalty([src], 1.0, "nuclear")
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
        got = penalty([src], 1.0, "nuclear")
        svd_based = float(np.sum(np.linalg.svd(src.matrix(), compute_uv=False)))
        assert got == pytest.approx(svd_based, rel=1e-10)
        assert got < 0.5 * float(np.sum(np.abs(src.d)))

    def test_nonnegative_and_zero_weight(self):
        rng = np.random.default_rng(3)
        src = LowRankSource(rng.standard_normal((6, 2)), np.ones(2))
        for variant in ("uniform_l1", "vector_l1", "nuclear"):
            assert penalty([src], 0.0, variant) == 0.0
            assert penalty([src], 1.3, variant) >= 0.0

    def test_bad_variant_rejected(self):
        src = basis_source(5, 0, 2.0)
        with pytest.raises(ValidationError):
            SolverConfig(regularizer="scad")
        with pytest.raises(ValidationError):
            SolverConfig(phi=-0.1)
        with pytest.raises(ValidationError):
            penalty([src], 1.0, "scad")
        with pytest.raises(ValidationError):
            penalty([src], -0.1, "uniform_l1")


class TestProxStep:
    """Each variant's proximal block step."""

    def test_nuclear_bare_target_shrinks_weights(self):
        # rank-1 factors on disjoint node pairs: orthogonal Z columns, and
        # the least-squares weights of this target are exactly (3, -0.5)
        x = np.zeros((6, 2))
        x[0, 0] = x[1, 0] = 1.0 / np.sqrt(2)
        x[2, 1] = x[3, 1] = 1.0 / np.sqrt(2)
        target = unvectorize(z_columns(x) @ np.array([3.0, -0.5]), 6)
        # nuclear at phi=1 shrinks the weights at phi/2
        got = update_d(x, target, 0.5)
        assert np.allclose(got, [2.5, 0.0], atol=1e-12)
        assert got[1] == 0.0
        assert np.allclose(update_d(x, target), [3.0, -0.5], atol=1e-12)

    def test_vector_weight_zero_is_plain_least_squares_row(self):
        rng = np.random.default_rng(4)
        src = LowRankSource(rng.standard_normal((8, 2)), rng.standard_normal(2) + 2.0)
        y_proj = rng.standard_normal(7)
        got = visit_node(src, 3, y_proj, shrink=0.0)
        assert np.allclose(got, textbook_row(src.x, src.d, 3, y_proj), atol=1e-14)

    def test_uniform_node_path_equals_solver_update(self):
        # uniform-L1 thresholds node v's edge values, then projects them
        # without further shrinkage
        rng = np.random.default_rng(5)
        for _ in range(100):
            node_count = int(rng.integers(5, 10))
            rank = int(rng.integers(1, 4))
            src = LowRankSource(rng.standard_normal((node_count, rank)),
                                rng.standard_normal(rank) + 2.0)
            v = int(rng.integers(node_count))
            bhat = soft_threshold(rng.standard_normal(node_count - 1),
                                  float(rng.uniform(0, 0.5)))
            got = visit_node(src, v, bhat)
            expected = textbook_row(src.x, src.d, v, bhat)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(got - expected)) <= 1e-9 * scale

    def test_uniform_weight_path_equals_solver_update_d(self):
        # uniform-L1 thresholds the target, then the weight step is plain
        # least squares on Z
        rng = np.random.default_rng(6)
        for _ in range(20):
            src = LowRankSource(rng.standard_normal((7, 2)),
                                rng.standard_normal(2) + 2.0)
            phi = float(rng.uniform(0, 1))
            s_star = soft_threshold(rng.standard_normal(21), phi / 2.0)
            expected, *_ = np.linalg.lstsq(z_columns(src.x), s_star, rcond=None)
            got = update_d(src.x, unvectorize(s_star, 7))
            assert np.allclose(got, expected, atol=1e-12)

    def test_bare_threshold_consistency(self):
        # vector-L1 and nuclear apply the same soft_threshold at phi/2 to
        # the result of their unpenalized least-squares step
        rng = np.random.default_rng(7)
        src = LowRankSource(rng.standard_normal((9, 3)), rng.standard_normal(3) + 2.0)
        y_node = rng.standard_normal(8)
        plain = visit_node(src, 5, y_node)
        assert np.array_equal(visit_node(src, 5, y_node, shrink=0.4),
                              soft_threshold(plain, 0.4))
        y_edges = unvectorize(rng.standard_normal(36), 9)
        assert np.array_equal(update_d(src.x, y_edges, 0.4),
                              soft_threshold(update_d(src.x, y_edges), 0.4))
