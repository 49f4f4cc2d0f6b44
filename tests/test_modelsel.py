import math
from dataclasses import replace

import numpy as np
import pytest

from locus.connmat import ConnectivityDataset, unvectorize, vectorize
from locus.errors import DegeneracyError, DimensionError, ValidationError
from locus.modelsel import (RankCapWarning, bic, select_rank,
                            truncation_ratios, tune)
from locus.preprocess import whiten
from locus.solver import (LocusModel, LowRankSource, SolverConfig, fit,
                          initialize)
from locus.synth import SyntheticSpec, generate


class TestSelectRank:
    def test_exact_rank_one_source_selects_one(self):
        # a rank-1 generated source selects rank 1 at practical closeness
        # levels; the vectorization drops the diagonal, so the eigen
        # reconstruction is never bit-exact and rho arbitrarily close to 1
        # would legitimately demand more components
        rng = np.random.default_rng(0)
        vec = rng.standard_normal(8)
        m = np.outer(vec, vec)
        np.fill_diagonal(m, 0.0)
        for rho in (0.3, 0.6, 0.9):
            rank, src = select_rank(m, rho, 7)
            assert rank == 1
            assert src.rank == 1

    def test_constructed_spectrum_matches_direct_energy_arithmetic(self):
        # derived oracle: compute the residual-energy ratios for each
        # truncation rank directly from the eigendecomposition, find the
        # first crossing by hand, and compare
        rng = np.random.default_rng(1)
        node_count = 10
        basis = np.linalg.qr(rng.standard_normal((node_count, 3)))[0]
        m = (basis * np.array([2.0, 1.0, 1.0])) @ basis.T
        np.fill_diagonal(m, 0.0)
        s_star = vectorize(m)
        rho = 0.5

        eigvals, eigvecs = np.linalg.eigh(m)
        order = np.argsort(-np.abs(eigvals))
        norm2 = float(np.sum(s_star ** 2))
        expected_rank = None
        for r in range(1, node_count):
            recon = (eigvecs[:, order[:r]] * eigvals[order[:r]]) @ eigvecs[:, order[:r]].T
            ratio = float(np.sum((vectorize(recon * 1.0 - np.diag(np.diag(recon))) - s_star) ** 2)) / norm2
            if ratio <= 1 - rho:
                expected_rank = r
                break
        rank, _ = select_rank(m, rho, node_count - 1)
        assert rank == expected_rank

    def test_closed_form_ratios_match_per_rank_rebuild(self):
        # reference: rebuild the rank-r edge vector one component at a time
        # and measure its residual directly
        rng = np.random.default_rng(4)
        for node_count in (8, 20, 50):
            r_max = min(10, node_count - 1)
            for _ in range(5):
                a = rng.standard_normal((node_count, node_count))
                m = a + a.T
                np.fill_diagonal(m, 0.0)
                s_star = vectorize(m)
                norm2 = float(np.sum(s_star ** 2))
                eigvals, eigvecs = np.linalg.eigh(m)
                order = np.argsort(-np.abs(eigvals))[:r_max]
                eigvals, eigvecs = eigvals[order], eigvecs[:, order]
                r_idx, c_idx = np.triu_indices(node_count, k=1)
                recon = np.zeros_like(s_star)
                expected = []
                for r in range(r_max):
                    vec = eigvecs[:, r]
                    recon = recon + eigvals[r] * vec[r_idx] * vec[c_idx]
                    expected.append(float(np.sum((recon - s_star) ** 2)) / norm2)
                got = truncation_ratios(eigvals, eigvecs, norm2)
                assert np.max(np.abs(got - expected)) <= 1e-12
                for rho in (0.05, 0.1, 0.2, 0.3):
                    hits = [r for r in range(r_max)
                            if expected[r] <= 1.0 - rho]
                    if hits:
                        assert select_rank(m, rho, r_max)[0] == hits[0] + 1

    def test_rho_near_one_hits_cap_with_warning(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((9, 9))
        m = a + a.T
        np.fill_diagonal(m, 0.0)
        with pytest.warns(RankCapWarning):
            rank, _ = select_rank(m, 0.999999, 3)
        assert rank == 3

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        m = a + a.T
        np.fill_diagonal(m, 0.0)
        ranks = []
        for rho in (0.2, 0.4, 0.6, 0.8, 0.9, 0.95):
            rank, _ = select_rank(m, rho, 11)
            ranks.append(rank)
        assert ranks == sorted(ranks)

    def test_zero_source_rejected(self):
        with pytest.raises(DegeneracyError):
            select_rank(np.zeros((5, 5)), 0.9, 3)

    def test_edge_vector_rejected(self):
        # the source comes as its (V, V) matrix, never as an edge vector
        with pytest.raises(DimensionError):
            select_rank(np.ones(10), 0.9, 3)


def toy_model(sources, loadings):
    srcs = []
    node_count = unvectorize(sources[0], 3).shape[0]
    for row in sources:
        m = unvectorize(row, node_count)
        eigvals, eigvecs = np.linalg.eigh(m)
        k = np.argsort(-np.abs(eigvals))[:2]
        srcs.append(LowRankSource(eigvecs[:, k], eigvals[k]))
    model = LocusModel(sources=srcs, a_tilde=np.eye(len(srcs)))
    model.a = loadings
    return model


class TestBic:
    def test_hand_computed_toy(self):
        # N=2, p=3: set the model sources and loadings by hand, work the
        # formula out with scalar arithmetic
        truth = np.array([[1.0, 0.0, 0.5]])
        loadings = np.array([[1.0], [-1.0]])
        data = loadings @ truth + np.array([[0.1, -0.2, 0.0],
                                            [0.0, 0.1, -0.1]])
        ds = ConnectivityDataset(data=data, node_count=3)
        model = toy_model(truth, loadings)
        # replace reconstructed sources with the exact truth for the check
        got = bic(ds, model)

        yc = data - data.mean(axis=0)
        s_hat = model.source_matrix()
        resid = yc - loadings @ s_hat
        sigma2 = float(np.mean(resid ** 2))
        loglik = 0.0
        for i in range(2):
            loglik += (-0.5 * 3 * math.log(2 * math.pi * sigma2)
                       - float(resid[i] @ resid[i]) / (2 * sigma2))
        l0 = sum(int(np.count_nonzero(np.abs(s) > 1e-3 * np.max(np.abs(s))))
                 for s in s_hat)
        expected = -2 * loglik + math.log(2) * l0
        assert abs(got - expected) < 1e-10

    def test_perfect_fit_returns_sentinel_and_true_support(self):
        # rank-1 factor reproduces its own edge vector exactly, so truth as
        # the model leaves zero residuals on noise-free data
        vec = np.array([1.0, 2.0, 3.0])
        src = LowRankSource(vec[:, None], np.array([1.0]))
        truth = src.edge_vector()[None, :]
        loadings = np.array([[1.0], [-1.0]])
        ds = ConnectivityDataset(data=loadings @ truth, node_count=3)
        model = LocusModel(sources=[src], a_tilde=np.eye(1))
        model.a = loadings - loadings.mean(axis=0)
        assert bic(ds, model) == -math.inf

    def test_scale_invariance_of_model_equivalent_transform(self):
        rng = np.random.default_rng(4)
        node_count, q, n = 8, 2, 12
        p = node_count * (node_count - 1) // 2
        srcs = []
        for _ in range(q):
            x = rng.standard_normal((node_count, 2))
            srcs.append(LowRankSource(x, rng.standard_normal(2)))
        loadings = rng.standard_normal((n, q))
        s = np.vstack([src.edge_vector() for src in srcs])
        data = loadings @ s + 0.1 * rng.standard_normal((n, p))
        ds = ConnectivityDataset(data=data, node_count=node_count)

        model1 = LocusModel(sources=srcs, a_tilde=np.eye(q))
        model1.a = loadings
        c = 3.7
        scaled = [LowRankSource(src.x, src.d * c) for src in srcs]
        model2 = LocusModel(sources=scaled, a_tilde=np.eye(q))
        model2.a = loadings / c
        assert abs(bic(ds, model1) - bic(ds, model2)) < 1e-8

    def test_l0_term_strictly_increases_bic_for_fixed_residuals(self):
        rng = np.random.default_rng(5)
        node_count, q, n = 8, 2, 12
        p = node_count * (node_count - 1) // 2
        dense = LowRankSource(rng.standard_normal((node_count, 2)),
                              rng.standard_normal(2))
        basis = np.zeros((node_count, 1))
        basis[0] = 1.0
        sparse = LowRankSource(np.roll(basis, 1), np.array([1.0]))
        loadings = np.zeros((n, q))
        data = rng.standard_normal((n, p))
        ds = ConnectivityDataset(data=data, node_count=node_count)
        m_dense = LocusModel(sources=[dense, dense], a_tilde=np.eye(q))
        m_dense.a = loadings
        m_sparse = LocusModel(sources=[sparse, sparse], a_tilde=np.eye(q))
        m_sparse.a = loadings
        # zero loadings keep residuals identical; only the L0 term differs
        assert bic(ds, m_dense) > bic(ds, m_sparse)


class TestTune:
    def test_single_cell_grid(self):
        ds, _ = generate(SyntheticSpec(node_count=14, q=3, n_subjects=24,
                                       sigma=0.5, seed=6))
        result = tune(ds, 3, [0.01], [0.9], SolverConfig(seed=0, max_iter=60))
        assert result.best == (0.01, 0.9)
        assert len(result.grid) == 1

    def test_full_factorial_and_reproducible(self):
        ds, _ = generate(SyntheticSpec(node_count=14, q=3, n_subjects=24,
                                       sigma=0.5, seed=7))
        cfg = SolverConfig(seed=0, max_iter=60)
        r1 = tune(ds, 3, [0.0, 0.01], [0.8, 0.9], cfg)
        r2 = tune(ds, 3, [0.0, 0.01], [0.8, 0.9], cfg)
        assert len(r1.grid) == 4
        assert r1.best == r2.best
        assert [c.bic for c in r1.grid] == [c.bic for c in r2.grid]

    def test_grid_order_does_not_change_best(self):
        ds, _ = generate(SyntheticSpec(node_count=14, q=3, n_subjects=24,
                                       sigma=0.5, seed=8))
        cfg = SolverConfig(seed=0, max_iter=60)
        r1 = tune(ds, 3, [0.0, 0.02], [0.8, 0.9], cfg)
        r2 = tune(ds, 3, [0.02, 0.0], [0.9, 0.8], cfg)
        assert r1.best == r2.best

    def test_tie_breaks_toward_sparser_model(self):
        # duplicated grid values tie exactly; larger phi and rho must win
        ds, _ = generate(SyntheticSpec(node_count=12, q=3, n_subjects=20,
                                       sigma=0.5, seed=9))
        cfg = SolverConfig(seed=0, max_iter=40)
        result = tune(ds, 3, [0.01, 0.01], [0.9, 0.9], cfg)
        assert result.best == (0.01, 0.9)
        assert len(result.grid) == 4

    def test_empty_grid_rejected(self):
        ds, _ = generate(SyntheticSpec(node_count=12, q=3, n_subjects=20,
                                       sigma=0.5, seed=10))
        with pytest.raises(ValidationError):
            tune(ds, 3, [], [0.9])

    def test_failed_cells_recorded_and_excluded(self, monkeypatch):
        ds, _ = generate(SyntheticSpec(node_count=12, q=3, n_subjects=20,
                                       sigma=0.5, seed=12))
        cfg = SolverConfig(seed=0, max_iter=40)
        import locus.solver as solver
        real_weigh = solver._weigh

        def flaky_weigh(parts, *args):
            # every weight step that holds the phi=0.02 cell fails; the
            # cells are then weighed one by one
            if any(cell.config.phi == 0.02 for cell, *_ in parts):
                raise DegeneracyError("singular_sources", "synthetic failure")
            return real_weigh(parts, *args)

        monkeypatch.setattr(solver, "_weigh", flaky_weigh)
        result = tune(ds, 3, [0.0, 0.02], [0.9], cfg)
        failed = [c for c in result.grid if c.error is not None]
        assert len(failed) == 1
        assert failed[0].phi == 0.02
        assert result.best[0] == 0.0

    def test_all_cells_failed_raises(self, monkeypatch):
        ds, _ = generate(SyntheticSpec(node_count=12, q=3, n_subjects=20,
                                       sigma=0.5, seed=13))
        import locus.modelsel as modelsel
        import locus.solver as solver
        real_fit_cells = modelsel._fit_cells
        outcomes = []

        def recording_fit_cells(whitened, cells):
            results = real_fit_cells(whitened, cells)
            outcomes.extend(results)
            return results

        def broken_mixing(whitened, s):
            # every update fails, naming how many cells it stacked
            raise np.linalg.LinAlgError(f"nope for {len(s)} cell(s)")

        monkeypatch.setattr(solver, "update_mixing", broken_mixing)
        monkeypatch.setattr(modelsel, "_fit_cells", recording_fit_cells)
        with pytest.raises(DegeneracyError, match="all_cells_failed"):
            tune(ds, 3, [0.0, 0.01], [0.9], SolverConfig(seed=0))
        # each cell keeps the error of its own one-cell retry, not the
        # stack's
        assert [str(err) for err in outcomes] == ["nope for 1 cell(s)"] * 2

    def test_programming_error_in_cell_propagates(self, monkeypatch):
        ds, _ = generate(SyntheticSpec(node_count=12, q=3, n_subjects=20,
                                       sigma=0.5, seed=13))
        import locus.solver as solver
        real_mixing = solver.update_mixing

        def buggy_mixing(*args, **kwargs):
            raise TypeError("shape bug")

        monkeypatch.setattr(solver, "update_mixing", buggy_mixing)
        with pytest.raises(TypeError):
            tune(ds, 3, [0.0], [0.9], SolverConfig(seed=0))

        # the stack of both cells fails with a cell error, so they are
        # retried one by one, and the second cell's retry has the bug
        singles = []

        def buggy_retry(whitened, s):
            if len(s) > 1:
                raise DegeneracyError("singular_sources", "synthetic failure")
            singles.append(s)
            if len(singles) == 2:
                raise TypeError("shape bug")
            return real_mixing(whitened, s)

        monkeypatch.setattr(solver, "update_mixing", buggy_retry)
        with pytest.raises(TypeError):
            tune(ds, 3, [0.0, 0.01], [0.9], SolverConfig(seed=0))

    def test_cells_equal_standalone_fits(self):
        # one start per rho reproduces, bit for bit, the fit that builds
        # its own start from the cell's config
        ds, _ = generate(SyntheticSpec(node_count=12, q=3, n_subjects=20,
                                       sigma=0.5, seed=11))
        cfg = SolverConfig(seed=3, max_iter=40)
        result = tune(ds, 3, [0.0, 0.01], [0.8, 0.9], cfg)
        assert len(result.grid) == 4
        for cell in result.grid:
            assert cell.error is None
            model = fit(whiten(ds, 3), 3, replace(cfg, phi=cell.phi,
                                                  rho=cell.rho))
            assert cell.bic == bic(ds, model)
            assert cell.iterations == model.iterations
            assert cell.ranks == tuple(model.ranks)

    def test_lockstep_cells_equal_standalone_fits_byte_for_byte(
            self, monkeypatch):
        # the benchmark's shape and grid: V=50, sigma=3, 5 phi x 2 rho.
        # Every cell fitted in lockstep is, byte for byte, the fit of that
        # cell alone from the same start, and the start is initialize's.
        import locus.modelsel as modelsel
        real_fit_cells = modelsel._fit_cells
        batches = []

        def recording_fit_cells(whitened, cells):
            models = real_fit_cells(whitened, cells)
            batches.append((whitened, cells, models))
            return models

        monkeypatch.setattr(modelsel, "_fit_cells", recording_fit_cells)
        for seed in (1, 2, 3):
            ds, _ = generate(SyntheticSpec(
                node_count=50, q=3, n_subjects=100, sigma=3.0, seed=seed,
                loading_dist=lambda rng, size: (
                    rng.uniform(1.5, 6.0, size=size)
                    * rng.choice([-1.0, 1.0], size=size))))
            tune(ds, 3, [0.0, 0.01, 0.02, 0.04, 0.08], [0.8, 0.9],
                 SolverConfig(phi=0.04, rho=0.9, seed=seed))
        assert len(batches) == 3
        for whitened, cells, models in batches:
            assert len(cells) == 10
            for (cfg, start), model in zip(cells, models):
                fresh = initialize(whitened, 3, cfg)
                assert start.a_tilde.tobytes() == fresh.a_tilde.tobytes()
                assert (start.source_matrix().tobytes()
                        == fresh.source_matrix().tobytes())
                alone = fit(whitened, 3, cfg)
                assert model.iterations == alone.iterations
                assert model.converged == alone.converged
                for got, want in zip(model.sources, alone.sources):
                    assert got.x.tobytes() == want.x.tobytes()
                    assert got.d.tobytes() == want.d.tobytes()
                for name in ("a_tilde", "a", "objective_trace"):
                    assert (getattr(model, name).tobytes()
                            == getattr(alone, name).tobytes()), name

    def test_failed_mixing_update_fails_only_its_cell(self, monkeypatch):
        ds, _ = generate(SyntheticSpec(node_count=14, q=3, n_subjects=24,
                                       sigma=0.5, seed=14))
        cfg = SolverConfig(seed=0, max_iter=60)
        grid = ([0.0, 0.01, 0.02], [0.8, 0.9])
        clean = tune(ds, 3, *grid, cfg)
        import locus.solver as solver
        real_mixing = solver.update_mixing
        stacks = []

        def flaky_mixing(whitened, s):
            # iteration 1 stacks the cells' rows in grid order, so the
            # third cell's, (0.01, 0.8), are stacks[0][2]; every update
            # that holds them fails, and the cells are then updated one
            # by one
            stacks.append(s)
            if any(np.array_equal(rows, stacks[0][2]) for rows in s):
                raise DegeneracyError("singular_sources", "synthetic failure")
            return real_mixing(whitened, s)

        monkeypatch.setattr(solver, "update_mixing", flaky_mixing)
        injected = tune(ds, 3, *grid, cfg)
        assert all(cell.error is None for cell in clean.grid)
        for k, (want, got) in enumerate(zip(clean.grid, injected.grid)):
            if k == 2:
                assert (got.phi, got.rho) == (0.01, 0.8)
                assert math.isnan(got.bic)
                assert got.error == ("DegeneracyError: [singular_sources] "
                                     "synthetic failure")
            else:
                assert repr(got) == repr(want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_sweep_fails_only_its_cell(self, monkeypatch):
        # the first sweep call overflows the first cell's node rows (its
        # three sources lead the batch); the batch has widest rank >= 3,
        # where eigh of a NaN Gram raises
        ds, _ = generate(SyntheticSpec(node_count=14, q=3, n_subjects=24,
                                       sigma=0.5, seed=14))
        cfg = SolverConfig(seed=0, max_iter=60)
        grid = ([0.0, 0.01], [0.95, 0.99])
        clean = tune(ds, 3, *grid, cfg)
        import locus.solver as solver
        real_sweep = solver.sweep_nodes
        widths = []

        def overflowing_sweep(factors, targets, shrink=0.0):
            if not widths:
                widths.append(max(x.shape[1] for x, _ in factors))
                targets = targets.copy()
                targets[:3] *= 1e300
            return real_sweep(factors, targets, shrink)

        monkeypatch.setattr(solver, "sweep_nodes", overflowing_sweep)
        injected = tune(ds, 3, *grid, cfg)
        assert widths[0] >= 3
        assert all(cell.error is None for cell in clean.grid)
        for k, (want, got) in enumerate(zip(clean.grid, injected.grid)):
            if k == 0:
                assert got.error == ("NumericError: [non_finite] node update "
                                     "overflowed at iteration 1")
            else:
                assert repr(got) == repr(want)

    def test_one_eigendecomposition_per_source_per_tune(self, monkeypatch):
        # every rho truncates the same decomposition of each FastICA source
        import locus.modelsel as modelsel
        ds, _ = generate(SyntheticSpec(node_count=12, q=3, n_subjects=20,
                                       sigma=0.5, seed=12))
        decomposed = []
        real_top_eigen = modelsel._top_eigen

        def counting(m, keep):
            # one entry per matrix of a (..., V, V) stack
            decomposed.extend([keep] * (m.size // m.shape[-1] ** 2))
            return real_top_eigen(m, keep)

        monkeypatch.setattr(modelsel, "_top_eigen", counting)
        skipped = DegeneracyError("zero_source", "not fitted")
        monkeypatch.setattr(modelsel, "_fit_cells",
                            lambda whitened, cells: [skipped] * len(cells))
        with pytest.raises(DegeneracyError, match="all_cells_failed"):
            tune(ds, 3, [0.0], [0.7, 0.8, 0.9], SolverConfig(seed=0, r_max=4))
        assert decomposed == [8, 8, 8]

    def test_one_baseline_call_per_tune(self, monkeypatch):
        # FastICA reads neither phi nor rho: a failing FastICA is called
        # once, and every rho truncates the one seeded random start
        ds, _ = generate(SyntheticSpec(node_count=12, q=3, n_subjects=20,
                                       sigma=0.5, seed=12))
        calls = {"n": 0}

        def broken(*args, **kwargs):
            calls["n"] += 1
            raise DegeneracyError("singular_unmixing", "no convergence")

        import locus.baselines
        monkeypatch.setattr(locus.baselines, "fastica", broken)
        result = tune(ds, 3, [0.0, 0.01], [0.8, 0.9],
                      SolverConfig(seed=0, max_iter=40))
        assert calls["n"] == 1
        assert all(cell.error is None for cell in result.grid)

    def test_failed_start_fails_only_its_rho(self, monkeypatch):
        ds, _ = generate(SyntheticSpec(node_count=12, q=3, n_subjects=20,
                                       sigma=0.5, seed=12))
        import locus.modelsel as modelsel
        real_truncate = modelsel._truncated_start
        built = []

        def flaky_truncate(whitened, a_tilde, eigvals, eigvecs, norm2, config):
            built.append(config.rho)
            if config.rho == 0.8:
                raise DegeneracyError("zero_source", "synthetic start failure")
            return real_truncate(whitened, a_tilde, eigvals, eigvecs, norm2,
                                 config)

        monkeypatch.setattr(modelsel, "_truncated_start", flaky_truncate)
        result = tune(ds, 3, [0.0, 0.01], [0.8, 0.9],
                      SolverConfig(seed=0, max_iter=40))
        assert sorted(built) == [0.8, 0.9]
        for cell in result.grid:
            if cell.rho == 0.8:
                assert math.isnan(cell.bic)
                assert cell.error == ("DegeneracyError: [zero_source] "
                                      "synthetic start failure")
            else:
                assert cell.error is None
        assert result.best[1] == 0.9
        with pytest.raises(ValidationError):
            tune(ds, 3, [0.0], [1.5], SolverConfig(seed=0, max_iter=40))

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_bad_grid_value_rejected_before_any_fit(self, monkeypatch, phi):
        import locus.modelsel as modelsel
        ds, _ = generate(SyntheticSpec(node_count=14, q=3, n_subjects=24,
                                       sigma=0.5, seed=6))
        fits = []
        monkeypatch.setattr(modelsel, "_fit_cells",
                            lambda *args, **kwargs: fits.append(args))
        with pytest.raises(ValidationError, match="bad_config"):
            tune(ds, 3, [0.0, phi], [0.9], SolverConfig(seed=0, max_iter=40))
        assert fits == []
