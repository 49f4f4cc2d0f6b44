"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Benchmark criteria run the block-shapes scenario at V=50, q=3, N=100 with
the noise ladder sigma^2 in {1, 9, 36}.  Loading magnitudes are drawn
uniform from [1.5, 6] (3x the generator default): the scenario's loading
scale is a free calibration, and this one keeps the top noise level hard
but recoverable (with the default scale, sigma^2=36 drowns the signal
subspace below the leading noise eigenvalue of the Gram matrix and no
method can recover anything there).

Solver settings frozen from calibration pilots: phi=0.04, rho=0.90 for the
edge-wise penalty; nuclear weight 0.5 and vector-L1 weight 0.005 are those
variants' best-performing settings at the high noise level, so the
comparisons run against the competitors at their strongest.
"""

import contextlib
import os
import time

import numpy as np
import pytest

import locus
from locus.baselines import fastica
from locus.cli import main as cli_main
from locus.connmat import unvectorize, vectorize
from locus.evaluate import match_sources, reliability_report
from locus.modelsel import tune
from locus.preprocess import whiten
from locus.solver import (LocusModel, SolverConfig, data_domain_objective,
                          fit, objective, soft_threshold)
from locus.synth import SyntheticSpec, generate

pytestmark = pytest.mark.acceptance

V, Q, N = 50, 3, 100
PHI, RHO = 0.04, 0.90
NUCLEAR_WEIGHT = 0.5
VECTOR_WEIGHT = 0.005


def benchmark_loadings(rng, size):
    return rng.uniform(1.5, 6.0, size=size) * rng.choice([-1.0, 1.0], size=size)


def scenario(sigma, seed, loading=benchmark_loadings):
    return generate(SyntheticSpec(node_count=V, q=Q, n_subjects=N,
                                  sigma=sigma, seed=seed,
                                  loading_dist=loading))


def locus_config(seed, phi=PHI, rho=RHO, regularizer="uniform_l1"):
    return SolverConfig(phi=phi, rho=rho, seed=seed, regularizer=regularizer,
                        max_iter=1000, eps1=1e-4, eps2=1e-4)


@contextlib.contextmanager
def criterion(number, budget_s, description):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"\n[PASS] criterion {number}: {description} ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def mean_matched_corr(truth_sources, est_sources):
    return float(match_sources(truth_sources, est_sources).per_source_corr.mean())


@pytest.fixture(scope="module")
def sigma6_runs():
    """50 replicate runs at the high noise level, shared by criteria 6/7."""
    runs = []
    for seed in range(50):
        ds, gt = scenario(6.0, seed)
        w = whiten(ds, Q)
        model = fit(w, Q, locus_config(seed))
        ica = fastica(w, Q, seed=seed)
        runs.append((gt, model.source_matrix(), ica.sources))
    return runs


def test_criterion_01_soft_threshold_oracle():
    with criterion(1, 1.0, "soft threshold matches the numeric per-coordinate "
                           "minimizer on 1000 random instances to 1e-8"):
        rng = np.random.default_rng(101)
        n_cases, width = 1000, 5
        y = rng.uniform(-10, 10, size=(n_cases, width))
        t = rng.uniform(0, 5, size=(n_cases, 1))

        # numeric oracle: vectorized bisection for the zero of the monotone
        # subgradient 2(b - y) + 2 t sign(b)
        lo = np.full_like(y, -30.0)
        hi = np.full_like(y, 30.0)
        for _ in range(120):
            mid = (lo + hi) / 2.0
            below = 2.0 * (mid - y) + 2.0 * t * np.sign(mid) <= 0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        oracle = (lo + hi) / 2.0

        ours = np.vstack([soft_threshold(y[i], float(t[i, 0]))
                          for i in range(n_cases)])
        assert np.max(np.abs(ours - oracle)) < 1e-8


def test_criterion_02_objective_domain_equivalence():
    with criterion(2, 5.0, "data-domain and source-domain objectives agree "
                           "to 1e-8 relative on 100 random instances with "
                           "orthogonal mixing"):
        from locus.preprocess import WhitenedData
        from locus.solver import LowRankSource, _polar_orthogonalize
        rng = np.random.default_rng(102)
        for _ in range(100):
            q = int(rng.integers(2, 5))
            nodes = int(rng.integers(6, 14))
            p = nodes * (nodes - 1) // 2
            sources = []
            for _ in range(q):
                r = int(rng.integers(1, 4))
                sources.append(LowRankSource(rng.standard_normal((nodes, r)),
                                             rng.standard_normal(r)))
            a = _polar_orthogonalize(rng.standard_normal((q, q)))
            w = WhitenedData(y_tilde=rng.standard_normal((q, p)),
                             h=np.zeros((q, 4)), col_means=np.zeros(p),
                             sigma2_resid=0.0,
                             eigvals_top=np.arange(q, 0, -1).astype(float),
                             data=np.zeros((4, p)))
            model = LocusModel(sources=sources, a_tilde=a)
            phi = float(rng.uniform(0, 2))
            lhs = data_domain_objective(w, model, phi)
            rhs = objective(w, model, phi)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_criterion_03_whitening_diagonal():
    with criterion(3, 1.0, "whitening gives a diagonal Gram with entries "
                           "l_k/(l_k - s2) on random N=20, p=190 data"):
        rng = np.random.default_rng(103)
        from locus.connmat import ConnectivityDataset
        ds = ConnectivityDataset(data=rng.standard_normal((20, 190)),
                                 node_count=20)
        q = 5
        w = whiten(ds, q)
        yc = ds.data - ds.data.mean(axis=0)
        lam = np.sort(np.linalg.eigvalsh(yc @ yc.T))[::-1]
        sigma2 = lam[q:].mean()
        got = w.h @ yc @ yc.T @ w.h.T
        expected = np.diag(lam[:q] / (lam[:q] - sigma2))
        assert np.allclose(got, expected, rtol=1e-8, atol=1e-8)


def test_criterion_04_block_multiconvexity():
    with criterion(4, 10.0, "numeric Hessians of the node blocks' smooth "
                            "objective are PSD on 50 random configurations"):
        rng = np.random.default_rng(104)
        for _ in range(50):
            n = int(rng.integers(3, 8))
            nodes = int(rng.integers(6, 12))
            rank = int(rng.integers(1, 4))
            x = rng.standard_normal((nodes, rank))
            d = rng.standard_normal(rank)
            loadings = rng.standard_normal(n)
            rest = rng.standard_normal((n, nodes - 1))
            v = int(rng.integers(nodes))
            x_minus = np.delete(x, v, axis=0)

            def smooth(row):
                pred = x_minus @ (d * row)
                return float(np.sum((rest - np.outer(loadings, pred)) ** 2))

            h = 1e-3
            x0 = rng.standard_normal(rank)
            f0 = smooth(x0)
            hess = np.zeros((rank, rank))
            for i in range(rank):
                for j in range(rank):
                    ei, ej = np.zeros(rank), np.zeros(rank)
                    ei[i], ej[j] = h, h
                    hess[i, j] = (smooth(x0 + ei + ej) - smooth(x0 + ei)
                                  - smooth(x0 + ej) + f0) / h ** 2
            eigs = np.linalg.eigvalsh((hess + hess.T) / 2.0)
            assert eigs.min() >= -1e-8
            analytic = 2.0 * float(loadings @ loadings) * (
                np.diag(d) @ x_minus.T @ x_minus @ np.diag(d))
            assert np.allclose(hess, analytic,
                               atol=1e-6 * max(1.0, float(np.abs(analytic).max())))


def test_criterion_05_noise_free_exact_recovery():
    with criterion(5, 120.0, "noise-free blocks scenario recovered with "
                             "source and loading correlations >= 0.999"):
        ds, gt = generate(SyntheticSpec(node_count=V, q=Q, n_subjects=N,
                                        sigma=0.0, seed=1))
        w = whiten(ds, Q)
        model = fit(w, Q, locus_config(0, phi=0.005))
        match = match_sources(gt.sources, model.source_matrix(),
                              gt.loadings, model.a)
        assert np.all(match.per_source_corr >= 0.999)
        assert np.all(match.loading_corr >= 0.999)


@pytest.mark.slow
def test_criterion_06_benchmark_beats_baselines(sigma6_runs):
    with criterion(6, 1800.0, "mean matched-source correlation beats FastICA "
                              "at every noise level and both penalty variants "
                              "at the high level (20 replicates)"):
        reps = 20
        for sigma in (1.0, 3.0):
            ours, theirs = [], []
            for seed in range(reps):
                ds, gt = scenario(sigma, seed)
                w = whiten(ds, Q)
                model = fit(w, Q, locus_config(seed))
                ica = fastica(w, Q, seed=seed)
                ours.append(mean_matched_corr(gt.sources, model.source_matrix()))
                theirs.append(mean_matched_corr(gt.sources, ica.sources))
            assert np.mean(ours) > np.mean(theirs), f"sigma={sigma}"
            print(f"  sigma^2={sigma ** 2:4.0f}: ours={np.mean(ours):.4f} "
                  f"fastica={np.mean(theirs):.4f}")

        ours, theirs = [], []
        variant_means = {"vector_l1": [], "nuclear": []}
        for seed in range(reps):
            gt, locus_sources, ica_sources = sigma6_runs[seed]
            ours.append(mean_matched_corr(gt.sources, locus_sources))
            theirs.append(mean_matched_corr(gt.sources, ica_sources))
        for seed in range(reps):
            ds, gt = scenario(6.0, seed)
            w = whiten(ds, Q)
            for reg, weight in (("vector_l1", VECTOR_WEIGHT),
                                ("nuclear", NUCLEAR_WEIGHT)):
                model = fit(w, Q, locus_config(seed, phi=weight, regularizer=reg))
                variant_means[reg].append(
                    mean_matched_corr(gt.sources, model.source_matrix()))
        print(f"  sigma^2=  36: ours={np.mean(ours):.4f} "
              f"fastica={np.mean(theirs):.4f} "
              f"vector={np.mean(variant_means['vector_l1']):.4f} "
              f"nuclear={np.mean(variant_means['nuclear']):.4f}")
        assert np.mean(ours) > np.mean(theirs)
        assert np.mean(ours) > np.mean(variant_means["vector_l1"])
        assert np.mean(ours) > np.mean(variant_means["nuclear"])


@pytest.mark.slow
def test_criterion_07_reliability_anchor(sigma6_runs):
    with criterion(7, 2700.0, "high-noise Pearson reliability >= 0.85 and "
                              "at least 0.10 above FastICA (B=50)"):
        truth = sigma6_runs[0][0].sources
        ours = reliability_report(truth, [r[1] for r in sigma6_runs], "pearson")
        ica = reliability_report(truth, [r[2] for r in sigma6_runs], "pearson")
        ri_ours = float(ours.per_source_ri.mean())
        ri_ica = float(ica.per_source_ri.mean())
        print(f"  RI ours={ri_ours:.3f} fastica={ri_ica:.3f}")
        assert ri_ours >= 0.85
        assert ri_ours - ri_ica >= 0.10


@pytest.mark.slow
def test_criterion_08_convergence_behavior():
    with criterion(8, 1800.0, "at sigma^2=1, >=95% of 100 runs meet the "
                              "1e-4 stopping rule within 1000 iterations and "
                              "the objective decreases in every run"):
        converged = 0
        for seed in range(100):
            ds, _ = scenario(1.0, seed)
            w = whiten(ds, Q)
            model = fit(w, Q, locus_config(seed))
            converged += int(model.converged)
            assert model.objective_trace[-1] < model.objective_trace[0]
        print(f"  converged {converged}/100")
        assert converged >= 95


def test_criterion_09_round_trip_and_determinism(tmp_path):
    with criterion(9, 60.0, "vectorization round trips bit-exactly and "
                            "fixed-seed end-to-end reruns are byte-identical"):
        rng = np.random.default_rng(109)
        for _ in range(100):
            s = rng.standard_normal(1225)
            assert np.array_equal(vectorize(unvectorize(s, 50)), s)

        def pipeline(root):
            sim = os.path.join(root, "sim")
            fitd = os.path.join(root, "fit")
            ev = os.path.join(root, "eval")
            assert cli_main(["simulate", "--scenario", "I", "--V", "16",
                             "--q", "3", "--N", "24", "--sigma", "1.0",
                             "--seed", "11", "--out", sim]) == 0
            assert cli_main(["decompose", os.path.join(sim, "dataset.csv"),
                             "--method", "locus", "--q", "3", "--phi", "0.01",
                             "--rho", "0.9", "--seed", "4", "--max-iter", "120",
                             "--out", fitd]) == 0
            assert cli_main(["evaluate", fitd, "--truth",
                             os.path.join(sim, "truth"), "--out", ev]) == 0
            blobs = {}
            for base, _, files in os.walk(root):
                for name in files:
                    if name == "manifest":  # timestamp line, documented
                        continue
                    full = os.path.join(base, name)
                    with open(full, "rb") as fh:
                        blobs[os.path.relpath(full, root)] = fh.read()
            return blobs

        run1 = pipeline(str(tmp_path / "r1"))
        run2 = pipeline(str(tmp_path / "r2"))
        assert run1.keys() == run2.keys()
        for key in run1:
            assert run1[key] == run2[key], f"{key} differs between reruns"


@pytest.mark.slow
def test_criterion_10_bic_selection_sanity():
    with criterion(10, 1800.0, "BIC-chosen phi at sigma^2=9 matches or beats "
                               "the phi=0 cell in >=80% of 20 runs"):
        phis = [0.0, 0.01, 0.02, 0.04, 0.08]
        wins = 0
        for seed in range(20):
            ds, gt = scenario(3.0, seed)
            w = whiten(ds, Q)
            result = tune(ds, Q, phis, [RHO], SolverConfig(seed=seed))
            corr = {}
            for phi in (0.0, result.best[0]):
                model = fit(w, Q, locus_config(seed, phi=phi))
                corr[phi] = mean_matched_corr(gt.sources, model.source_matrix())
            wins += int(corr[result.best[0]] >= corr[0.0])
        print(f"  BIC pick at least as good in {wins}/20 runs")
        assert wins >= 16
