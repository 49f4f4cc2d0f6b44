import dataclasses
import itertools
import logging
import re
import warnings

import numpy as np
import pytest

import locus
import locus.modelsel as modelsel
import locus.solver as solver
from locus.connmat import (ConnectivityDataset, triu_indices, unvectorize,
                           vectorize)
from locus.errors import (DegeneracyError, DimensionError, NumericError,
                          ValidationError)
from locus.modelsel import RankCapWarning
from locus.preprocess import WhitenedData, unmix_to_subject_space, whiten
from locus.solver import (PINV_RTOL, PRUNE_RTOL, REGULARIZERS,
                          DegenerateSourceWarning, LocusModel, LowRankSource,
                          SolverConfig, _polar_orthogonalize,
                          data_domain_objective, fit, initialize,
                          load_decomposition, objective, save_model,
                          soft_threshold, sweep_nodes, update_d, update_mixing)
from locus.synth import SyntheticSpec, _default_loadings, generate


def subgradient_bisect(g, lo, hi, iters=200):
    """Root of a monotone-increasing subgradient by bisection; localizes a
    convex minimizer far below the sqrt(eps) limit of value comparisons."""
    glo, ghi = g(lo), g(hi)
    assert glo <= 0 <= ghi
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def random_source(rng, node_count, rank):
    return LowRankSource(rng.standard_normal((node_count, rank)),
                         rng.standard_normal(rank) + np.sign(rng.standard_normal(rank)))


def z_columns(x):
    """(p, R) matrix whose r-th column is the edge vector of x_r x_r'."""
    r, c = triu_indices(x.shape[0])
    return x[r] * x[c]


def random_orthogonal(rng, q):
    return _polar_orthogonalize(rng.standard_normal((q, q)))


def make_cell(config, sources, targets, bases=()):
    """A solver._Cell of ``sources`` against the (q, p) ``targets``, with
    the warm ``bases`` (None: no basis); its mixing, rows and trace are
    placeholders that a step does not read."""
    q, node_count = len(sources), sources[0].node_count
    k = modelsel._basis_width(config, node_count)
    cell = solver._Cell(config, list(sources), np.eye(q),
                        np.asarray(targets, dtype=float), rows=None, trace=[],
                        warned=set(), basis=np.zeros((q, node_count, k)),
                        ready=np.zeros(q, dtype=bool))
    for ell, basis in enumerate(bases):
        if basis is not None:
            cell.basis[ell], cell.ready[ell] = basis, True
    return cell


def make_whitened(rng, q, node_count):
    """Whitened-shaped container with directly controlled reduced data."""
    p = node_count * (node_count - 1) // 2
    y_tilde = rng.standard_normal((q, p))
    return WhitenedData(y_tilde=y_tilde, h=np.zeros((q, 4)),
                        col_means=np.zeros(p), sigma2_resid=0.0,
                        eigvals_top=np.arange(q, 0, -1).astype(float),
                        data=np.zeros((4, p)))


class TestSoftThreshold:
    def test_componentwise_definition(self):
        out = soft_threshold(np.array([3.0, -1.0, 0.2]), 1.0)
        assert out.tolist() == [2.0, 0.0, 0.0]

    def test_zero_threshold_is_identity(self):
        y = np.array([0.5, -2.0, 0.0])
        assert np.array_equal(soft_threshold(y, 0.0), y)

    def test_matches_numeric_minimizer_of_penalized_square(self):
        # independent 1-D oracle: the minimizer of (y-b)^2 + 2 t |b| is the
        # zero crossing of the monotone subgradient 2(b-y) + 2 t sign(b);
        # bisection finds it without the shrinkage formula
        rng = np.random.default_rng(42)
        for _ in range(200):
            y = rng.uniform(-5, 5)
            t = rng.uniform(0, 3)
            b_star = subgradient_bisect(
                lambda b: 2.0 * (b - y) + 2.0 * t * np.sign(b), -10.0, 10.0)
            assert abs(soft_threshold(np.array([y]), t)[0] - b_star) < 1e-8

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            soft_threshold(np.array([1.0]), -0.5)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValidationError, match="bad_threshold"):
            soft_threshold(np.array([1.0]), np.nan)


class TestSolverConfig:
    @pytest.mark.parametrize("field, value", [
        ("phi", np.nan), ("phi", np.inf), ("eps1", np.nan), ("eps2", np.nan),
        ("seed", -1)])
    def test_nan_infinite_or_negative_setting_rejected(self, field, value):
        with pytest.raises(ValidationError, match="bad_config"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("max_iter", 2.5), ("r_max", 2.5), ("seed", 1.5), ("max_iter", 3.0),
        ("r_max", np.float64(4.0)), ("seed", "1")])
    def test_non_integral_count_rejected(self, field, value):
        # a fractional max_iter never meets the stop test it == max_iter,
        # and a fractional r_max or seed fails inside numpy
        with pytest.raises(ValidationError,
                           match=f"bad_config.*{field} must be an integer"):
            SolverConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        config = SolverConfig(max_iter=np.int64(5), r_max=np.int32(3),
                              seed=np.uint8(2))
        assert (config.max_iter, config.r_max, config.seed) == (5, 3, 2)


def node_objective(x, d, v, y_proj, phi, row):
    """Eq-style node subproblem value at a candidate row."""
    x_minus = np.delete(x, v, axis=0)
    pred = x_minus @ (d * row)
    return float(np.sum((y_proj - pred) ** 2) + phi * np.sum(np.abs(pred)))


def visit_node(src, v, bhat):
    """Node v's new row from a :func:`sweep_nodes` visit of node v against
    the other rows of ``src``, with the V-1 edge values ``bhat`` at node v
    (ordered by the other endpoint): the sweep of a relabelled copy in
    which node v comes first, so that it visits node v before any other."""
    order = [v] + [u for u in range(src.node_count) if u != v]
    targets = np.zeros((1, src.node_count, src.node_count))
    targets[0, 0, 1:] = bhat
    return sweep_nodes([(src.x[order], src.d)], targets)[0][0]


class TestUpdateNode:
    """The uniform-L1 node step: threshold node v's edge values at phi/2,
    then project them onto the span of the other nodes' coordinates."""

    def test_phi_zero_is_exact_least_squares(self):
        rng = np.random.default_rng(0)
        src = random_source(rng, 8, 3)
        y_proj = rng.standard_normal(7)
        row = visit_node(src, 2, y_proj)
        design = np.delete(src.x, 2, axis=0) * src.d
        expected, *_ = np.linalg.lstsq(design, y_proj, rcond=None)
        assert np.allclose(row, expected, atol=1e-10)

    def test_full_shrinkage_gives_zero_row(self):
        rng = np.random.default_rng(1)
        src = random_source(rng, 6, 2)
        y_proj = rng.standard_normal(5)
        phi = 2.0 * np.max(np.abs(y_proj)) + 0.1
        assert not visit_node(src, 0, soft_threshold(y_proj, phi / 2.0)).any()

    def test_beats_random_candidates_on_node_subproblem(self):
        # random-search oracle for the penalized projection problem; the
        # two-stage step is a heuristic, near-optimal in the operating
        # regime where the threshold is small against the signal scale
        rng = np.random.default_rng(2)
        src = random_source(rng, 10, 2)
        v = 4
        y_proj = rng.standard_normal(9)
        phi = 0.2
        row = visit_node(src, v, soft_threshold(y_proj, phi / 2.0))
        ours = node_objective(src.x, src.d, v, y_proj, phi, row)
        scale = np.linalg.norm(row) + 1.0
        cands = rng.standard_normal((10_000, 2)) * scale
        values = [node_objective(src.x, src.d, v, y_proj, phi, c) for c in cands]
        assert ours <= min(values) + 1e-12

    def test_wrong_projection_length_rejected(self):
        rng = np.random.default_rng(3)
        src = random_source(rng, 6, 2)
        with pytest.raises(DimensionError):
            sweep_nodes([(src.x, src.d)], np.zeros((1, 6, 7)))


def reference_sweep(x, d, y_edges, variant, t):
    """Textbook node-by-node sweep for one source: for each node v in turn,
    D^(-1) (X(-v)' X(-v))^+ X(-v)' bhat with an explicit row delete, the
    pseudo-inverse when s_min <= PINV_RTOL * s_max (2-norm), and zero
    coordinates for weights below PRUNE_RTOL * max|d|.  Uniform-L1
    thresholds the node's edge values first, vector-L1 the new row after,
    nuclear neither.  Returns the new x and the number of pinv solves."""
    x = np.array(x, dtype=float)
    pinv_solves = 0
    node_count = x.shape[0]
    m = unvectorize(y_edges, node_count)
    keep = np.abs(d) > PRUNE_RTOL * np.max(np.abs(d))
    for v in range(node_count):
        bhat = np.delete(m[v], v)
        if variant == "uniform_l1":
            bhat = soft_threshold(bhat, t)
        x_minus = np.delete(x, v, axis=0)
        gram = x_minus.T @ x_minus
        svals = np.linalg.svd(gram, compute_uv=False)
        if svals[-1] <= PINV_RTOL * svals[0]:
            pinv_solves += 1
            coef = np.linalg.pinv(gram, rcond=PINV_RTOL) @ (x_minus.T @ bhat)
        else:
            coef = np.linalg.solve(gram, x_minus.T @ bhat)
        row = np.zeros_like(coef)
        row[keep] = coef[keep] / d[keep]
        if variant == "vector_l1":
            row = soft_threshold(row, t)
        x[v] = row
    return x, pinv_solves


SWEEP_LOG = re.compile(r"(\d+) certified solves, (\d+) exact solves "
                       r"\((\d+) pseudo-inverse")


def sweep_counts(caplog):
    """(certified, exact, pinv solves) of the last logged sweep."""
    found = [SWEEP_LOG.search(rec.getMessage()) for rec in caplog.records]
    return tuple(int(n) for n in [m for m in found if m][-1].groups())


def check_against_reference(caplog, factors, y, t=0.3):
    """Sweep every variant and compare with
    :func:`reference_sweep` at 1e-10; returns the reference's pinv solves
    and the logged counts."""
    node_count = factors[0][0].shape[0]
    results = []
    for variant in ("uniform_l1", "vector_l1", "nuclear"):
        expected, pinv_solves = zip(*[
            reference_sweep(x, d, y[ell], variant, t)
            for ell, (x, d) in enumerate(factors)])
        edges = soft_threshold(y, t) if variant == "uniform_l1" else y
        targets = np.stack([unvectorize(row, node_count) for row in edges])
        with caplog.at_level(logging.DEBUG, logger="locus.solver"):
            got = sweep_nodes(factors, targets,
                              t if variant == "vector_l1" else 0.0)
        for ell, (g, e) in enumerate(zip(got, expected)):
            assert g.shape == factors[ell][0].shape
            scale = max(1.0, float(np.max(np.abs(e))))
            assert np.max(np.abs(g - e)) <= 1e-10 * scale, (variant, ell)
        results.append((variant, got, pinv_solves, sweep_counts(caplog)))
    return results


class TestSweepNodes:
    def test_batched_sweep_matches_node_by_node_reference(self, caplog):
        rng = np.random.default_rng(40)
        node_count = 12
        p = node_count * (node_count - 1) // 2
        # mixed ranks; a duplicated column (equal weights keep it duplicated
        # through the sweep) makes every Gram rank deficient; a near-zero
        # weight is pruned from the projection
        plain = rng.standard_normal((node_count, 3))
        dup = rng.standard_normal((node_count, 3))
        dup[:, 2] = dup[:, 1]
        factors = [
            (rng.standard_normal((node_count, 1)), np.array([1.7])),
            (plain, np.array([2.0, -1.3, 0.8])),
            (dup, np.array([1.1, 0.9, 0.9])),
            (rng.standard_normal((node_count, 4)),
             np.array([1.5, 1e-13, -2.2, 0.7])),
        ]
        y = rng.standard_normal((len(factors), p))
        for variant, got, pinv_solves, counts in check_against_reference(
                caplog, factors, y):
            # every node of the duplicated source, and the last node of the
            # pruned one, whose dead column is all zero by then
            assert pinv_solves == (0, 0, node_count, 1)
            # the other sources certify every node after the first, beside
            # the duplicated one's exact solves: a node of mixed paths
            # counts once on each side
            assert counts == (node_count - 1, node_count, node_count + 1), variant
            assert not got[3][:, 1].any()  # pruned weight's coordinates

    def test_well_conditioned_sweep_certifies_every_later_node(self, caplog):
        rng = np.random.default_rng(42)
        node_count = 40
        p = node_count * (node_count - 1) // 2
        factors = [(np.linalg.qr(rng.standard_normal((node_count, rank)))[0],
                    rng.uniform(1.0, 2.0, rank) * rng.choice([-1.0, 1.0], rank))
                   for rank in (10, 4, 10)]
        y = rng.standard_normal((len(factors), p))
        for variant, _, pinv_solves, counts in check_against_reference(
                caplog, factors, y):
            assert pinv_solves == (0, 0, 0)
            # the first node is solved exactly and restarts the tracking
            assert counts == (node_count - 1, 1, 0), variant

    def test_ill_conditioned_node_after_certified_one_is_exact(self, caplog):
        # the last column sits on node 0 plus a 3e-5 spread over nodes 3..,
        # orthogonal there to the other columns, and its weight is pruned,
        # so visited nodes zero their entry: nodes 1 and 2 are well
        # conditioned, while cond(X(-0)' X(-0)) ~ 1e9 when node 0 comes
        # third, beyond the certificate (1e8) and inside the PINV_RTOL
        # rule (1e10)
        rng = np.random.default_rng(43)
        node_count = 12
        p = node_count * (node_count - 1) // 2
        x = np.zeros((node_count, 3))
        x[:, :2] = np.linalg.qr(rng.standard_normal((node_count, 2)))[0]
        x[3:, 2] = np.linalg.qr(np.column_stack(
            [x[3:, :2], rng.standard_normal(node_count - 3)]))[0][:, 2] * 3e-5
        x[0, 2] = 1.0
        # relabel nodes 1, 2, 0 as 0, 1, 2, so that node 0 comes third
        x = x[[1, 2, 0, *range(3, node_count)]]
        factors = [(x, np.array([1.5, -1.2, 1e-13]))]
        y = rng.standard_normal((1, p))
        for variant, got, pinv_solves, counts in check_against_reference(
                caplog, factors, y):
            # the third node's Gram: the swept rows before it, the given
            # ones after
            rest = np.vstack([got[0][:2], x[3:]])
            cond = np.linalg.cond(rest.T @ rest)
            assert 1e-2 / PINV_RTOL < cond < 1.0 / PINV_RTOL
            # the first node exact (restart), the second certified, the
            # third exact without a restart, so the later nodes are exact
            # too, by pseudo-inverse wherever the reference uses one
            assert counts == (1, node_count - 1, pinv_solves[0]), variant

    @pytest.mark.parametrize("change", ["shrinking", "growing"])
    def test_gram_degrading_through_the_sweep_is_not_certified(self, caplog,
                                                              change):
        # the Gram's conditioning degrades node by node until the rule turns
        # to the pseudo-inverse, so the running bounds must stop certifying
        # in time: a pruned weight's column comes back as zero, its Gram
        # entry shrinking geometrically; a tiny weight's column comes back
        # huge (row = coef / d), raising lambda_max
        rng = np.random.default_rng(44)
        node_count = 30
        p = node_count * (node_count - 1) // 2
        x = rng.standard_normal((node_count, 3))
        if change == "shrinking":
            x[:, 2] = 10.0 ** (-np.arange(node_count) / 4.0)
            d = np.array([1.4, -0.8, 1e-13])
        else:
            d = np.array([1.4, 1e-6, 0.9])
        y = rng.standard_normal((1, p))
        for variant, _, pinv_solves, counts in check_against_reference(
                caplog, [(x, d)], y):
            assert pinv_solves[0] > 0
            _, exact, pinv = counts
            assert exact >= pinv == pinv_solves[0], variant

    def test_single_node_visit_leaves_other_rows(self):
        # a visit writes its node's row only: node v's row is the least
        # squares solve against the swept rows before it and the given
        # rows after it
        rng = np.random.default_rng(41)
        src = random_source(rng, 9, 2)
        targets = unvectorize(rng.standard_normal(36), 9)[None]
        (x,) = sweep_nodes([(src.x, src.d)], targets)
        for v in range(9):
            design = np.delete(np.vstack([x[:v], src.x[v:]]), v, axis=0) * src.d
            expected, *_ = np.linalg.lstsq(design, np.delete(targets[0, v], v),
                                           rcond=None)
            assert np.allclose(x[v], expected, atol=1e-10), v

    def test_source_rows_do_not_depend_on_the_batch(self, caplog):
        # a nearly collinear source, cond(X'X) ~ 4e12 > CERT, solved exactly
        # (by pseudo-inverse) at every node, beside well-conditioned ones
        # that certify every node after the first, and a rank-2 source
        # that pads its Gram.  Each source's rows are the same bytes in
        # every batch of widest rank 3 that holds it, in any order.  A
        # batch-wide certificate would send the others down the exact path
        # beside the collinear source, which rounds differently.
        rng = np.random.default_rng(46)
        node_count = 20
        p = node_count * (node_count - 1) // 2
        near = rng.standard_normal((node_count, 3))
        near[:, 2] = near[:, 1] + 1e-6 * rng.standard_normal(node_count)
        factors = [(near, np.array([1.2, 0.9, 0.9])),
                   (rng.standard_normal((node_count, 2)), np.array([1.5, -0.7])),
                   *[(np.linalg.qr(rng.standard_normal((node_count, 3)))[0],
                      np.array([2.0, -1.1, 0.6])) for _ in range(2)]]
        targets = np.stack([unvectorize(row, node_count)
                            for row in rng.standard_normal((4, p))])
        with caplog.at_level(logging.DEBUG, logger="locus.solver"):
            want = [x.tobytes() for x in sweep_nodes(factors, targets)]
        # every node after the first mixes the two paths
        assert sweep_counts(caplog)[:2] == (node_count - 1, node_count)
        batches = 0
        for size in range(1, 5):
            for batch in itertools.permutations(range(4), size):
                if batch == (1,):
                    continue  # its widest rank is 2
                got = sweep_nodes([factors[ell] for ell in batch],
                                  targets[list(batch)])
                assert [x.tobytes() for x in got] == [want[ell] for ell in batch]
                batches += 1
        assert batches == 63

    def test_failed_cell_leaves_the_batch_to_the_others(self, monkeypatch):
        # a LinAlgError from one cell's eigh fails the batched sweep; the
        # cells are then swept one by one, so only that cell gets it
        rng = np.random.default_rng(48)
        node_count = 10
        p = node_count * (node_count - 1) // 2
        good = [random_source(rng, node_count, 2) for _ in range(2)]
        bad = [LowRankSource(np.full((node_count, 2), np.nan), np.ones(2))]
        mats = np.stack([unvectorize(row, node_count)
                         for row in rng.standard_normal((2, p))])
        real_sweep = solver.sweep_nodes

        def strict_sweep(factors, *args, **kwargs):
            if not all(np.isfinite(x).all() for x, _ in factors):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_sweep(factors, *args, **kwargs)

        monkeypatch.setattr(solver, "sweep_nodes", strict_sweep)
        bad_cell = make_cell(SolverConfig(), bad, np.zeros((1, p)))
        good_cell = make_cell(SolverConfig(), good, np.zeros((2, p)))
        out = solver._by_cell(solver._sweep_cells,
                              [(bad_cell, mats[:1], [0]),
                               (good_cell, mats, [0, 1])], 0.0)
        assert list(out) == [good_cell]
        assert isinstance(bad_cell.error, np.linalg.LinAlgError)
        assert good_cell.error is None
        want = real_sweep([(src.x, src.d) for src in good], mats)
        assert ([x.tobytes() for x in out[good_cell]]
                == [x.tobytes() for x in want])


class TestStep:
    @pytest.mark.filterwarnings("ignore:rank cap")
    def test_cells_of_other_widths_step_apart_and_equal_lone_steps(
            self, monkeypatch):
        # the cells' live sources have widest ranks 1 and 3 (r_max caps
        # them): one sweep per width, and each cell's step is its lone step
        rng = np.random.default_rng(49)
        node_count = 12
        p = node_count * (node_count - 1) // 2
        specs = []
        for r_max, phi in ((1, 0.0), (3, 0.05), (3, 0.01)):
            config = SolverConfig(phi=phi, rho=0.99, r_max=r_max)
            sources = [random_source(rng, node_count, r_max) for _ in range(2)]
            specs.append((config, sources, rng.standard_normal((2, p))))
        sweeps = []
        real_sweep = solver.sweep_nodes

        def counting_sweep(factors, targets, shrink=0.0):
            sweeps.append(len(factors))
            return real_sweep(factors, targets, shrink)

        monkeypatch.setattr(solver, "sweep_nodes", counting_sweep)
        together = [make_cell(*spec) for spec in specs]
        solver._step(together, 1)
        assert sorted(sweeps) == [2, 4]
        for spec, cell in zip(specs, together):
            lone = make_cell(*spec)
            solver._step([lone], 1)
            assert cell.warned == lone.warned
            assert cell.ready.tolist() == lone.ready.tolist()
            for got, exp in zip(cell.sources, lone.sources):
                assert got.x.tobytes() == exp.x.tobytes()
                assert got.d.tobytes() == exp.d.tobytes()


    @pytest.mark.filterwarnings("ignore:rank cap", "ignore::RuntimeWarning")
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_overflow_in_the_sweep_is_one_numeric_error(self, width):
        # targets near the float limit give node rows whose next Gram is
        # not finite; eigh of a NaN Gram raises at width >= 3 and returns
        # NaN below, but the step fails alike at every width
        rng = np.random.default_rng(50 + width)
        node_count = 12
        p = node_count * (node_count - 1) // 2
        config = SolverConfig(rho=0.999999, r_max=width)
        cell = make_cell(config, [random_source(rng, node_count, width)],
                         1e300 * rng.standard_normal((1, p)))
        solver._step([cell], 4)
        err = cell.error
        assert isinstance(err, NumericError)
        assert str(err) == "[non_finite] node update overflowed at iteration 4"


def run_cells(whitened, specs, iterations):
    """Cells started from the (config, start) ``specs`` and run in lockstep
    for ``iterations`` full iterations, a step and an advance each, as
    solver._fit_cells runs them; a cell leaves at its error.  Returns the
    cells and the warnings' messages."""
    cells = [solver._start(whitened, config, start) for config, start in specs]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        for it in range(1, iterations + 1):
            running = [cell for cell in cells if cell.error is None]
            if not running:
                break
            solver._step(running, it)
            solver._advance(whitened, [cell for cell in running
                                       if cell.error is None], it)
    return cells, [str(w.message) for w in caught]


class TestBatchedTail:
    @pytest.mark.filterwarnings("ignore:rank cap")
    def test_mixed_batch_equals_lone_cells_over_three_iterations(
            self, monkeypatch):
        # the batch holds sources of ranks 1, 2 and 3 (a rank-1 source in
        # a wider sweep), all three regularizers, a source re-seeded at
        # iteration 1 and a cell whose mixing update fails at iteration 1;
        # three iterations of the batch leave every cell where three lone
        # iterations leave it, byte for byte
        ds, _ = generate(SyntheticSpec(node_count=14, q=3, n_subjects=30,
                                       sigma=0.5, seed=0))
        w = whiten(ds, 3)
        specs = []
        for regularizer, phi, rho in (("uniform_l1", 0.02, 0.9),
                                      ("vector_l1", 0.01, 0.95),
                                      ("nuclear", 0.1, 0.8),
                                      ("uniform_l1", 0.0, 0.99)):
            config = SolverConfig(phi=phi, rho=rho, r_max=3,
                                  regularizer=regularizer)
            specs.append((config, initialize(w, 3, config)))
        config, start = specs[0]
        # source 2's target thresholds to zero, so it is re-seeded
        specs.append((config, dataclasses.replace(
            start, a_tilde=start.a_tilde * [1.0, 1.0, 1e-3])))
        # sources 0 and 1 are one source, so the mixing update fails
        twin = start.a_tilde.copy()
        twin[:, 1] = twin[:, 0]
        specs.append((config, dataclasses.replace(
            start, sources=[start.sources[0], *start.sources[::2]],
            a_tilde=twin, ready=np.zeros(3, dtype=bool))))

        sweeps = []
        real_sweep = solver.sweep_nodes

        def recording_sweep(factors, *args, **kwargs):
            sweeps.append([x.shape[1] for x, _ in factors])
            return real_sweep(factors, *args, **kwargs)

        monkeypatch.setattr(solver, "sweep_nodes", recording_sweep)
        together, caught = run_cells(w, specs, 3)
        assert {rank for ranks in sweeps for rank in ranks} == {1, 2, 3}
        assert any(min(ranks) == 1 < max(ranks) for ranks in sweeps)
        assert together[4].warned == {2}
        failed = together[5]
        assert isinstance(failed.error, DegeneracyError)
        assert "sources 0 and 1 are linearly dependent" in str(failed.error)
        assert len(failed.trace) == 1
        assert all(cell.error is None for cell in together[:5])

        lone_warnings = []
        for spec, cell in zip(specs, together):
            (lone,), caught_lone = run_cells(w, [spec], 3)
            lone_warnings += caught_lone
            assert type(cell.error) is type(lone.error)
            assert str(cell.error) == str(lone.error)
            assert cell.warned == lone.warned
            assert cell.ready.tobytes() == lone.ready.tobytes()
            assert np.asarray(cell.trace).tobytes() == np.asarray(lone.trace).tobytes()
            for name in ("a_tilde", "targets"):
                assert (getattr(cell, name).tobytes()
                        == getattr(lone, name).tobytes()), name
            for got, want in zip(cell.sources, lone.sources):
                assert got.x.tobytes() == want.x.tobytes()
                assert got.d.tobytes() == want.d.tobytes()
        assert sorted(caught) == sorted(lone_warnings)


def spectrum_target(rng, node_count, eigvals):
    """A symmetric (V, V) target with a zero diagonal, U diag(eigvals) U'
    for a random orthonormal U less its diagonal; exactly symmetric, so it
    survives vectorize and unvectorize bit for bit."""
    u = np.linalg.qr(rng.standard_normal((node_count, len(eigvals))))[0]
    m = (u * eigvals) @ u.T
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return m


def select(cell):
    """modelsel._select_ranks on the one ``cell``: its live indices and the
    counts of warm, exact and changed checks."""
    (live,), counts = modelsel._select_ranks([cell], *solver._target_mats([cell]))
    return live, counts


@pytest.fixture
def exact_calls(monkeypatch):
    """The calls made to the exact rule, modelsel.select_rank."""
    calls = []
    real = modelsel.select_rank

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(modelsel, "select_rank", counting)
    return calls


class TestRankChecks:
    """The warm check may only confirm a rank; everything else goes to the
    exact rule."""

    def test_proposed_change_takes_the_exact_factor(self, exact_calls):
        rng = np.random.default_rng(61)
        m = spectrum_target(rng, 20, [9.0, -6.0, 4.0, 0.5, 0.3])
        config = SolverConfig(rho=0.9, r_max=6)
        k = modelsel._basis_width(config, 20)
        rank, want, basis = modelsel.select_rank(m, 0.9, 6, basis=k)
        assert rank < 6 and basis.shape == (20, k)
        cell = make_cell(config, [random_source(rng, 20, rank + 1)],
                         vectorize(m)[None, :], [basis])
        exact_calls.clear()
        live, counts = select(cell)
        assert counts == (0, 1, 1) and len(exact_calls) == 1
        assert live == [0]
        # the new factor and basis are the exact rule's, not Ritz vectors
        assert cell.sources[0].x.tobytes() == want.x.tobytes()
        assert cell.sources[0].d.tobytes() == want.d.tobytes()
        assert cell.basis[0].tobytes() == basis.tobytes()

    @pytest.mark.parametrize("margin", [None, 0.0])
    def test_thin_margin_takes_the_exact_rule(self, monkeypatch, exact_calls,
                                              margin):
        # the basis is the previous target's; the target moved by 1e-5, so
        # the Ritz residuals are about 1e-5 and the Ritz ratios are good to
        # about 1e-9.  1 - rho lies 1e-6 past the rank-3 ratio: the warm
        # check gets rank 3 right but cannot confirm it, unless the margin
        # is switched off
        if margin is not None:
            monkeypatch.setattr(modelsel, "RITZ_MARGIN", margin)
        rng = np.random.default_rng(62)
        node_count = 20
        m_old = spectrum_target(rng, node_count, [9.0, -6.0, 4.0, 1.0, 0.5])
        noise = rng.standard_normal((node_count, node_count))
        m = m_old + 1e-5 * (noise + noise.T - 2 * np.diag(np.diag(noise)))
        k = modelsel._basis_width(SolverConfig(r_max=6), node_count)
        basis = modelsel.select_rank(m_old, 0.5, 6, basis=k)[2]
        eigvals, eigvecs = modelsel._top_eigen(m, 6)
        ratios = modelsel.truncation_ratios(eigvals, eigvecs,
                                            0.5 * float(np.vdot(m, m)))
        for gap, thin in ((ratios[2] + 1e-6, True),
                          ((ratios[1] + ratios[2]) / 2, False)):
            config = SolverConfig(rho=1.0 - gap, r_max=6)
            rank, src = modelsel.select_rank(m, config.rho, 6)
            assert rank == 3
            exact_calls.clear()
            _, counts = select(make_cell(config, [src], vectorize(m)[None, :],
                                         [basis]))
            exact = thin and margin is None
            assert counts == ((0, 1, 0) if exact else (1, 0, 0))
            assert len(exact_calls) == int(exact)

    def test_zero_target_leaves_the_sweep(self, monkeypatch, exact_calls):
        rng = np.random.default_rng(63)
        node_count = 12
        config = SolverConfig(rho=0.9, r_max=3)
        m = spectrum_target(rng, node_count, [5.0, -3.0, 1.0])
        k = modelsel._basis_width(config, node_count)
        _, src, basis = modelsel.select_rank(m, 0.9, 3, basis=k)
        sources = [src, random_source(rng, node_count, 2)]
        targets = np.vstack([vectorize(m), np.zeros(vectorize(m).shape)])
        cell = make_cell(config, sources, targets, [basis, basis])
        swept = []
        real_sweep = solver.sweep_nodes

        def counting_sweep(factors, *args, **kwargs):
            swept.append(len(factors))
            return real_sweep(factors, *args, **kwargs)

        monkeypatch.setattr(solver, "sweep_nodes", counting_sweep)
        exact_calls.clear()
        with pytest.warns(DegenerateSourceWarning, match="source 1 collapsed"):
            solver._step([cell], 1)
        assert swept == [1] and cell.warned == {1} and exact_calls == []
        # a re-seeded source loses its basis, so its next check is exact
        assert cell.ready.tolist() == [True, False]

    def test_pruned_source_next_check_is_exact(self, exact_calls):
        # the nuclear threshold phi/2 = 1 prunes the weight near 0.2
        rng = np.random.default_rng(64)
        node_count = 12
        config = SolverConfig(phi=2.0, rho=0.9999, r_max=3,
                              regularizer="nuclear")
        m = spectrum_target(rng, node_count, [8.0, -4.0, 0.2])
        k = modelsel._basis_width(config, node_count)
        with pytest.warns(RankCapWarning):
            _, src, basis = modelsel.select_rank(m, config.rho, 3, basis=k)
        cell = make_cell(config, [src], vectorize(m)[None, :], [basis])
        exact_calls.clear()
        with pytest.warns(RankCapWarning):
            solver._step([cell], 1)
        assert exact_calls == [] and cell.sources[0].rank == 2
        assert cell.ready.tolist() == [False]
        with pytest.warns(RankCapWarning):
            solver._step([cell], 2)
        assert len(exact_calls) == 1

    def test_warm_check_at_the_cap_warns(self, exact_calls):
        rng = np.random.default_rng(65)
        node_count = 16
        config = SolverConfig(rho=0.999, r_max=2)
        m = spectrum_target(rng, node_count, [6.0, -5.0, 4.0, 3.0, 2.0])
        k = modelsel._basis_width(config, node_count)
        with pytest.warns(RankCapWarning):
            rank, src, basis = modelsel.select_rank(m, 0.999, 2, basis=k)
        assert rank == 2
        exact_calls.clear()
        cell = make_cell(config, [src], vectorize(m)[None, :], [basis])
        with pytest.warns(RankCapWarning, match="rank cap 2 hit"):
            _, counts = select(cell)
        assert counts == (1, 0, 0) and exact_calls == []
        assert cell.sources[0] is src

    def test_cap_groups_in_one_call_equal_lone_calls(self, exact_calls):
        # three cells at V=16, q=3 with caps 2, 6 and 2: one call makes two
        # warm groups, neither of them every cell.  Cell 0 holds a source
        # the warm check confirms at its cap (it warns), a source that is
        # not ready and a zero target whose basis is ready; cell 2 holds a
        # rank the rule changes.  One call over all three cells gives each
        # cell what its lone call gives it, byte for byte.
        rng = np.random.default_rng(66)
        node_count = 16
        mats = [spectrum_target(rng, node_count, eigvals) for eigvals in (
            [6.0, -5.0, 4.0, 3.0, 2.0], [9.0, -4.0, 1.0, 0.3],
            [7.0, 3.0, -2.0, 0.5], [5.0, -4.5, 0.2])]
        specs = []
        for r_max, rho, picks in ((2, 0.999, (0, 1, None)), (6, 0.9, (1, 2, 3)),
                                  (2, 0.8, (2, 3, 0))):
            config = SolverConfig(rho=rho, r_max=r_max)
            k = modelsel._basis_width(config, node_count)
            sources, targets, bases = [], [], []
            for ell, pick in enumerate(picks):
                m = mats[0] if pick is None else mats[pick]
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RankCapWarning)
                    rank, src, basis = modelsel.select_rank(m, rho, r_max,
                                                            basis=k)
                if r_max == 2 and ell == 1:
                    # cell 0: no basis yet; cell 2: the rule's rank changes
                    src = random_source(rng, node_count, 3 - rank)
                    basis = None if rho == 0.999 else basis
                sources.append(src)
                targets.append(np.zeros(vectorize(m).shape) if pick is None
                               else vectorize(m))
                bases.append(basis)
            specs.append((config, sources, np.vstack(targets), bases))

        def run(cells, calls):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                warnings.simplefilter("error", RuntimeWarning)
                out = calls(cells)
            return out, sorted(str(w.message) for w in caught)

        lone_cells = [make_cell(*spec) for spec in specs]
        exact_calls.clear()
        lone, lone_warnings = run(lone_cells, lambda cells: [select(cell)
                                                             for cell in cells])
        lone_exact = len(exact_calls)
        exact_calls.clear()
        batch_cells = [make_cell(*spec) for spec in specs]
        (lives, counts), warned = run(batch_cells, lambda cells: (
            modelsel._select_ranks(cells, *solver._target_mats(cells))))

        assert warned == lone_warnings
        assert "rank cap 2 hit before reaching closeness 0.999" in warned
        assert lives == [live for live, _ in lone] and 2 not in lives[0]
        assert counts == tuple(map(sum, zip(*(c for _, c in lone))))
        assert counts[0] > 0 and counts[2] > 0
        assert len(exact_calls) == lone_exact == counts[1]
        assert batch_cells[0].ready.tolist() == [True, True, True]
        assert batch_cells[0].basis[2].tobytes() == specs[0][3][2].tobytes()
        for got, want in zip(batch_cells, lone_cells):
            assert got.ready.tolist() == want.ready.tolist()
            assert got.basis.tobytes() == want.basis.tobytes()
            for got_src, want_src in zip(got.sources, want.sources):
                assert got_src.x.tobytes() == want_src.x.tobytes()
                assert got_src.d.tobytes() == want_src.d.tobytes()


def acceptance_loadings(rng, size):
    return rng.uniform(1.5, 6.0, size=size) * rng.choice([-1.0, 1.0], size=size)


@pytest.fixture
def exact_beside_warm(monkeypatch):
    """Runs the exact rule beside every rank the checks keep (each warm
    confirmation among them) and asserts that it gives the same rank;
    counts the warm checks and the ranks compared."""
    real = modelsel._select_ranks
    exact_rule = modelsel.select_rank
    seen = {"warm": 0, "compared": 0}

    def side_by_side(cells, mats, norm2):
        # the cells' lists are updated in place: snapshot them first
        before = [list(cell.sources) for cell in cells]
        lives, counts = real(cells, mats, norm2)
        seen["warm"] += counts[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankCapWarning)
            for cell, old, cell_mats, live in zip(cells, before, mats, lives):
                if cell.error is not None:
                    continue
                config = cell.config
                for ell in live:
                    if cell.sources[ell] is old[ell]:
                        rank, _ = exact_rule(cell_mats[ell], config.rho,
                                             config.r_max)
                        assert rank == old[ell].rank
                        seen["compared"] += 1
        return lives, counts

    monkeypatch.setattr(modelsel, "_select_ranks", side_by_side)
    return seen


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestWarmChecksAgreeWithExactRule:
    def test_acceptance_datasets(self, exact_beside_warm):
        for sigma in (1.0, 3.0, 6.0):
            for seed in (0, 1):
                ds, _ = generate(SyntheticSpec(
                    node_count=50, q=3, n_subjects=100, sigma=sigma, seed=seed,
                    loading_dist=acceptance_loadings))
                fit(whiten(ds, 3), 3, SolverConfig(phi=0.04, rho=0.9, seed=seed))
        assert exact_beside_warm["warm"] > 100

    def test_two_by_two_tune(self, exact_beside_warm):
        ds, _ = generate(SyntheticSpec(node_count=50, q=3, n_subjects=100,
                                       sigma=3.0, seed=4,
                                       loading_dist=acceptance_loadings))
        locus.tune(ds, 3, [0.0, 0.04], [0.8, 0.9], SolverConfig(seed=4))
        assert exact_beside_warm["warm"] > 50

    @pytest.mark.slow
    @pytest.mark.parametrize("regularizer, phi", [
        ("uniform_l1", 0.0), ("vector_l1", 0.005), ("nuclear", 0.5)])
    def test_sigma6_comparators(self, exact_beside_warm, regularizer, phi):
        ds, _ = generate(SyntheticSpec(node_count=50, q=3, n_subjects=100,
                                       sigma=6.0, seed=0,
                                       loading_dist=acceptance_loadings))
        fit(whiten(ds, 3), 3, SolverConfig(phi=phi, rho=0.9, seed=0,
                                           regularizer=regularizer))
        assert exact_beside_warm["warm"] > 50

    @pytest.mark.slow
    def test_atlas_shape(self, exact_beside_warm):
        ds, _ = generate(SyntheticSpec(node_count=264, q=3, n_subjects=100,
                                       sigma=7.0, seed=11))
        fit(whiten(ds, 3), 3, SolverConfig(phi=0.0075, rho=0.9, r_max=10,
                                           max_iter=20, seed=11))
        assert exact_beside_warm["warm"] == exact_beside_warm["compared"] == 60


class TestUpdateD:
    """The uniform-L1 weight step: the target arrives thresholded at phi/2
    and is projected onto the span of the per-component edge vectors."""

    def test_phi_zero_orthogonal_design_is_projection(self):
        # rank-1 factors on disjoint node pairs give orthogonal Z columns
        x = np.zeros((6, 2))
        x[0, 0] = x[1, 0] = 1.0 / np.sqrt(2)
        x[2, 1] = x[3, 1] = 1.0 / np.sqrt(2)
        src = LowRankSource(x, np.array([1.0, 1.0]))
        z = z_columns(src.x)
        assert abs(float(z[:, 0] @ z[:, 1])) < 1e-12
        rng = np.random.default_rng(4)
        y_src = rng.standard_normal(z.shape[0])
        d = update_d(src.x, unvectorize(y_src, 6))
        expected = np.array([z[:, r] @ y_src / (z[:, r] @ z[:, r]) for r in range(2)])
        assert np.allclose(d, expected, atol=1e-10)

    def test_huge_phi_zeroes_all_weights(self):
        rng = np.random.default_rng(5)
        src = random_source(rng, 7, 2)
        y_src = rng.standard_normal(21)
        d = update_d(src.x, unvectorize(soft_threshold(y_src, 5e5), 7))
        assert not d.any()

    def test_beats_random_candidates_on_weight_subproblem(self):
        rng = np.random.default_rng(6)
        src = random_source(rng, 9, 3)
        y_src = rng.standard_normal(36)
        phi = 0.1
        z = z_columns(src.x)

        def value(d):
            fitv = z @ d
            return float(np.sum((y_src - fitv) ** 2) + phi * np.sum(np.abs(fitv)))

        d_hat = update_d(src.x, unvectorize(soft_threshold(y_src, phi / 2.0), 9))
        ours = value(d_hat)
        scale = np.linalg.norm(d_hat) + 1.0
        cands = rng.standard_normal((10_000, 3)) * scale
        assert ours <= min(value(c) for c in cands) + 1e-12

    @pytest.mark.parametrize("spread", [None, 1e-3, 0.0])
    def test_moments_match_z_columns_reference(self, spread):
        # unit columns as fit passes them; with ``spread`` set, the last
        # column sits on node 3 plus that much noise (0: exactly, so its Z
        # column is zero and the pseudo-inverse drops it)
        rng = np.random.default_rng(15)
        node_count, rank = 30, 6
        x = rng.standard_normal((node_count, rank))
        if spread is not None:
            x[:, -1] = spread * rng.standard_normal(node_count)
            x[3, -1] = 1.0
        x /= np.linalg.norm(x, axis=0)
        y_src = rng.standard_normal(node_count * (node_count - 1) // 2)
        z = z_columns(x)
        expected, *_ = np.linalg.lstsq(z, y_src, rcond=None)
        got = update_d(x, unvectorize(y_src, node_count))
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)
        if spread == 0.0:
            assert got[-1] == 0.0

    @pytest.mark.parametrize("case", ["random", "duplicated", "zero",
                                      "cond1e9", "cond1e11"])
    def test_matches_svd_solve_or_pinv_reference(self, case):
        # the weight Gram Z'Z solved as the SVD rule does: the plain solve,
        # or the pseudo-inverse at rcond PINV_RTOL when s_min <= PINV_RTOL
        # * s_max.  Near the rule the columns have disjoint supports, so
        # Z'Z is diagonal and its condition number is set by one column's
        # scale alone: kept at 1e9, dropped at 1e11.
        def reference(x, target):
            g, squares = x.T @ x, x * x
            gram = 0.5 * (g * g - squares.T @ squares)
            rhs = 0.5 * np.sum((target @ x) * x, axis=0)
            svals = np.linalg.svd(gram, compute_uv=False)
            if svals[0] == 0 or svals[-1] <= PINV_RTOL * svals[0]:
                return np.linalg.pinv(gram, rcond=PINV_RTOL) @ rhs, gram
            return np.linalg.solve(gram, rhs), gram

        rng = np.random.default_rng(18)
        node_count, rank = 20, 5
        for _ in range(5):
            x = rng.standard_normal((node_count, rank))
            if case == "duplicated":
                x[:, -1] = x[:, 0]
            elif case == "zero":
                x[:, -1] = 0.0
            elif case.startswith("cond"):
                x = np.zeros((node_count, rank))
                for r in range(rank):
                    x[4 * r:4 * r + 4, r] = rng.standard_normal(4)
                diag = np.diagonal(reference(x, np.zeros((node_count,) * 2))[1])
                cond = float(case[4:])
                x[:, -1] *= (diag.max() / (cond * diag[-1])) ** 0.25
            target = unvectorize(rng.standard_normal(
                node_count * (node_count - 1) // 2), node_count)
            expected, gram = reference(x, target)
            if case.startswith("cond"):
                assert np.linalg.cond(gram) == pytest.approx(cond, rel=1e-6)
            got = update_d(x, target)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(got - expected)) <= 1e-10 * scale
            assert (got[-1] == 0.0) == (case in ("zero", "cond1e11"))

    def test_target_shape_checked(self):
        rng = np.random.default_rng(16)
        src = random_source(rng, 7, 2)
        with pytest.raises(DimensionError):
            update_d(src.x, rng.standard_normal(21))


class TestLowRankSource:
    def test_edge_vector_matches_einsum_gather(self):
        rng = np.random.default_rng(17)
        for node_count, rank in ((2, 1), (9, 3), (50, 10)):
            src = random_source(rng, node_count, rank)
            r, c = triu_indices(node_count)
            expected = np.einsum("ij,ij->i", src.x[r] * src.d, src.x[c])
            got = src.edge_vector()
            assert got.shape == expected.shape
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)
            assert got is src.edge_vector() and not got.flags.writeable

    def test_stack_builds_each_source_as_the_constructor_does(self):
        rng = np.random.default_rng(18)
        x, d = rng.standard_normal((4, 9, 2)), rng.standard_normal((4, 2))
        x[1, :, 0] = 0.0  # a zero column keeps its zero
        built = solver._built_sources(x, d)
        for k, src in enumerate(built):
            lone = LowRankSource(x[k], d[k])
            for got, want in ((src.x, lone.x), (src.d, lone.d),
                              (src.edge_vector(), lone.edge_vector())):
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable
        # a replaced factor is normalized and reconstructed afresh
        moved = dataclasses.replace(built[0], x=2 * x[0])
        lone = LowRankSource(2 * x[0], built[0].d)
        for got, want in ((moved.d, lone.d),
                          (moved.edge_vector(), lone.edge_vector())):
            assert got.tobytes() == want.tobytes()
        with pytest.raises(DimensionError, match="incompatible"):
            solver._built_sources(x, d[:, :1])
        with pytest.raises(DimensionError, match="rank must lie"):
            solver._built_sources(x[:, :2], d)


class TestUpdateMixing:
    def test_exact_orthogonal_model_recovered(self):
        rng = np.random.default_rng(7)
        q, node_count = 3, 10
        sources = [random_source(rng, node_count, 2) for _ in range(q)]
        s = np.vstack([src.edge_vector() for src in sources])
        # orthonormalize rows so the least-squares factor is exactly Q
        s = np.linalg.qr(s.T)[0].T
        q_mat = random_orthogonal(rng, q)
        w = WhitenedData(y_tilde=q_mat @ s, h=np.zeros((q, 4)),
                         col_means=np.zeros(s.shape[1]), sigma2_resid=0.0,
                         eigvals_top=np.arange(q, 0, -1).astype(float),
                         data=np.zeros((4, s.shape[1])))
        assert np.allclose(update_mixing(w, s), q_mat, atol=1e-8)

    def test_orthogonality_postcondition(self):
        rng = np.random.default_rng(8)
        q, node_count = 4, 12
        sources = [random_source(rng, node_count, 2) for _ in range(q)]
        w = make_whitened(rng, q, node_count)
        a = update_mixing(w, np.vstack([src.edge_vector() for src in sources]))
        assert np.linalg.norm(a.T @ a - np.eye(q)) < 1e-10

    def test_matches_polar_factor_oracle(self):
        rng = np.random.default_rng(9)
        q, node_count = 3, 9
        sources = [random_source(rng, node_count, 2) for _ in range(q)]
        w = make_whitened(rng, q, node_count)
        s = np.vstack([src.edge_vector() for src in sources])
        a_raw = w.y_tilde @ s.T @ np.linalg.inv(s @ s.T)
        u, _, vt = np.linalg.svd(a_raw)
        assert np.allclose(update_mixing(w, s), u @ vt, atol=1e-8)

    def test_zero_source_reported_with_index(self):
        rng = np.random.default_rng(10)
        good = random_source(rng, 8, 2)
        zero = LowRankSource(np.eye(8)[:, :1], np.array([1e-300]))
        w = make_whitened(rng, 2, 8)
        with pytest.raises(DegeneracyError, match="1"):
            update_mixing(w, np.vstack([good.edge_vector(), zero.edge_vector()]))

    @pytest.mark.parametrize("shape", [(3, 44), (2, 45), (45,)])
    def test_rows_of_the_wrong_shape_rejected(self, shape):
        w = make_whitened(np.random.default_rng(39), 3, 10)
        with pytest.raises(DimensionError, match="sources must be 3 x 45"):
            update_mixing(w, np.ones(shape))


class TestObjective:
    def test_exact_factorization_is_zero(self):
        rng = np.random.default_rng(11)
        q, node_count = 3, 8
        sources = [random_source(rng, node_count, 2) for _ in range(q)]
        a = random_orthogonal(rng, q)
        s = np.vstack([src.edge_vector() for src in sources])
        w = WhitenedData(y_tilde=a @ s, h=np.zeros((q, 4)),
                         col_means=np.zeros(s.shape[1]), sigma2_resid=0.0,
                         eigvals_top=np.arange(q, 0, -1).astype(float),
                         data=np.zeros((4, s.shape[1])))
        model = LocusModel(sources=sources, a_tilde=a)
        assert objective(w, model, 0.0) < 1e-16

    def test_equivalence_of_data_and_source_domains(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            q = rng.integers(2, 5)
            node_count = rng.integers(6, 12)
            sources = [random_source(rng, node_count, rng.integers(1, 4))
                       for _ in range(q)]
            a = random_orthogonal(rng, q)
            w = make_whitened(rng, q, node_count)
            model = LocusModel(sources=sources, a_tilde=a)
            phi = float(rng.uniform(0, 2))
            lhs = data_domain_objective(w, model, phi)
            rhs = objective(w, model, phi)
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_single_node_source_has_no_penalty(self):
        rng = np.random.default_rng(13)
        node_count = 6
        x = np.zeros((node_count, 1))
        x[0, 0] = 1.0
        src = LowRankSource(x, np.array([5.0]))
        assert not src.edge_vector().any()
        w = make_whitened(rng, 1, node_count)
        model = LocusModel(sources=[src], a_tilde=np.eye(1))
        target = w.y_tilde.T @ model.a_tilde[:, 0]
        assert abs(objective(w, model, 1.0) - float(np.sum(target ** 2))) < 1e-10


class TestMultiConvexity:
    def test_node_block_hessian_psd(self):
        # numeric Hessian of the smooth part of the node subproblem; the
        # objective is quadratic in the block, so the column-pair second
        # difference is exact up to roundoff
        rng = np.random.default_rng(14)
        for case in range(50):
            n, q = 5, 2
            node_count = 7
            rank = int(rng.integers(1, 4))
            x = rng.standard_normal((node_count, rank))
            d = rng.standard_normal(rank)
            loadings = rng.standard_normal((n, q))
            v = int(rng.integers(node_count))
            others = rng.standard_normal((n, node_count - 1))  # absorbed rest

            x_minus = np.delete(x, v, axis=0)

            def smooth(row):
                pred = x_minus @ (d * row)
                return float(sum(np.sum((others[i] - loadings[i, 0] * pred) ** 2)
                                 for i in range(n)))

            h = 1e-3
            x0 = rng.standard_normal(rank)
            hess = np.zeros((rank, rank))
            f0 = smooth(x0)
            for i in range(rank):
                for j in range(rank):
                    ei = np.zeros(rank)
                    ej = np.zeros(rank)
                    ei[i] = h
                    ej[j] = h
                    hess[i, j] = (smooth(x0 + ei + ej) - smooth(x0 + ei)
                                  - smooth(x0 + ej) + f0) / h ** 2
            eigs = np.linalg.eigvalsh((hess + hess.T) / 2)
            assert eigs.min() >= -1e-8

            analytic = 2 * float(np.sum(loadings[:, 0] ** 2)) * (
                np.diag(d) @ x_minus.T @ x_minus @ np.diag(d))
            assert np.allclose(hess, analytic, atol=1e-6 * max(1, np.abs(analytic).max()))


def scenario_whitened(sigma, seed, node_count=20, n=40, loading=None):
    ds, gt = generate(SyntheticSpec(node_count=node_count, q=3, n_subjects=n,
                                    sigma=sigma, seed=seed,
                                    loading_dist=loading))
    return ds, gt, whiten(ds, 3)


def fit_from(whitened, config, start):
    """:func:`fit` from a given :class:`solver._Start`: the one-cell run of
    ``solver._fit_cells``, raising the error that stopped it."""
    (result,) = solver._fit_cells(whitened, [(config, start)])
    if isinstance(result, Exception):
        raise result
    return result


class TestFit:
    def test_noise_free_exact_recovery(self):
        ds, gt, w = scenario_whitened(0.0, 21)
        model = fit(w, 3, SolverConfig(phi=0.005, rho=0.9, seed=0))
        match = locus.match_sources(gt.sources, model.source_matrix(),
                                    gt.loadings, model.a)
        assert np.all(match.per_source_corr >= 0.999)
        assert np.all(match.loading_corr >= 0.999)

    @pytest.mark.parametrize("regularizer", ["uniform_l1", "vector_l1", "nuclear"])
    def test_weight_step_lands_threshold_per_variant(self, regularizer):
        # after one iteration the weights are least squares on the final
        # coordinates against the targets, thresholded at phi/2 first for
        # uniform_l1; nuclear shrinks the weights at phi/2 afterwards
        _, _, w = scenario_whitened(1.0, 3)
        config = SolverConfig(phi=0.05, rho=0.9, seed=0, max_iter=1,
                              regularizer=regularizer)
        init = initialize(w, 3, config)
        model = fit(w, 3, config)
        targets = init.a_tilde.T @ w.y_tilde
        if regularizer == "uniform_l1":
            targets = soft_threshold(targets, config.phi / 2.0)
        for ell, src in enumerate(model.sources):
            d, *_ = np.linalg.lstsq(z_columns(src.x), targets[ell], rcond=None)
            if regularizer == "nuclear":
                d = soft_threshold(d, config.phi / 2.0)
            assert np.allclose(src.d, d, rtol=1e-9, atol=0.0), ell

    def test_shared_start_is_left_unchanged(self):
        # tune shares one start per rho across every phi, and each cell's
        # steps replace items of its sources list, so each cell needs its
        # own copy of that list
        _, _, w = scenario_whitened(1.0, 26)
        start = initialize(w, 3, SolverConfig(rho=0.9, seed=0))
        sources = list(start.sources)
        factors = [(src.x.tobytes(), src.d.tobytes()) for src in sources]
        basis, ready = start.basis.tobytes(), start.ready.tobytes()
        assert start.ready.any()
        models = solver._fit_cells(w, [(SolverConfig(phi=phi, rho=0.9, max_iter=5),
                                        start) for phi in (0.0, 0.01, 0.05)])
        assert all(isinstance(model, LocusModel) for model in models)
        assert len(start.sources) == len(sources)
        assert all(got is want for got, want in zip(start.sources, sources))
        assert [(src.x.tobytes(), src.d.tobytes())
                for src in start.sources] == factors
        assert start.basis.tobytes() == basis
        assert start.ready.tobytes() == ready

    def test_phi_zero_objective_descends(self):
        ds, gt, w = scenario_whitened(1.0, 22)
        model = fit(w, 3, SolverConfig(phi=0.0, rho=0.9, r_max=19,
                                       seed=0, max_iter=300))
        assert model.objective_trace[-1] <= model.objective_trace[0]

    def test_mixing_orthogonal_after_fit(self):
        ds, gt, w = scenario_whitened(0.5, 23)
        model = fit(w, 3, SolverConfig(phi=0.01, seed=0, max_iter=100))
        q = model.q
        assert np.linalg.norm(model.a_tilde.T @ model.a_tilde - np.eye(q)) < 1e-8

    def test_unit_norm_columns_after_fit(self):
        ds, gt, w = scenario_whitened(0.5, 24)
        model = fit(w, 3, SolverConfig(phi=0.01, seed=0, max_iter=100))
        for src in model.sources:
            norms = np.linalg.norm(src.x, axis=0)
            assert np.allclose(norms, 1.0, atol=1e-8)

    def test_renormalization_preserves_reconstruction(self):
        rng = np.random.default_rng(25)
        x = rng.standard_normal((8, 3)) * np.array([0.1, 5.0, 1.0])
        d = np.array([2.0, -0.5, 1.5])
        raw = (x * d) @ x.T
        src = LowRankSource(x, d)  # constructor renormalizes
        assert np.allclose(src.matrix(), raw, atol=1e-10)
        assert np.allclose(np.linalg.norm(src.x, axis=0), 1.0, atol=1e-12)

    def test_fixed_seed_reproducible(self):
        ds, gt, w = scenario_whitened(1.0, 26)
        cfg = SolverConfig(phi=0.01, seed=5, max_iter=50)
        m1 = fit(w, 3, cfg)
        m2 = fit(w, 3, cfg)
        assert np.array_equal(m1.source_matrix(), m2.source_matrix())
        assert np.array_equal(m1.a_tilde, m2.a_tilde)
        assert np.array_equal(m1.objective_trace, m2.objective_trace)

    def test_subject_permutation_invariance(self):
        ds, gt, w = scenario_whitened(1.0, 27)
        perm = np.random.default_rng(0).permutation(ds.n_subjects)
        ds_perm = ConnectivityDataset(data=ds.data[perm],
                                      node_count=ds.node_count)
        w_perm = whiten(ds_perm, 3)
        cfg = SolverConfig(phi=0.01, seed=3, max_iter=100)
        obj1 = fit(w, 3, cfg).objective_trace[-1]
        obj2 = fit(w_perm, 3, cfg).objective_trace[-1]
        assert abs(obj1 - obj2) <= 1e-6 * max(1.0, abs(obj1))

    def test_degenerate_phi_warns_and_survives(self):
        ds, gt, w = scenario_whitened(1.0, 29)
        big = 10.0 * float(np.max(np.abs(w.y_tilde)))
        with pytest.warns(DegenerateSourceWarning):
            model = fit(w, 3, SolverConfig(phi=big, seed=0, max_iter=10))
        assert model.iterations <= 10

    def test_reseed_draws_no_random_numbers(self, monkeypatch):
        # the degenerate-phi fit re-seeds collapsed sources; from a given
        # start it must not touch a random generator
        ds, gt, w = scenario_whitened(1.0, 29)
        big = 10.0 * float(np.max(np.abs(w.y_tilde)))
        config = SolverConfig(phi=big, seed=0, max_iter=10)
        start = initialize(w, 3, config)

        def no_rng(*args, **kwargs):
            raise AssertionError("fit drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        with pytest.warns(DegenerateSourceWarning):
            model = fit_from(w, config, start)
        assert model.iterations <= 10

    def test_zero_reduced_row_names_the_source(self):
        # a zero row of Y~ under A~ = I projects to a zero target: its
        # re-seed is zero too, and the mixing update names that source
        rng = np.random.default_rng(36)
        q, node_count = 3, 10
        w = make_whitened(rng, q, node_count)
        y_tilde = w.y_tilde.copy()
        y_tilde[0] = 0.0
        w = dataclasses.replace(w, y_tilde=y_tilde)
        config = SolverConfig(max_iter=5)
        k = modelsel._basis_width(config, node_count)
        start = solver._Start(sources=[random_source(rng, node_count, 1)
                                       for _ in range(q)], a_tilde=np.eye(q),
                              basis=np.zeros((q, node_count, k)),
                              ready=np.zeros(q, dtype=bool))
        with pytest.warns(DegenerateSourceWarning), \
                pytest.raises(DegeneracyError, match=r"sources \[0\]"):
            fit_from(w, config, start)

    def test_init_dimension_validated(self):
        ds, gt, w = scenario_whitened(1.0, 30)
        with pytest.raises(DimensionError):
            fit(w, 2, SolverConfig())

    @pytest.mark.parametrize("regularizer", REGULARIZERS)
    @pytest.mark.parametrize("max_iter", [1, 2, 7])
    def test_shared_products_match_a_fresh_score(self, regularizer, max_iter):
        # fit reuses each iteration's targets and stacked rows; scoring the
        # start and the returned model from scratch gives the same bits
        _, _, w = scenario_whitened(1.0, 37)
        config = SolverConfig(phi=0.05, rho=0.9, seed=0, max_iter=max_iter,
                              regularizer=regularizer)
        start = initialize(w, 3, config)
        model = fit(w, 3, config)
        assert model.objective_trace[0] == objective(w, start, config.phi,
                                                     regularizer)
        assert model.objective_trace[-1] == objective(w, model, config.phi,
                                                      regularizer)
        assert np.array_equal(model.a,
                              unmix_to_subject_space(w, model.source_matrix()))


class TestInitialize:
    def test_noise_free_rank_one_sources_good_start(self):
        # rank-1 disjoint block sources, no noise
        rng = np.random.default_rng(31)
        node_count, q, n = 18, 2, 24
        templates = []
        for k in range(q):
            vec = np.zeros(node_count)
            vec[k * 6:(k + 1) * 6] = 1.0
            m = np.outer(vec, vec)
            np.fill_diagonal(m, 0.0)
            templates.append(m)
        sources = np.vstack([vectorize(m) for m in templates])
        loadings = _default_loadings(rng, (n, q))
        ds = ConnectivityDataset(data=loadings @ sources,
                                 node_count=node_count)
        w = whiten(ds, q)
        model = initialize(w, q, SolverConfig(seed=0))
        match = locus.match_sources(sources, model.source_matrix())
        assert np.all(match.per_source_corr >= 0.9)

    def test_fixed_seed_bit_reproducible(self):
        ds, gt, w = scenario_whitened(1.0, 32)
        m1 = initialize(w, 3, SolverConfig(seed=9))
        m2 = initialize(w, 3, SolverConfig(seed=9))
        assert np.array_equal(m1.a_tilde, m2.a_tilde)
        assert np.array_equal(m1.source_matrix(), m2.source_matrix())

    def test_baseline_failure_falls_back_to_random_orthogonal(self, monkeypatch):
        ds, gt, w = scenario_whitened(1.0, 35)

        def broken(*args, **kwargs):
            raise DegeneracyError("singular_unmixing", "no convergence")

        import locus.baselines
        monkeypatch.setattr(locus.baselines, "fastica", broken)
        model = initialize(w, 3, SolverConfig(seed=2))
        assert model.q == 3
        assert np.linalg.norm(model.a_tilde.T @ model.a_tilde - np.eye(3)) < 1e-10
        again = initialize(w, 3, SolverConfig(seed=2))
        assert np.array_equal(model.a_tilde, again.a_tilde)

    def test_baseline_programming_error_propagates(self, monkeypatch):
        ds, gt, w = scenario_whitened(1.0, 35)

        def buggy(*args, **kwargs):
            raise TypeError("bad argument")

        import locus.baselines
        monkeypatch.setattr(locus.baselines, "fastica", buggy)
        with pytest.raises(TypeError):
            initialize(w, 3, SolverConfig(seed=2))

    def test_baseline_stopping_at_its_cap_is_logged(self, monkeypatch, caplog):
        ds, gt, w = scenario_whitened(1.0, 35)
        import locus.baselines
        real = locus.baselines.fastica
        with caplog.at_level(logging.WARNING, logger="locus.solver"):
            initialize(w, 3, SolverConfig(seed=2))
        assert not caplog.records

        def capped(*args, **kwargs):
            ica = real(*args, **kwargs)
            return dataclasses.replace(ica, converged=False, iterations=200)

        monkeypatch.setattr(locus.baselines, "fastica", capped)
        with caplog.at_level(logging.WARNING, logger="locus.solver"):
            initialize(w, 3, SolverConfig(seed=2))
        assert [r.getMessage() for r in caplog.records] == [
            "FastICA start stopped at its 200-iteration cap without converging"]

    def test_truncation_keeps_largest_magnitude_eigenvalues(self):
        # mixed-sign spectrum: magnitude ordering must keep the large
        # negative component ahead of a small positive one
        rng = np.random.default_rng(33)
        node_count = 9
        basis = np.linalg.qr(rng.standard_normal((node_count, 3)))[0]
        m = (basis * np.array([5.0, -3.0, 0.1])) @ basis.T
        np.fill_diagonal(m, 0.0)
        eigvals = np.linalg.eigvalsh(m)
        top2 = eigvals[np.argsort(-np.abs(eigvals))[:2]]
        assert top2[0] > 0 > top2[1]  # the construction keeps mixed signs
        rank, src = locus.select_rank(m, rho=0.9, r_max=2)
        assert rank == 2
        assert np.allclose(sorted(src.d), sorted(top2), atol=1e-10)


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        ds, gt, w = scenario_whitened(0.5, 34)
        cfg = SolverConfig(phi=0.01, seed=0, max_iter=60)
        model = fit(w, 3, cfg)
        out = tmp_path / "fit"
        save_model(model, str(out), cfg)
        back = load_decomposition(str(out))
        assert np.allclose(back["sources"], model.source_matrix(),
                           rtol=1e-12, atol=1e-15)
        assert np.allclose(back["a"], model.a, rtol=1e-12, atol=1e-15)
        assert back["meta"]["q"] == "3"
        assert back["meta"]["regularizer"] == "uniform_l1"
        ranks = [int(r) for r in back["meta"]["ranks"].split(",")]
        assert ranks == model.ranks
        for name in ("A.csv", "A_tilde.csv", "S_1.csv", "X_1.csv", "d_1.csv",
                     "meta"):
            assert (out / name).exists()
