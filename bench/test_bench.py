"""Self-tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest bench -q
"""

import json
import os
import re
import sys
import textwrap

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, covered_time, self_times, summarize  # noqa: E402
from workloads import Ledger  # noqa: E402


# -- percentile rule ---------------------------------------------------------

def test_tail_needs_more_than_ten_samples():
    assert run.tail_percentile([1.0] * 10) is None
    assert run.tail_percentile([]) is None


def test_tail_fifty_samples_is_p80():
    samples = [float(i) for i in range(50, 0, -1)]
    assert run.tail_percentile(samples) == (80, 40.0, 10)


def test_tail_is_highest_percentile_with_ten_beyond():
    for n in range(11, 400):
        samples = [float(i) for i in range(n)]
        pct, value, beyond = run.tail_percentile(samples)
        assert beyond == sum(1 for s in samples if s > value) >= 10, n
        # one percentile higher would leave fewer than ten samples beyond it
        higher_rank = -(-(pct + 1) * n // 100)
        assert pct == 99 or n - higher_rank < 10, n


# -- span self time ----------------------------------------------------------

def test_covered_time_merges_overlaps_and_clips():
    assert covered_time([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered_time([], 0, 10) == 0
    assert covered_time([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["fit", 0.0, 10.0, -1],
        ["sweep", 1.0, 4.0, 0],
        ["inner", 2.0, 3.0, 1],
        ["sweep", 5.0, 7.0, 0],
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    summary = summarize(spans)
    assert summary["sweep"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert summary["fit"]["self_s"] == 5.0


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(textwrap.dedent("""
        def leaf(x):
            return x + 1

        def outer(x):
            from .a import leaf as late
            return late(x) * 2
    """))
    (pkg / "b.py").write_text("from .a import leaf\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.a
    import fakepkg.b
    yield fakepkg
    for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
        sys.modules.pop(name, None)


def test_tracer_wraps_every_binding_and_restores(fake_package):
    a, b = fake_package.a, fake_package.b
    original = a.leaf
    with Tracer("fakepkg") as tracer:
        tracer.install("a", "leaf", "a.leaf",
                       lambda counts, args, kwargs, result:
                       counts.update(leaf_sum=result))
        tracer.install("a", "outer", "a.outer")
        tracer.install("a", "removed", "a.removed")
        tracer.install("gone", "f", "gone.f")
        assert b.leaf is a.leaf is not original
        assert a.outer(1) == 4
        assert b.leaf(5) == 6
    assert a.leaf is original and b.leaf is original
    names = [(rec[0], rec[3]) for rec in tracer.spans]
    assert names == [("a.outer", -1), ("a.leaf", 0), ("a.leaf", -1)]
    assert tracer.counts["leaf_sum"] == 8
    assert tracer.absent == ["a.removed", "gone.f"]


# -- metric names ------------------------------------------------------------

def _all_names():
    return ([name for name, _, _ in run.END_TO_END]
            + [name for name, _, _ in layers.LAYER_METRICS]
            + [name for name, _ in run.TRACE_METRICS])


def test_metric_names_follow_the_pattern():
    names = _all_names()
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert run.METRIC_NAME.fullmatch(name), name
    for bad in ("", "_lead", "has space", "x" * 65, "a/b"):
        assert not run.METRIC_NAME.fullmatch(bad), bad


def test_result_line_rejects_bad_names():
    with pytest.raises(ValueError):
        run.result_line(Ledger(), {"bad name": 1.0}, {"bad name": "s"})


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert {w["name"] for w in spec["workloads"]} == {
        "paper_sweep", "atlas_decompose", "reliability"}


# -- failure counting --------------------------------------------------------

def test_ledger_counts_raises_checks_and_tallies():
    ledger = Ledger()
    assert ledger.attempt("ok", lambda: 3) == 3
    assert ledger.correct

    def boom():
        raise ValueError("bad input")

    assert ledger.attempt("boom", boom) is None
    assert ledger.check(True, "fine")
    assert not ledger.check(False, "orthogonal")
    ledger.tally(10, 2, "tune cells")
    assert (ledger.attempted, ledger.failed) == (12, 4)
    assert not ledger.correct
    assert ledger.problems[0] == "boom: ValueError: bad input"
    assert ledger.problems[1:] == ["check failed: orthogonal",
                                   "tune cells: 2 of 10 failed"]


def test_ledger_lets_interrupts_through():
    def interrupted():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        Ledger().attempt("stop", interrupted)
