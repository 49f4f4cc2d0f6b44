"""Which library calls the traced run wraps, and the per-layer metrics
derived from their spans and counters.

Every metric listed in LAYER_METRICS is reported on every workload; a layer
a workload does not run, or a wrapped name that no longer exists in the
library, reads 0 and the missing names are listed beside the result.
"""

from __future__ import annotations

import os


def _on_load(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["connmat.bytes_read"] += os.path.getsize(path)


def _on_fastica(counts, args, kwargs, result):
    counts["baselines.fastica_iterations"] += result.iterations
    counts["baselines.fastica_converged"] += int(bool(result.converged))


def _on_fit(counts, args, kwargs, result):
    counts["solver.iterations"] += result.iterations
    counts["solver.converged"] += int(bool(result.converged))


def _on_tune(counts, args, kwargs, result):
    counts["modelsel.tune_cells"] += len(result.grid)
    counts["modelsel.tune_cells_failed"] += sum(
        1 for cell in result.grid if cell.error is not None)
    counts["modelsel.tune_iterations"] += sum(cell.iterations
                                              for cell in result.grid)


def _on_bootstrap(counts, args, kwargs, result):
    counts["evaluate.bootstrap_failures"] += len(result.failures)


def _prox_name(args, kwargs):
    context = args[2] if len(args) > 2 else kwargs.get("context")
    if context and "node" in context:
        return "regularizers.node_sweep"
    if context and "z" in context:
        return "regularizers.weight_update"
    return "regularizers.prox"


# (module, attribute, span name or namer, counter hook)
TARGETS = (
    ("connmat", "load_dataset", "connmat.load_dataset", _on_load),
    ("connmat", "save_dataset", "connmat.save_dataset", None),
    ("synth", "generate", "synth.generate", None),
    ("preprocess", "whiten", "preprocess.whiten", None),
    ("preprocess", "unmix_to_subject_space", "preprocess.unmix", None),
    ("baselines", "fastica", "baselines.fastica", _on_fastica),
    ("solver", "fit", "solver.fit", _on_fit),
    ("solver", "initialize", "solver.initialize", None),
    ("solver", "update_mixing", "solver.update_mixing", None),
    ("solver", "objective", "solver.objective", None),
    ("solver", "save_model", "solver.save_model", None),
    ("regularizers", "prox_step", _prox_name, None),
    ("regularizers", "penalty_value", "regularizers.penalty", None),
    ("modelsel", "select_rank", "modelsel.select_rank", None),
    ("modelsel", "bic", "modelsel.bic", None),
    ("modelsel", "tune", "modelsel.tune", _on_tune),
    ("evaluate", "match_sources", "evaluate.match", None),
    ("evaluate", "bootstrap_replicates", "evaluate.bootstrap", _on_bootstrap),
    ("evaluate", "reliability_report", "evaluate.reliability_report", None),
    ("cli", "cmd_decompose", "cli.decompose", None),
)


def instrument(tracer) -> None:
    for module, attr, name, hook in TARGETS:
        tracer.install(module, attr, name, hook)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _total(summary, name):
    return summary.get(name, {}).get("total_s", 0.0)


def _self(summary, name):
    return summary.get(name, {}).get("self_s", 0.0)


def _calls(summary, name):
    return summary.get(name, {}).get("calls", 0)


# (metric name, unit, value from (span summary, counters, warning counts))
LAYER_METRICS = (
    ("connmat.load_dataset_s", "s", lambda s, c, w: _total(s, "connmat.load_dataset")),
    ("connmat.bytes_read", "bytes", lambda s, c, w: c["connmat.bytes_read"]),
    ("connmat.save_dataset_s", "s", lambda s, c, w: _total(s, "connmat.save_dataset")),
    ("synth.generate_s", "s", lambda s, c, w: _total(s, "synth.generate")),
    ("preprocess.whiten_s", "s", lambda s, c, w: _total(s, "preprocess.whiten")),
    ("preprocess.whiten_calls", "count", lambda s, c, w: _calls(s, "preprocess.whiten")),
    ("preprocess.unmix_s", "s", lambda s, c, w: _total(s, "preprocess.unmix")),
    ("baselines.fastica_s", "s", lambda s, c, w: _total(s, "baselines.fastica")),
    ("baselines.fastica_iterations", "count",
     lambda s, c, w: c["baselines.fastica_iterations"]),
    ("baselines.fastica_converged_ratio", "ratio",
     lambda s, c, w: _ratio(c["baselines.fastica_converged"],
                            _calls(s, "baselines.fastica"))),
    ("solver.fit_self_s", "s", lambda s, c, w: _self(s, "solver.fit")),
    ("solver.fit_calls", "count", lambda s, c, w: _calls(s, "solver.fit")),
    ("solver.iterations", "count", lambda s, c, w: c["solver.iterations"]),
    ("solver.converged_ratio", "ratio",
     lambda s, c, w: _ratio(c["solver.converged"], _calls(s, "solver.fit"))),
    ("solver.iter_s", "s",
     lambda s, c, w: _ratio(_total(s, "solver.fit"), c["solver.iterations"])),
    ("solver.initialize_s", "s", lambda s, c, w: _total(s, "solver.initialize")),
    ("solver.initialize_calls", "count", lambda s, c, w: _calls(s, "solver.initialize")),
    ("solver.update_mixing_s", "s", lambda s, c, w: _total(s, "solver.update_mixing")),
    ("solver.update_mixing_calls", "count",
     lambda s, c, w: _calls(s, "solver.update_mixing")),
    ("solver.objective_s", "s", lambda s, c, w: _total(s, "solver.objective")),
    ("solver.objective_calls", "count", lambda s, c, w: _calls(s, "solver.objective")),
    ("solver.save_model_s", "s", lambda s, c, w: _total(s, "solver.save_model")),
    ("regularizers.node_sweep_s", "s",
     lambda s, c, w: _total(s, "regularizers.node_sweep")),
    ("regularizers.node_calls", "count",
     lambda s, c, w: _calls(s, "regularizers.node_sweep")),
    ("regularizers.weight_update_s", "s",
     lambda s, c, w: _total(s, "regularizers.weight_update")),
    ("regularizers.weight_calls", "count",
     lambda s, c, w: _calls(s, "regularizers.weight_update")),
    ("regularizers.penalty_s", "s", lambda s, c, w: _total(s, "regularizers.penalty")),
    ("regularizers.penalty_calls", "count",
     lambda s, c, w: _calls(s, "regularizers.penalty")),
    ("modelsel.select_rank_s", "s", lambda s, c, w: _total(s, "modelsel.select_rank")),
    ("modelsel.select_rank_calls", "count",
     lambda s, c, w: _calls(s, "modelsel.select_rank")),
    ("modelsel.rank_cap_hits", "count", lambda s, c, w: w["RankCapWarning"]),
    ("modelsel.bic_s", "s", lambda s, c, w: _total(s, "modelsel.bic")),
    ("modelsel.tune_self_s", "s", lambda s, c, w: _self(s, "modelsel.tune")),
    ("modelsel.tune_cells", "count", lambda s, c, w: c["modelsel.tune_cells"]),
    ("modelsel.tune_cells_failed", "count",
     lambda s, c, w: c["modelsel.tune_cells_failed"]),
    ("modelsel.tune_iterations", "count", lambda s, c, w: c["modelsel.tune_iterations"]),
    ("evaluate.match_s", "s", lambda s, c, w: _total(s, "evaluate.match")),
    ("evaluate.bootstrap_self_s", "s", lambda s, c, w: _self(s, "evaluate.bootstrap")),
    ("evaluate.bootstrap_failures", "count",
     lambda s, c, w: c["evaluate.bootstrap_failures"]),
    ("evaluate.reliability_report_s", "s",
     lambda s, c, w: _total(s, "evaluate.reliability_report")),
    ("cli.decompose_self_s", "s", lambda s, c, w: _self(s, "cli.decompose")),
)


def layer_metrics(summary, counts, warning_counts) -> dict[str, tuple[float, str]]:
    return {name: (fn(summary, counts, warning_counts), unit)
            for name, unit, fn in LAYER_METRICS}
