"""Metric definitions: names, units, directions, and how layers are counted.

END_TO_END and PER_LAYER must list the same metrics, in the same order, as
BENCHMARK.json at the repository root; the smoke test checks that.
"""

from __future__ import annotations

import os

import numpy as np

# name, unit, better
END_TO_END = (
    ("pass_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Result guards parsed from the CSVs a pass writes (see workloads.py), with
# their direction. Each workload produces some of them.
GUARDS = {"phase3_loss": "lower", "auc": "higher", "rank1": "higher",
          "rmse_paper": "lower", "fit_objective_mean": "lower"}

_SPAN_FIELDS = (("calls", "count", "lower"), ("s", "s", "lower"),
                ("self_s", "s", "lower"))


def _span_metrics(name: str, fields=("calls", "s", "self_s")):
    return tuple((f"{name}.{f}", unit, better)
                 for f, unit, better in _SPAN_FIELDS if f in fields)


PER_LAYER = (
    *_span_metrics("network.optimizer_step"),
    *_span_metrics("network.backward"),
    *_span_metrics("network.assemble"),
    *_span_metrics("network.training_batch"),
    *_span_metrics("network.train_phase1", ["self_s"]),
    *_span_metrics("network.train_phase3", ["self_s"]),
    ("network.adam_params_per_step", "count", "lower"),
    ("network.adam_bytes_per_step", "B", "lower"),
    ("network.steps_per_s", "1/s", "higher"),
    *_span_metrics("evaluation.verification_accuracy_folds"),
    ("evaluation.fold_comparisons", "count", "lower"),
    *_span_metrics("evaluation.verification_pairs", ["self_s"]),
    *_span_metrics("evaluation.cosine_similarity", ["calls"]),
    ("evaluation.pairs", "count", "higher"),
    *_span_metrics("evaluation.rank_n_identification"),
    *_span_metrics("evaluation.evaluate_reconstruction", ["self_s"]),
    *_span_metrics("evaluation.disentangling_report", ["self_s"]),
    ("evaluation.pairs_per_s", "1/s", "higher"),
    *_span_metrics("serialization.load_dataset"),
    *_span_metrics("serialization.write_obj"),
    *_span_metrics("serialization.save_dataset"),
    *_span_metrics("serialization.load_checkpoint"),
    *_span_metrics("serialization.save_checkpoint"),
    ("serialization.bytes_read", "B", "lower"),
    ("serialization.bytes_written", "B", "lower"),
    *_span_metrics("fitting.multi_image_fit"),
    *_span_metrics("fitting.estimate_pose"),
    *_span_metrics("fitting.objective"),
    *_span_metrics("fitting.solve_expression"),
    *_span_metrics("fitting.solve_identity_shared"),
    ("fitting.passes", "count", "lower"),
    ("fitting.converged_frac", "1", "higher"),
    *_span_metrics("synthetic.generate_model", ["s"]),
    *_span_metrics("synthetic.build_dataset", ["self_s"]),
    *_span_metrics("synthetic.rasterize_depth"),
    *_span_metrics("synthetic.dilate_max"),
    *_span_metrics("geometry.procrustes_align"),
    ("cli.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.gen_data_s", "s", "lower"),
    ("cli.fit_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    *((f"result.{name}", "1", better) for name, better in GUARDS.items()),
)

# Per-layer metrics that are exact counts: a traced run checks that every
# traced pass gives the same value.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "B")) \
    + ("fitting.converged_frac",)

# Counts computed by the hooks below from array shapes, returned results and
# file sizes, rather than counted spans.
COMPUTED = ("network.adam_params_per_step", "network.adam_bytes_per_step",
            "evaluation.fold_comparisons", "evaluation.pairs",
            "serialization.bytes_read", "serialization.bytes_written",
            "fitting.passes", "fitting.converged_frac")

# Adam reads the parameter, its gradient and both moments, and writes the
# parameter and both moments back: 7 array passes per parameter and step.
ADAM_ARRAY_PASSES = 7


# ---------------------------------------------------------------------------
# Hooks: exact counts taken from arguments, results and file sizes.

def _adam(counters, arguments, result):
    """Parameters updated by the largest Adam step: phase III's joint step."""
    params = arguments["params"].values()
    n = sum(int(p.size) for p in params)
    if n > counters.get("network.adam_params_per_step", 0):
        counters["network.adam_params_per_step"] = n
        counters["network.adam_bytes_per_step"] = ADAM_ARRAY_PASSES * sum(
            int(p.nbytes) for p in params)


def _folds(counters, arguments, result):
    """Candidate thresholds times training pairs, summed over the folds."""
    scores = np.array([p.score for p in arguments["pairs"]])
    fold = scores.size // int(arguments["n_folds"])
    total = 0
    for k in range(int(arguments["n_folds"])):
        train = np.concatenate([scores[:k * fold], scores[(k + 1) * fold:]])
        total += (np.unique(train).size + 1) * train.size
    counters["evaluation.fold_comparisons"] = (
        counters.get("evaluation.fold_comparisons", 0) + total)


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _read(counters, arguments, result):
    _add(counters, "serialization.bytes_read",
         os.path.getsize(arguments["path"]))


def _written(counters, arguments, result):
    _add(counters, "serialization.bytes_written",
         os.path.getsize(arguments["path"]))


def _fit(counters, arguments, result):
    _add(counters, "fitting.passes", result.iterations_used)
    _add(counters, "fitting.converged", int(result.converged))


HOOKS = {
    "network.optimizer_step": _adam,
    "evaluation.verification_accuracy_folds": _folds,
    "evaluation.verification_pairs":
        lambda c, a, r: _add(c, "evaluation.pairs", len(r)),
    "fitting.multi_image_fit": _fit,
    "serialization.load_dataset": _read,
    "serialization.load_checkpoint": _read,
    "serialization.save_dataset": _written,
    "serialization.save_checkpoint": _written,
    "serialization.write_obj": _written,
    "serialization.write_report_csv": _written,
    "serialization.write_table_csv": _written,
}


def layer_values(summary: dict, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from span totals and counters.

    Metrics that need more than one pass or an untraced pass (cli.import_s,
    cli.gen_data_s, cli.fit_s, trace.overhead_s, result.*) are filled in by
    the caller.
    """
    def span(name, field):
        return summary.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and layer != "network.assemble":
            out[name] = span(layer, field)
    for field in ("calls", "s", "self_s"):
        out[f"network.assemble.{field}"] = sum(
            span(f"network.assemble_{part}", field)
            for part in ("encoder", "decoder", "head"))
    for key in COMPUTED:
        out[key] = counters.get(key, 0)
    train_s = span("network.train_phase1", "s") + span("network.train_phase3",
                                                       "s")
    steps = span("network.optimizer_step", "calls")
    out["network.steps_per_s"] = steps / train_s if train_s > 0 else 0.0
    verify_s = (span("evaluation.verification_pairs", "s")
                + span("evaluation.verification_report", "s"))
    pairs = counters.get("evaluation.pairs", 0)
    out["evaluation.pairs_per_s"] = pairs / verify_s if verify_s > 0 else 0.0
    fits = span("fitting.multi_image_fit", "calls")
    out["fitting.converged_frac"] = (counters.get("fitting.converged", 0) / fits
                                     if fits else 0.0)
    out["cli.self_s"] = span("cli.cli", "self_s")
    return out
