"""Smoke test of the benchmark harness at tiny dataset sizes.

    python3 -m pytest bench/test_smoke.py

Takes well under a minute: every workload runs with --tiny for one second.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from metrics import END_TO_END, EXACT, PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_harness():
    spec = _spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = _last_json(_run("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", "0", "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    runs = [_last_json(_run("--workload", "gen_fit_noisy40", "--seed", "3",
                            "--seconds", "1", "--trace", "1", "--tiny"))
            for _ in range(2)]
    for result in runs:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [name for name, _, _ in PER_LAYER]
    metrics = runs[0]["metrics"]
    assert metrics["fitting.multi_image_fit.calls"]["value"] == 3
    assert metrics["serialization.save_dataset.calls"]["value"] == 1
    assert metrics["serialization.bytes_written"]["value"] > 0
    assert metrics["network.optimizer_step.calls"]["value"] == 0
    # computed counts repeat exactly from run to run
    assert {name: runs[1]["metrics"][name] for name in EXACT} \
        == {name: metrics[name] for name in EXACT}


def test_tracer_nests_spans_and_restores_the_program(tmp_path):
    import morphfit.cli
    import morphfit.serialization
    original = morphfit.serialization.save_dataset
    assert morphfit.cli.save_dataset is original
    with Tracer() as tracer:
        assert morphfit.cli.save_dataset is not original
        assert morphfit.serialization.save_dataset.__wrapped__ is original
        code = morphfit.cli.cli(["gen-data", "--seed", "1", "--out",
                                 str(tmp_path), "--set", "n_subjects=2",
                                 "--set", "images_per_subject=2"])
    assert code == 0
    assert morphfit.cli.save_dataset is original
    assert morphfit.serialization.save_dataset is original
    names = [span[0] for span in tracer.spans]
    root = names.index("cli.cli")
    save = names.index("serialization.save_dataset")
    assert tracer.spans[save][1] == root
    summary = tracer.summary()
    assert summary["cli.cli"]["calls"] == 1
    for entry in summary.values():
        assert 0 <= entry["self_s"] <= entry["s"] + 1e-9


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "train_default", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
