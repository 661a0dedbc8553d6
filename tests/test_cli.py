"""End-to-end tests for the command line pipeline."""

import contextlib
import io
import os
import re

import numpy as np
import pytest

from morphfit import network as nw
from morphfit.cli import cli
from morphfit.config import RunConfig, load_config
from morphfit.serialization import (load_checkpoint, load_dataset,
                                    VERIFICATION_COLUMNS)

from oracles import read_obj

# Small enough to run the whole pipeline in seconds; n_vertices must still
# cover the landmark set, and two held-out subjects keep eval non-degenerate.
TINY_OVERRIDES = ["--set", "n_vertices=80", "--set", "k_id=4",
                  "--set", "k_exp=3", "--set", "n_subjects=8",
                  "--set", "images_per_subject=5",
                  "--set", "image_resolution=12", "--set", "epochs=2"]


def tiny_with(setting: str) -> list[str]:
    """TINY_OVERRIDES with one `key=value` replaced."""
    key = setting.split("=")[0] + "="
    return [setting if item.startswith(key) else item for item in TINY_OVERRIDES]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(argv)
    return code, out.getvalue(), err.getvalue()


def read_csv(path):
    lines = open(path).read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-pipeline")
    data_dir = str(root / "data")
    train_dir = str(root / "train")
    eval_dir = str(root / "eval")
    runs = {}
    runs["gen"] = run_cli(["gen-data", *TINY_OVERRIDES, "--seed", "0",
                           "--out", data_dir])
    dataset = os.path.join(data_dir, "dataset.mfd")
    runs["train"] = run_cli(["train", "--data", dataset, *TINY_OVERRIDES,
                             "--seed", "0", "--out", train_dir])
    runs["eval"] = run_cli(["eval", "--data", dataset,
                            "--checkpoint", os.path.join(train_dir, "phase3.ckpt"),
                            "--baseline", os.path.join(train_dir, "phase2.ckpt"),
                            *TINY_OVERRIDES, "--seed", "0",
                            "--out", eval_dir])
    return {"data_dir": data_dir, "train_dir": train_dir, "eval_dir": eval_dir,
            "dataset": dataset, "runs": runs}


class TestGenData:
    def test_exits_zero_and_reports_samples(self, pipeline):
        code, out, err = pipeline["runs"]["gen"]
        assert code == 0, err
        assert "wrote 40 samples" in out

    def test_writes_loadable_dataset(self, pipeline):
        dataset = load_dataset(pipeline["dataset"])
        assert dataset.labels.size == 40
        assert dataset.spec.n_subjects == 8
        assert dataset.model.k_id == 4

    def test_echo_config_reparses_with_overrides_applied(self, pipeline):
        config = load_config(os.path.join(pipeline["data_dir"], "config.txt"))
        assert config.n_vertices == 80
        assert config.seed == 0
        assert config.output_dir == pipeline["data_dir"]
        assert config.epochs == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out_dir in (a, b):
            code, _, err = run_cli(["gen-data", *TINY_OVERRIDES,
                                    "--seed", "3", "--out", out_dir])
            assert code == 0, err
        bytes_a = open(os.path.join(a, "dataset.mfd"), "rb").read()
        bytes_b = open(os.path.join(b, "dataset.mfd"), "rb").read()
        assert bytes_a == bytes_b
        # the echoes differ only in the output_dir line
        text_a = open(os.path.join(a, "config.txt")).read()
        text_b = open(os.path.join(b, "config.txt")).read()
        assert text_a.replace(a, "X") == text_b.replace(b, "X")

    def test_seed_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nn_subjects = 2\n")
        out_dir = str(tmp_path / "out")
        code, _, err = run_cli(["gen-data", "--config", str(cfg),
                                *TINY_OVERRIDES, "--seed", "7",
                                "--out", out_dir])
        assert code == 0, err
        echoed = load_config(os.path.join(out_dir, "config.txt"))
        assert echoed.seed == 7
        assert echoed.n_subjects == 8  # --set also beats the file

    def test_duplicate_override_of_one_key_is_an_error(self, tmp_path):
        code, _, err = run_cli(["gen-data", "--set", "seed=3", "--seed", "4",
                                "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith("error: ParseError:")
        assert "repeated" in err

    def test_set_without_value_is_an_error(self, tmp_path):
        code, _, err = run_cli(["gen-data", "--set", "epochs",
                                "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith("error: ParseError:")


class TestFit:
    def test_converges_and_writes_objs(self, pipeline, tmp_path):
        out_dir = str(tmp_path / "fit")
        code, out, err = run_cli(["fit", "--data", pipeline["dataset"],
                                  "--subject", "0", *TINY_OVERRIDES,
                                  "--out", out_dir])
        assert code == 0, err
        assert "converged=True" in out
        identity = read_obj(os.path.join(out_dir, "identity.obj"))
        assert identity.points.shape == (80, 3)
        for j in range(5):
            full = read_obj(os.path.join(out_dir, f"full_{j:02d}.obj"))
            assert full.points.shape == (80, 3)
        header, rows = read_csv(os.path.join(out_dir, "fit.csv"))
        assert header == ["subject", "converged", "iterations_used",
                          "final_objective"]
        assert rows[0][:2] == ["0", "True"]
        assert float(rows[0][3]) < 1e-10  # noiseless landmarks

    def test_unknown_subject_is_a_single_error_line(self, pipeline, tmp_path):
        code, _, err = run_cli(["fit", "--data", pipeline["dataset"],
                                "--subject", "99",
                                "--out", str(tmp_path / "fit")])
        assert code == 1
        assert err == "error: MorphfitError: subject 99 not present in dataset\n"


class TestTrain:
    def test_exits_zero(self, pipeline):
        code, out, err = pipeline["runs"]["train"]
        assert code == 0, err
        assert "phase III final total loss" in out

    def test_writes_three_loadable_checkpoints(self, pipeline):
        for name in ("phase1.ckpt", "phase2.ckpt", "phase3.ckpt"):
            encoder, decoder, head, config = load_checkpoint(
                os.path.join(pipeline["train_dir"], name))
            assert (encoder.q_id, encoder.q_res) == (4, 3)
            assert decoder.weight_id.shape == (240, 4)
            assert head.weight.shape == (6, 4)  # 8 subjects, 2 held out
            assert config.epochs == 2

    def test_phase3_from_loaded_phase2_reproduces_phase3(self, tmp_path):
        # phase II's least-squares weights come out Fortran-ordered and its
        # checkpoint loads C-ordered; at the default model widths BLAS sums
        # the two orders differently, and phase III must not see it
        sets = ["--set", "n_subjects=8", "--set", "images_per_subject=5",
                "--set", "epochs=2"]
        data, train = str(tmp_path / "data"), str(tmp_path / "train")
        assert run_cli(["gen-data", *sets, "--out", data])[0] == 0
        dataset = os.path.join(data, "dataset.mfd")
        assert run_cli(["train", "--data", dataset, *sets, "--out", train])[0] == 0
        encoder, decoder, head, config = load_checkpoint(
            os.path.join(train, "phase2.ckpt"))
        got = nw.train_phase3(encoder, decoder, head, load_dataset(dataset),
                              config.train_config("III"))
        want = load_checkpoint(os.path.join(train, "phase3.ckpt"))
        for a, b in zip(nw.all_params(*got[:3]).values(),
                        nw.all_params(*want[:3]).values()):
            assert a.tobytes() == b.tobytes()

    def test_phase1_trace_has_one_row_per_epoch(self, pipeline):
        header, rows = read_csv(os.path.join(pipeline["train_dir"],
                                             "phase1_trace.csv"))
        assert header == ["epoch", "train_loss", "val_loss"]
        assert len(rows) == 2
        assert all(np.isfinite(float(cell)) for row in rows for cell in row)

    def test_phase3_trace_follows_weight_schedule(self, pipeline):
        header, rows = read_csv(os.path.join(pipeline["train_dir"],
                                             "phase3_trace.csv"))
        assert header == ["epoch", "lambda_r", "total", "recon", "ident",
                          "accuracy"]
        lambdas = [float(row[1]) for row in rows]
        assert lambdas == [0.5] * 10 + [1.0] * 20


    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_fewer_than_one_epoch_is_a_single_error_line(self, pipeline, tmp_path,
                                                         epochs):
        code, out, err = run_cli(["train", "--data", pipeline["dataset"],
                                  *tiny_with(f"epochs={epochs}"),
                                  "--out", str(tmp_path / "train")])
        assert (code, out) == (1, "")
        assert err == "error: InvalidArgumentError: epochs must be at least 1\n"
        assert not any(name.endswith(".ckpt") for name in os.listdir(tmp_path / "train"))


# A dataset generated under another config than the checkpoint's, and the
# error `eval` and `export-bases` give for it: the pipeline fixture's
# checkpoint has 80 vertices, k_id=4, k_exp=3 and 12x12 images.
MISMATCHES = {
    "n_vertices=72": "checkpoint decoder output length is 240, but the dataset "
                     "needs 216 (3 * 72 vertices)",
    "k_id=5": "checkpoint identity code width is 4, but the dataset needs 5 (k_id)",
    "k_exp=2": "checkpoint residual code width is 3, but the dataset needs 2 (k_exp)",
    "image_resolution=16": "checkpoint encoder input length is 144, but the "
                           "dataset needs 256 (16x16 images)",
}


@pytest.fixture(scope="module")
def foreign_datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("foreign")
    paths = {}
    for setting in MISMATCHES:
        out = str(root / setting.split("=")[0])
        code, _, err = run_cli(["gen-data", *tiny_with(setting), "--out", out])
        assert code == 0, err
        paths[setting] = os.path.join(out, "dataset.mfd")
    return paths


class TestCheckpointDatasetMismatch:
    @pytest.mark.parametrize("setting", MISMATCHES)
    @pytest.mark.parametrize("command", ["eval", "export-bases"])
    def test_is_a_single_error_line_naming_both_values(
            self, pipeline, foreign_datasets, tmp_path, command, setting):
        code, out, err = run_cli([
            command, "--data", foreign_datasets[setting], "--checkpoint",
            os.path.join(pipeline["train_dir"], "phase3.ckpt"),
            "--out", str(tmp_path / "out")])
        assert (code, out) == (1, "")
        assert err == f"error: InvalidArgumentError: {MISMATCHES[setting]}\n"
        assert os.listdir(tmp_path / "out") == ["config.txt"]


class TestEval:
    def test_exits_zero_and_prints_summary(self, pipeline):
        code, out, err = pipeline["runs"]["eval"]
        assert code == 0, err
        assert re.search(r"auc \d\.\d{4} eer \d\.\d{4} rmse", out)

    def test_verification_report_in_bounds(self, pipeline):
        header, rows = read_csv(os.path.join(pipeline["eval_dir"],
                                             "verification.csv"))
        assert tuple(header) == VERIFICATION_COLUMNS
        values = dict(zip(header, (float(c) for c in rows[0])))
        assert 0.0 <= values["auc"] <= 1.0
        assert 0.0 <= values["eer"] <= 1.0
        assert 0.0 <= values["rank1"] <= values["rank5"] <= 1.0

    def test_reconstruction_reports_cover_heldout_images(self, pipeline):
        for name in ("reconstruction.csv", "reconstruction_baseline.csv"):
            header, rows = read_csv(os.path.join(pipeline["eval_dir"], name))
            values = dict(zip(header, rows[0]))
            assert values["n_pairs"] == "10"
            assert float(values["rmse_paper"]) > 0.0

    def test_disentangling_report_is_not_degenerate(self, pipeline):
        header, rows = read_csv(os.path.join(pipeline["eval_dir"],
                                             "disentangling.csv"))
        values = dict(zip(header, rows[0]))
        assert values["degenerate"] == "False"
        assert float(values["intra_distance"]) >= 0.0


class TestExportBases:
    def test_writes_one_obj_per_decoder_column(self, pipeline, tmp_path):
        out_dir = str(tmp_path / "bases")
        code, out, err = run_cli(
            ["export-bases", "--data", pipeline["dataset"],
             "--checkpoint", os.path.join(pipeline["train_dir"], "phase2.ckpt"),
             "--out", out_dir])
        assert code == 0, err
        assert "wrote 7 basis meshes" in out
        for k in range(4):
            shape = read_obj(os.path.join(out_dir, f"basis_id_{k:02d}.obj"))
            assert shape.points.shape == (80, 3)
        for k in range(3):
            shape = read_obj(os.path.join(out_dir, f"basis_res_{k:02d}.obj"))
            assert shape.points.shape == (80, 3)


class TestCheckGrad:
    def test_reports_small_error_and_exits_zero(self, tmp_path):
        code, out, err = run_cli(["check-grad", *TINY_OVERRIDES,
                                  "--out", str(tmp_path / "out")])
        assert code == 0, err
        match = re.fullmatch(r"max relative gradient error: (\d\.\d{3}e[+-]\d{2,})\n",
                             out)
        assert match is not None
        assert float(match.group(1)) < 1e-5


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        code, _, err = run_cli(["frobnicate"])
        assert code == 2
        assert "invalid choice" in err

    def test_no_subcommand_exits_2(self):
        code, _, _ = run_cli([])
        assert code == 2

    def test_missing_required_flag_exits_2(self):
        code, _, err = run_cli(["fit"])
        assert code == 2
        assert "--data" in err

    def test_missing_input_file_is_single_error_line(self, tmp_path):
        code, out, err = run_cli(["fit", "--data",
                                  str(tmp_path / "missing.mfd"),
                                  "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith("error: FileNotFoundError:")
        assert err.count("\n") == 1

    def test_corrupt_dataset_is_single_error_line(self, tmp_path):
        bad = tmp_path / "bad.mfd"
        bad.write_bytes(b"not a container at all")
        code, _, err = run_cli(["fit", "--data", str(bad),
                                "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith("error: CorruptionError:")
        assert err.count("\n") == 1

    def test_ill_typed_dataset_field_is_single_error_line(self, pipeline,
                                                           tmp_path):
        from test_io import reencode

        def edit(header):
            header["nose_tip_index"] = 1.5
        bad = tmp_path / "typed.mfd"
        bad.write_bytes(reencode(open(pipeline["dataset"], "rb").read(), edit))
        code, _, err = run_cli([
            "eval", "--data", str(bad), "--checkpoint",
            os.path.join(pipeline["train_dir"], "phase3.ckpt"),
            *TINY_OVERRIDES, "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith("error: InvariantViolationError: nose_tip_index:")
        assert err.count("\n") == 1

    def test_help_exits_zero(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0
        assert "gen-data" in out
