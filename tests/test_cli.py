"""End-to-end tests for the command line pipeline."""

import contextlib
import dataclasses
import io
import os
import re
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from morphfit import cli as cli_module
from morphfit import evaluation
from morphfit import network as nw
from morphfit import serialization
from morphfit.cli import build_parser, cli
from morphfit.config import RunConfig, load_config
from morphfit.errors import MorphfitError
from morphfit.serialization import (load_checkpoint, load_dataset, save_checkpoint,
                                    save_dataset)
from morphfit.synthetic import build_dataset, generate_model

from oracles import read_obj
from test_golden import skip_off_record
from test_io import reencode

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
    lines = Path(path).read_text().splitlines()
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
        bytes_a = Path(a, "dataset.mfd").read_bytes()
        bytes_b = Path(b, "dataset.mfd").read_bytes()
        assert bytes_a == bytes_b
        # the echoes differ only in the output_dir line
        text_a = Path(a, "config.txt").read_text()
        text_b = Path(b, "config.txt").read_text()
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

    def test_config_file_not_utf8_is_one_parse_error_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(["gen-data", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
        assert (code, out) == (1, "")
        assert err == f"error: ParseError: {cfg}: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "out").exists()

    # sizes beyond int64, which no array or generator can be asked for: each
    # fails before any allocation (a size that still allocates is never tried)
    @pytest.mark.parametrize("key", ["n_subjects", "images_per_subject", "image_resolution",
                                     "n_vertices", "k_id", "k_exp"])
    def test_size_beyond_intp_is_one_error_line(self, tmp_path, key):
        code, out, err = run_cli(["gen-data", "--set", f"{key}={10 ** 22}",
                                  "--out", str(tmp_path / "out")])
        assert (code, out) == (1, "")
        assert err == (f"error: InvalidArgumentError: {key} must be at most "
                       f"{np.iinfo(np.intp).max}\n")
        assert not (tmp_path / "out").exists()


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
        # either side of the 8 subjects' range 0..7 of the tiny dataset
        for subject in ("99", "8", "-1"):
            out_dir = tmp_path / f"fit{subject}"
            code, out, err = run_cli(["fit", "--data", pipeline["dataset"],
                                      "--subject", subject, "--out", str(out_dir)])
            assert (code, out, err) == (
                1, "", f"error: MorphfitError: subject {subject} not present in dataset\n")
            assert not out_dir.exists()


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
        for got_part, want_part in zip(got[:3], want[:3]):
            for a, b in zip(got_part.params.values(), want_part.params.values()):
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


    def test_reads_no_held_out_row(self, pipeline, tmp_path, monkeypatch):
        # 8 subjects of 5 images, the last 2 held out: every column but the
        # landmarks is read over rows 0..30 only, and the run writes the
        # pipeline's checkpoints
        real_read, windows = serialization._read, []

        def read(handle, entry, rows=None):
            windows.append((entry[0], rows))
            return real_read(handle, entry, rows)
        monkeypatch.setattr(serialization, "_read", read)
        train = str(tmp_path / "train")
        code, _, err = run_cli(["train", "--data", pipeline["dataset"], *TINY_OVERRIDES,
                                "--seed", "0", "--out", train])
        assert code == 0, err
        assert [window for window in windows if window[1] is not None] == [
            (name, range(0, 30)) for name in ("alpha_id", "alpha_exp", "pose.scale",
                                              "pose.rotation", "pose.translation", "depth")]
        for name in ("phase1.ckpt", "phase2.ckpt", "phase3.ckpt"):
            got = load_checkpoint(os.path.join(train, name))
            want = load_checkpoint(os.path.join(pipeline["train_dir"], name))
            for got_part, want_part in zip(got[:3], want[:3]):
                assert got_part.vector.tobytes() == want_part.vector.tobytes()

    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_fewer_than_one_epoch_is_a_single_error_line(self, pipeline, tmp_path,
                                                         epochs):
        code, out, err = run_cli(["train", "--data", pipeline["dataset"],
                                  *tiny_with(f"epochs={epochs}"),
                                  "--out", str(tmp_path / "train")])
        assert (code, out) == (1, "")
        assert err == "error: InvalidArgumentError: epochs must be at least 1\n"
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("setting, message", [
        ("learning_rate=inf", "learning_rate must be finite and positive"),
        ("learning_rate=nan", "learning_rate must be finite and positive"),
        ("phase3_learning_rate=inf", "learning_rate must be finite and positive"),
        ("epsilon=inf", "epsilon must be finite and positive"),
        ("head_scale=inf", "scale must be finite and positive"),
        ("head_scale=nan", "scale must be finite and positive"),
    ])
    def test_non_finite_training_constant_is_a_single_error_line(
            self, pipeline, tmp_path, setting, message):
        code, out, err = run_cli(["train", "--data", pipeline["dataset"],
                                  *TINY_OVERRIDES, "--set", setting,
                                  "--out", str(tmp_path / "train")])
        assert (code, out) == (1, "")
        assert err == f"error: InvalidArgumentError: {message}\n"
        assert not (tmp_path / "train").exists()

    @pytest.mark.parametrize("batch_size, where", [
        # two steps an epoch: the first step's overflow fails the second
        (16, "step 1: encoder activations became non-finite"),
        # one step an epoch: the epoch-end snapshot finds the overflow
        (64, "end of epoch: parameters became non-finite"),
    ])
    def test_phase1_divergence_names_its_epoch_and_step(self, pipeline, tmp_path,
                                                        batch_size, where):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["train", "--data", pipeline["dataset"],
                                      *TINY_OVERRIDES, "--set", "learning_rate=1e300",
                                      "--set", f"batch_size={batch_size}",
                                      "--out", str(tmp_path / "train")])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"error: NumericalFailureError: phase I epoch 0, {where}"]


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


@pytest.fixture(scope="module")
def unfit_checkpoint(tmp_path_factory):
    """Untrained networks for 300-vertex shapes and the tiny pipeline's code
    widths and 12x12 images: a decoder output length (900) that none of the
    datasets here has."""
    path = str(tmp_path_factory.mktemp("unfit") / "unfit.ckpt")
    save_checkpoint(nw.init_encoder(144, 4, 3), nw.init_decoder(900, 4, 3),
                    nw.init_head(6, 4), RunConfig(), path)
    return path


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
        assert not (tmp_path / "out").exists()  # not even the config echo

    def test_unfit_baseline_is_an_error_line_before_any_file(
            self, pipeline, unfit_checkpoint, tmp_path):
        code, out, err = run_cli([
            "eval", "--data", pipeline["dataset"], "--checkpoint",
            os.path.join(pipeline["train_dir"], "phase3.ckpt"),
            "--baseline", unfit_checkpoint, *TINY_OVERRIDES, "--out", str(tmp_path / "out")])
        assert (code, out) == (1, "")
        assert err == ("error: InvalidArgumentError: baseline checkpoint decoder output "
                       "length is 900, but the dataset needs 240 (3 * 80 vertices)\n")
        assert not (tmp_path / "out").exists()


class TestEval:
    def test_exits_zero_and_prints_summary(self, pipeline):
        code, out, err = pipeline["runs"]["eval"]
        assert code == 0, err
        assert re.search(r"auc \d\.\d{4} eer \d\.\d{4} rmse", out)

    def test_verification_report_in_bounds(self, pipeline):
        header, rows = read_csv(os.path.join(pipeline["eval_dir"],
                                             "verification.csv"))
        assert tuple(header) == ("accuracy_mean", "accuracy_std", "eer", "auc",
                                 "tar_far10", "tar_far1", "rank1", "rank5")
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

    def test_each_encoder_codes_the_heldout_batch_once(self, pipeline, tmp_path,
                                                        monkeypatch):
        # the phase III codes serve verification, reconstruction and the
        # disentangling report; only the re-rendered images are coded again
        calls, encode = [], nw.encode_images

        def recording(net, images):
            calls.append((net, np.array(images)))
            return encode(net, images)

        monkeypatch.setattr(nw, "encode_images", recording)
        train = pipeline["train_dir"]
        code, _, err = run_cli(["eval", "--data", pipeline["dataset"],
                                "--checkpoint", os.path.join(train, "phase3.ckpt"),
                                "--baseline", os.path.join(train, "phase2.ckpt"),
                                *TINY_OVERRIDES, "--seed", "0",
                                "--out", str(tmp_path / "eval")])
        assert code == 0, err
        dataset = load_dataset(pipeline["dataset"])
        heldout = dataset.images(dataset.test_indices)
        phase3, baseline, moved = calls
        for (net, images), checkpoint in ((phase3, "phase3"), (baseline, "phase2")):
            assert np.array_equal(images, heldout)
            want = load_checkpoint(os.path.join(train, f"{checkpoint}.ckpt"))[0]
            assert np.array_equal(net.vector, want.vector)
        assert moved[0] is phase3[0]
        assert moved[1].shape == heldout.shape and not np.array_equal(moved[1], heldout)
        for name in ("verification.csv", "reconstruction.csv",
                     "reconstruction_baseline.csv", "disentangling.csv"):
            assert ((tmp_path / "eval" / name).read_bytes()
                    == Path(pipeline["eval_dir"], name).read_bytes())

    def test_each_network_is_freed_after_its_last_read(self, pipeline, tmp_path,
                                                       monkeypatch):
        """Each network of a checkpoint is read into its own buffer, so the baseline
        encoder's is freed before the reconstruction pass and the phase III decoder's
        before the disentangling report, while the networks still to be read live."""
        def root(array):  # the array over the network's own `bytes`
            while isinstance(array.base, np.ndarray):
                array = array.base
            return array

        buffers, alive = [], {}

        def loading(path):
            nets = load_checkpoint(path)
            buffers.append([weakref.ref(root(net.vector)) for net in nets[:3]])
            return nets

        def entering(name, call):
            def wrapper(*args, **kwargs):
                alive[name] = [[ref() is not None for ref in refs] for refs in buffers]
                return call(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli_module, "load_checkpoint", loading)
        for name in ("evaluate_reconstruction", "disentangling_report"):
            monkeypatch.setattr(cli_module, name, entering(name, getattr(cli_module, name)))
        train = pipeline["train_dir"]
        code, _, err = run_cli(["eval", "--data", pipeline["dataset"],
                                "--checkpoint", os.path.join(train, "phase3.ckpt"),
                                "--baseline", os.path.join(train, "phase2.ckpt"),
                                *TINY_OVERRIDES, "--seed", "0",
                                "--out", str(tmp_path / "eval")])
        assert code == 0, err
        # per checkpoint, phase III then baseline: encoder, decoder, head
        assert alive["evaluate_reconstruction"] == [[True, True, False], [False, True, False]]
        assert alive["disentangling_report"] == [[True, False, False], [False, False, False]]

    def test_one_eval_walks_the_pairs_three_times_and_ranks_once(self, pipeline, tmp_path,
                                                                 monkeypatch):
        """Verification's genuine walk also sums the disentangling distances, and one
        rank-N pass counts both n: each block product of the identity codes is taken
        by three walks (genuine, counting, gap), and the probes are ranked once."""
        calls = {"_pair_blocks": 0, "rank_n_identification": 0}

        def counting(module, name):
            call = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return call(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(evaluation, "_pair_blocks")
        counting(cli_module, "rank_n_identification")
        code, _, err = run_cli(["eval", "--data", pipeline["dataset"], "--checkpoint",
                                os.path.join(pipeline["train_dir"], "phase3.ckpt"),
                                *TINY_OVERRIDES, "--out", str(tmp_path / "eval")])
        assert code == 0, err
        assert calls == {"_pair_blocks": 3, "rank_n_identification": 1}


@pytest.mark.parametrize("n", [1, 64, 65, 85, 86, 128, 129, 200, 257])
def test_chunked_codes_have_the_whole_stack_bits(n):
    """`eval` encodes the held-out images in even chunks of at most 128 rows, each chunk
    of 64 rows or more unless n is smaller: at the default widths (1024 -> 256 -> 256 ->
    28) every code has the bits of one product over the whole stack. The shapes pick the
    BLAS kernel, so a seeded encoder does; chunks of 32-42 rows move the bits."""
    skip_off_record()
    encoder = nw.init_encoder(1024, 20, 8)
    images = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 1024))
    sizes = []

    def read(blocks):
        for s in blocks:
            sizes.append(s.stop - s.start)
            yield images[s]

    [got] = cli_module._encode([encoder], read, n)
    want = nw.encode_images(encoder, images)
    assert [g.tobytes() == w.tobytes() for g, w in zip(got, want)] == [True, True]
    assert sum(sizes) == n and max(sizes) <= 128


@pytest.fixture(scope="module")
def scaled_eval(tmp_path_factory):
    """(overrides, {held-out rows: dataset}, checkpoint): datasets of 160 and 320 subjects
    of 5 32x32 images, whose held-out blocks are 200 and 400 rows from 600 and 1,200,
    and a seeded checkpoint that fits them."""
    root = tmp_path_factory.mktemp("scaled-eval")
    overrides = ["--set", "n_vertices=80", "--set", "k_id=4", "--set", "k_exp=3",
                 "--set", "images_per_subject=5"]
    datasets = {}
    for n_subjects, held_out in ((160, 200), (320, 400)):
        out = str(root / str(n_subjects))
        code, _, err = run_cli(["gen-data", *overrides, "--set", f"n_subjects={n_subjects}",
                                "--out", out])
        assert code == 0, err
        datasets[held_out] = os.path.join(out, "dataset.mfd")
    checkpoint = str(root / "model.ckpt")
    save_checkpoint(nw.init_encoder(1024, 4, 3), nw.init_decoder(240, 4, 3),
                    nw.init_head(6, 4), RunConfig(), checkpoint)
    return overrides, datasets, checkpoint


class TestEvalByChunk:
    def eval(self, scaled_eval, held_out, out, checkpoint=None, baseline=None):
        overrides, datasets, model = scaled_eval
        return run_cli(["eval", "--data", datasets[held_out], "--checkpoint",
                        checkpoint or model, "--baseline", baseline or model,
                        *overrides, "--out", str(out)])

    def test_reads_the_depth_by_chunk_and_no_landmarks(self, scaled_eval, tmp_path,
                                                       monkeypatch):
        real_read, reads = serialization._read, []

        def read(handle, entry, rows=None):
            reads.append((entry[0], rows))
            return real_read(handle, entry, rows)
        monkeypatch.setattr(serialization, "_read", read)
        code, _, err = self.eval(scaled_eval, 400, tmp_path / "eval")
        assert code == 0, err
        names = [name for name, _ in reads]
        assert "landmarks" not in names and names.count("depth") == 4
        depth = [rows for name, rows in reads if name == "depth"]
        assert all(len(rows) <= 128 for rows in depth)
        assert [row for rows in depth for row in rows] == list(range(1200, 1600))

    def test_peak_grows_by_less_than_the_depth_column(self, scaled_eval, tmp_path):
        """From 200 to 400 held-out rows, the tracemalloc peak of `eval` above its entry
        grows by less than the 200 rows' depth column (1.6 MB): no depth row is held
        after the encode pass, and no call holds the whole column."""
        code, _, err = self.eval(scaled_eval, 200, tmp_path / "warm-up")
        assert code == 0, err
        peaks = []
        for held_out in (200, 400):
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                code, _, err = self.eval(scaled_eval, held_out, tmp_path / str(held_out))
                peaks.append(tracemalloc.get_traced_memory()[1] - entry)
            finally:
                tracemalloc.stop()
            assert code == 0, err
        assert peaks[1] - peaks[0] < 200 * 32 * 32 * 8, peaks

    def test_a_bad_depth_row_fails_after_the_checkpoint_checks(
            self, scaled_eval, pipeline, unfit_checkpoint, tmp_path):
        # row 750 is in the second chunk of the held-out rows 600..800
        _, datasets, _ = scaled_eval
        with open(datasets[200], "rb") as handle:
            offset = {name: at for name, _, _, at, _ in serialization._index(handle)[1]}
        data, at = bytearray(Path(datasets[200]).read_bytes()), offset["depth"] + 8 * 750 * 1024
        data[at:at + 8] = np.float64(np.nan).tobytes()
        bad = tmp_path / "bad.mfd"
        bad.write_bytes(data)
        scaled_eval = (scaled_eval[0], {200: str(bad)}, scaled_eval[2])
        phase3 = os.path.join(pipeline["train_dir"], "phase3.ckpt")
        for checkpoint, baseline, message in (
                (phase3, None, "InvalidArgumentError: checkpoint encoder input length is "
                               "144, but the dataset needs 1024 (32x32 images)"),
                (None, unfit_checkpoint, "InvalidArgumentError: baseline checkpoint decoder "
                                         "output length is 900, but the dataset needs 240 "
                                         "(3 * 80 vertices)"),
                (None, None, "InvariantViolationError: dataset: sample 750 depth: "
                             "values must be finite")):
            out = tmp_path / "out"
            assert self.eval(scaled_eval, 200, out, checkpoint, baseline) == (
                1, "", f"error: {message}\n")
            assert not out.exists()

    def test_a_file_changed_after_the_load_fails(self, scaled_eval, tmp_path, monkeypatch):
        # `eval` reads the depth from a second open, which must find the spec and the depth
        # shape of the first: here the file is replaced by another dataset, or by its own
        # bytes with the depth stored as flat rows, between the two
        _, datasets, _ = scaled_eval
        source, path = Path(datasets[200]).read_bytes(), tmp_path / "data.mfd"
        flat = reencode(source, lambda header: next(
            e for e in header["arrays"] if e["name"] == "depth").update(shape=[800, 1024]))
        real_load = cli_module.load_dataset
        for replacement in (Path(datasets[400]).read_bytes(), flat):
            def load(*args, **kwargs):
                dataset = real_load(*args, **kwargs)
                path.write_bytes(replacement)
                return dataset
            path.write_bytes(source)
            monkeypatch.setattr(cli_module, "load_dataset", load)
            out = tmp_path / "out"
            assert self.eval((scaled_eval[0], {200: str(path)}, scaled_eval[2]), 200, out) == (
                1, "", "error: InvariantViolationError: dataset: changed since it was loaded\n")
            assert not out.exists()


# Held-out sets that `eval` cannot verify on, and the one error line each gives:
# one image per subject leaves rank-N identification no probe, and a single
# held-out subject leaves the report no impostor pair. The pairs are scored
# first, then rank-N is checked, then the report.
HELDOUT_EDGES = {
    "images_per_subject=1": "no probes given",
    "n_subjects=4": "need at least one genuine and one impostor pair",
}


class TestEvalHeldOutEdges:
    @pytest.mark.parametrize("setting", HELDOUT_EDGES)
    def test_is_a_single_error_line(self, pipeline, tmp_path, setting):
        data = str(tmp_path / "data")
        code, _, err = run_cli(["gen-data", *tiny_with(setting), "--seed", "0",
                                "--out", data])
        assert code == 0, err
        code, out, err = run_cli([
            "eval", "--data", os.path.join(data, "dataset.mfd"), "--checkpoint",
            os.path.join(pipeline["train_dir"], "phase3.ckpt"), *tiny_with(setting),
            "--seed", "0", "--out", str(tmp_path / "out")])
        assert (code, out) == (1, "")
        assert err == f"error: InvalidArgumentError: {HELDOUT_EDGES[setting]}\n"


# A held-out row with finite but huge coefficients, which a dataset container
# accepts, and the one error line `eval` gives for it. At k_id=10 and k_exp=4
# the row that sums the basis rows' magnitudes composes to an infinite
# coordinate; one coefficient at 1.7e308 keeps the shape finite (each basis
# entry is below 1) but overflows its squared error; at the tiny pipeline's
# k_id=4 and k_exp=3 the first construction stays finite, and the mean of
# its landmarks overflows.
HUGE_SETS = [{"k_id=4": "k_id=10", "k_exp=3": "k_exp=4"}.get(item, item)
             for item in TINY_OVERRIDES]
HUGE_ROWS = {
    "composed overflow": (HUGE_SETS, "ground-truth shapes must be finite"),
    "one huge coefficient": (HUGE_SETS, "pair 0: reconstruction error is not finite"),
    "landmark mean overflow": (TINY_OVERRIDES, "pair 0: cross-covariance is not finite"),
}


@pytest.fixture(scope="module")
def wide_pipeline(tmp_path_factory):
    """(dataset, phase III checkpoint) of gen-data and train at HUGE_SETS."""
    root = tmp_path_factory.mktemp("wide")
    dataset = str(root / "data" / "dataset.mfd")
    for argv in (["gen-data", *HUGE_SETS, "--out", str(root / "data")],
                 ["train", "--data", dataset, *HUGE_SETS, "--out", str(root / "train")]):
        code, _, err = run_cli(argv)
        assert code == 0, err
    return dataset, str(root / "train" / "phase3.ckpt")


def save_with_huge_row(source: str, case: str, path: str) -> None:
    """`source`'s dataset with its first held-out row's coefficients replaced."""
    dataset = load_dataset(source)
    model, row = dataset.model, dataset.test_indices[0]
    alpha_id, alpha_exp = np.array(dataset.alpha_id), np.array(dataset.alpha_exp)
    if case == "one huge coefficient":
        alpha_id[row, 0] = 1.7e308
    else:
        v = int(np.argmax(np.abs(model.basis_id).sum(axis=1)))
        alpha_id[row] = 1.7e308 * np.sign(model.basis_id[v])
        alpha_exp[row] = 1.7e308 * np.sign(model.basis_exp[v])
    save_dataset(dataclasses.replace(dataset, alpha_id=alpha_id, alpha_exp=alpha_exp), path)


class TestHugeCoefficients:
    @pytest.mark.parametrize("case", sorted(HUGE_ROWS))
    def test_eval_is_one_error_line(self, pipeline, wide_pipeline, tmp_path, case):
        overrides, message = HUGE_ROWS[case]
        source, checkpoint = (wide_pipeline if overrides is HUGE_SETS else
                              (pipeline["dataset"],
                               os.path.join(pipeline["train_dir"], "phase3.ckpt")))
        dataset = str(tmp_path / "huge.mfd")
        save_with_huge_row(source, case, dataset)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["eval", "--data", dataset, "--checkpoint", checkpoint,
                                      *overrides, "--out", str(tmp_path / "eval")])
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (1, "")
        assert err == f"error: InvalidArgumentError: {message}\n"


# Subject 0's landmark rows scaled up, which a dataset container accepts while
# they stay finite: from ~2.2e153 the squared norm of a row, the image's
# landmark energy, overflows, and `fit` rejects the row before any pose
# estimate could overflow in turn.
HUGE_LANDMARK_ERROR = ("error: InvalidArgumentError: image 0: landmark coordinates "
                       "must be finite, and their squares must sum to a finite energy\n")


class TestHugeLandmarks:
    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e300, 1e308])
    def test_fit_is_clean_or_one_error_line(self, pipeline, tmp_path, scale):
        dataset = load_dataset(pipeline["dataset"])
        landmarks = np.array(dataset.landmarks)
        landmarks[dataset.labels == 0] *= scale
        path = str(tmp_path / "huge.mfd")
        save_dataset(dataclasses.replace(dataset, landmarks=landmarks), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(["fit", "--data", path, "--subject", "0",
                                    "--out", str(tmp_path / "fit")])
        assert [str(w.message) for w in caught] == []
        if scale < 1e153:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (1, HUGE_LANDMARK_ERROR)


@pytest.fixture(scope="module")
def huge_checkpoint(pipeline, tmp_path_factory):
    """The tiny pipeline's phase III checkpoint with every weight of its first
    encoder layer at 1e308: tanh saturates, so the codes would look finite."""
    encoder, decoder, head, config = load_checkpoint(
        os.path.join(pipeline["train_dir"], "phase3.ckpt"))
    weight = np.full_like(encoder.params["enc.0.weight"], 1e308)
    huge = nw.EncoderNet(*encoder._structure,
                         params={**encoder.params, "enc.0.weight": weight})
    path = str(tmp_path_factory.mktemp("huge-ckpt") / "phase3.ckpt")
    save_checkpoint(huge, decoder, head, config, path)
    return path


class TestFloatingPointBoundary:
    """Overflow, invalid operations and division by zero raise inside a
    command and end as one error line."""

    def test_overflow_is_one_error_line(self, pipeline, huge_checkpoint, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["eval", "--data", pipeline["dataset"],
                                      "--checkpoint", huge_checkpoint, *TINY_OVERRIDES,
                                      "--out", str(tmp_path / "eval")])
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: NumericalFailureError: eval: overflow encountered in \w+\n",
                            err), err

    def test_state_is_restored(self, pipeline, huge_checkpoint, tmp_path):
        """cli leaves numpy's floating-point error state as it found it, after
        a clean exit, an error line and a usage error."""
        calls = [["export-bases", "--data", pipeline["dataset"], "--checkpoint",
                  os.path.join(pipeline["train_dir"], "phase3.ckpt"), *TINY_OVERRIDES],
                 ["eval", "--data", pipeline["dataset"], "--checkpoint", huge_checkpoint,
                  *TINY_OVERRIDES],
                 ["export-bases", "--bogus"]]
        with np.errstate(divide="ignore", over="print", under="ignore", invalid="ignore"):
            before = np.geterr()
            codes = []
            for argv in calls:
                codes.append(run_cli([*argv, "--out", str(tmp_path / "out")])[0])
                assert np.geterr() == before
        assert codes == [0, 1, 2]


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

    @pytest.mark.parametrize("batch, subjects", [
        ("1", 1), ("4", 1), ("5", 2), ("16", 4), ("1000", 6), ("-1", 6), ("0", 1)])
    def test_renders_only_the_subjects_of_its_batch(self, tmp_path, monkeypatch,
                                                    batch, subjects):
        # eight subjects of five images, four of each of the first six for
        # training: the batch's rows run to subject `subjects - 1`
        rendered = []

        def build(model, spec, subjects=None):
            rendered.append(subjects)
            return build_dataset(model, spec, subjects)

        monkeypatch.setattr(cli_module, "build_dataset", build)
        argv = ["check-grad", *TINY_OVERRIDES, "--set", f"batch_size={batch}"]
        got = run_cli([*argv, "--out", str(tmp_path / "out")])
        assert rendered == [subjects]
        # the audit of the same batch drawn from the whole dataset
        config = cli_module._effective_config(build_parser().parse_args(argv))
        dataset = build_dataset(generate_model(config.model_spec()), config.dataset_spec())
        encoder, decoder, head = cli_module._init_networks(config, dataset)
        try:
            error = nw.finite_diff_check(encoder, decoder, head, nw.training_batch(
                dataset, dataset.train_indices[:config.batch_size]), lambda_r=config.lambda_r)
        except MorphfitError as exc:
            assert got == (1, "", f"error: {type(exc).__name__}: {exc}\n")
        else:
            assert got == (0, f"max relative gradient error: {error:.3e}\n", "")


class TestParserReuse:
    def test_one_parser_per_process(self):
        parser = build_parser()
        assert build_parser() is parser
        parsed = [parser.parse_args(["check-grad", *sets]).overrides
                  for sets in (["--set", "k_id=3"], [], ["--set", "k_exp=2"])]
        assert parsed == [["k_id=3"], [], ["k_exp=2"]]

    def test_set_lists_do_not_leak_between_calls(self, tmp_path):
        first, second = str(tmp_path / "first"), str(tmp_path / "second")
        assert run_cli(["gen-data", *TINY_OVERRIDES, "--set", "landmark_noise_sigma=0.01",
                        "--out", first])[0] == 0
        assert run_cli(["gen-data", *TINY_OVERRIDES, "--out", second])[0] == 0
        assert load_config(os.path.join(first, "config.txt")).landmark_noise_sigma == 0.01
        assert load_config(os.path.join(second, "config.txt")).landmark_noise_sigma == 0.0


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
        """No container, and headers that overflow an int, pass Python's 4,300-digit
        limit or nest past the recursion limit: one error line each, in `fit` and
        in `eval`."""
        bad = tmp_path / "bad.mfd"
        headers = (b'{"format_version":2,"arrays":[{"name":"alpha_id","dtype":"f8",'
                   b'"shape":[1e400,6]}]}', b'{"n_subjects":' + b"9" * 5000 + b"}",
                   b"[" * 100_000)
        for data in (b"not a container at all",
                     *(serialization.MAGIC + len(h).to_bytes(8, "little") + h
                       for h in headers)):
            bad.write_bytes(data)
            for stage in (["fit"], ["eval", "--checkpoint", str(bad)]):
                code, _, err = run_cli([*stage, "--data", str(bad),
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
        bad.write_bytes(reencode(Path(pipeline["dataset"]).read_bytes(), edit))
        code, _, err = run_cli([
            "eval", "--data", str(bad), "--checkpoint",
            os.path.join(pipeline["train_dir"], "phase3.ckpt"),
            *TINY_OVERRIDES, "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.startswith("error: InvariantViolationError: nose_tip_index:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("stage, container", [("fit", "dataset"), ("eval", "dataset"),
                                                  ("eval", "checkpoint")])
    def test_version_1_container_is_single_error_line(self, pipeline, tmp_path,
                                                      stage, container):
        # version 1 stored a labels column and n_samples; nothing of it is read
        from test_io import reencode

        inputs = {"dataset": pipeline["dataset"],
                  "checkpoint": os.path.join(pipeline["train_dir"], "phase3.ckpt")}
        old = tmp_path / os.path.basename(inputs[container])
        old.write_bytes(reencode(Path(inputs[container]).read_bytes(),
                                 lambda header: header.update(format_version=1)))
        inputs[container] = str(old)
        argv = (["fit", "--data", inputs["dataset"]] if stage == "fit" else
                ["eval", "--data", inputs["dataset"], "--checkpoint", inputs["checkpoint"],
                 *TINY_OVERRIDES])
        code, out, err = run_cli([*argv, "--out", str(tmp_path / "out")])
        assert (code, out, err) == (
            1, "", "error: VersionMismatchError: container format version 1, expected 2\n")
        assert not (tmp_path / "out").exists()

    def test_refused_allocation_is_single_error_line(self, tmp_path, monkeypatch):
        # numpy's message for an array it cannot allocate; raised, not allocated
        message = ("Unable to allocate 7.28 TiB for an array with shape "
                   "(1000000, 1000000) and data type float64")

        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli_module, "build_dataset", refuse)
        code, out, err = run_cli(["gen-data", *TINY_OVERRIDES,
                                  "--out", str(tmp_path / "data")])
        assert (code, out, err) == (1, "", f"error: MemoryError: {message}\n")
        assert not (tmp_path / "data").exists()

    def test_help_exits_zero(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0
        assert "gen-data" in out


# ---------------------------------------------------------------------------
# The CLI contract over stage x config x input: a call exits 0, or exits 1
# with one `error: Kind: message` line and no warning ahead of it, or exits 2
# on a usage error. Overrides are edge values at the tiny sizes; none asks
# for an allocation that could matter (whether a huge size ends in a
# MemoryError, which `cli` does not catch, is left open).

TINY_SETTINGS = dict(item.split("=") for item in TINY_OVERRIDES[1::2])
EDGE_VALUES = {
    **{key: ("0", "1", "-1", "2") for key in (
        "n_vertices", "k_id", "k_exp", "n_subjects", "images_per_subject",
        "max_iterations", "batch_size", "epochs", "phase2_pairs", "n_folds", "seed")},
    "image_resolution": ("0", "-1", "7", "8"),
    **{key: ("0", "-1", "nan", "inf", "1e300") for key in (
        "smoothness", "landmark_noise_sigma", "rel_tol", "reg_id", "reg_exp",
        "learning_rate", "epsilon", "lambda_r", "phase3_learning_rate", "head_scale",
        "crop_radius")},
    **{key: ("0", "1", "-1", "nan") for key in ("beta1", "beta2")},
    **{f"{name}_{end}": ("nan", "-inf", "inf", "-1", "1") for name in ("yaw", "scale", "tz")
       for end in ("lo", "hi")},
}
STAGES = ("gen-data", "fit", "train", "eval", "export-bases", "check-grad")
# the tiny pipeline's own dataset, then ones built under another config
INPUTS = ("own", *MISMATCHES, "n_subjects=3")


@st.composite
def contract_calls(draw, stages=STAGES):
    """(stage, settings, input, extra argv) for one CLI call of one of `stages`."""
    settings = dict(TINY_SETTINGS)
    for key in draw(st.lists(st.sampled_from(sorted(EDGE_VALUES)), max_size=3, unique=True)):
        settings[key] = draw(st.sampled_from(EDGE_VALUES[key]))
    stage = draw(st.sampled_from(stages))
    extra = []
    if stage == "fit":
        extra += ["--subject", draw(st.sampled_from(["0", "1", "-1", "99"]))]
    if stage in ("eval", "export-bases"):
        phases = st.sampled_from(["phase1", "phase2", "phase3"])
        extra += ["--checkpoint", draw(phases)]
        if stage == "eval" and draw(st.booleans()):  # or one that fits no dataset
            extra += ["--baseline", draw(st.sampled_from(["phase1", "phase2", "phase3",
                                                          "unfit"]))]
    # one call in five is a usage error
    extra += draw(st.sampled_from([[]] * 8 + [["--bogus"], ["--seed", "x"]]))
    return stage, settings, draw(st.sampled_from(INPUTS)), extra


@pytest.fixture(scope="module")
def contract_inputs(pipeline, foreign_datasets, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("subjects"))
    code, _, err = run_cli(["gen-data", *tiny_with("n_subjects=3"), "--out", out])
    assert code == 0, err
    return {"own": pipeline["dataset"], **foreign_datasets,
            "n_subjects=3": os.path.join(out, "dataset.mfd")}


def contract_argv(call, pipeline, contract_inputs, unfit_checkpoint, out: str) -> list[str]:
    """The argv of a `contract_calls` call that writes to `out`."""
    stage, settings, data, extra = call
    argv = [stage, *(f"--set={key}={value}" for key, value in settings.items()), "--out", out]
    if stage in ("fit", "train", "eval", "export-bases"):
        argv += ["--data", contract_inputs[data]]
    return argv + [os.path.join(pipeline["train_dir"], f"{item}.ckpt")
                   if item.startswith("phase") else
                   unfit_checkpoint if item == "unfit" else item for item in extra]


class TestCliContract:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(call=contract_calls())
    # escapes the property found: a numpy ValueError from a negative seed and
    # from an empty check-grad batch, an overflow warning ahead of the error
    # line of a diverging phase III, and a phase III whose Adam second moment
    # overflowed, which exited 0 with overflow warnings; and a numpy ValueError
    # from a baseline checkpoint whose decoder did not fit the dataset
    @example(call=("train", {**TINY_SETTINGS, "seed": "-1"}, "own", []))
    @example(call=("check-grad", {**TINY_SETTINGS, "batch_size": "0"}, "own", []))
    @example(call=("train", {**TINY_SETTINGS, "phase3_learning_rate": "1e300"}, "own", []))
    @example(call=("train", {**TINY_SETTINGS, "head_scale": "1e300"}, "own", []))
    @example(call=("eval", TINY_SETTINGS, "own",
                   ["--checkpoint", "phase3", "--baseline", "unfit"]))
    def test_exit_0_or_1_with_one_error_line_or_2(self, pipeline, contract_inputs,
                                                  unfit_checkpoint, tmp_path_factory, call):
        argv = contract_argv(call, pipeline, contract_inputs, unfit_checkpoint,
                             str(tmp_path_factory.mktemp("contract")))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert re.fullmatch(r"error: \w+: [^\n]*\n", err), (argv, err)
        if code in (0, 1):
            assert caught == [], (argv, [str(w.message) for w in caught])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(call=contract_calls(("eval",)))
    # a crop radius that reconstruction refuses, after verification has run
    @example(call=("eval", {**TINY_SETTINGS, "crop_radius": "-1"}, "own",
                   ["--checkpoint", "phase3"]))
    @example(call=("eval", {**TINY_SETTINGS, "crop_radius": "nan"}, "own",
                   ["--checkpoint", "phase3", "--baseline", "phase2"]))
    def test_a_failed_eval_writes_no_file(self, pipeline, contract_inputs, unfit_checkpoint,
                                          tmp_path_factory, call):
        out = tmp_path_factory.mktemp("failed-eval")
        code, _, err = run_cli(contract_argv(call, pipeline, contract_inputs,
                                             unfit_checkpoint, str(out)))
        if code != 0:
            assert list(out.iterdir()) == [], (call, err)
