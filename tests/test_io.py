"""Tests for file formats (OBJ, CSV, binary containers) and run configuration."""

import contextlib
import io
import json
import math
import os
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morphfit.cli import _echo_config, cli
from morphfit.config import (CONFIG_VERSION, RunConfig, format_config,
                             load_config, parse_config)
from morphfit.errors import (CorruptionError, InvalidArgumentError,
                             InvariantViolationError, MorphfitError,
                             ParseError, VersionMismatchError)
from morphfit.evaluation import (DisentanglingReport, ReconstructionReport,
                                 VerificationReport)
from morphfit.network import EncoderNet, init_decoder, init_encoder, init_head
from morphfit.serialization import (FORMAT_VERSION, MAGIC, _index, _pack, _read,
                                    load_checkpoint, load_dataset,
                                    save_checkpoint, save_dataset, write_obj,
                                    write_table_csv)
from morphfit.geometry import MorphableModel
from morphfit.synthetic import (COLUMNS, Dataset, DatasetSpec, PoseRanges,
                               build_dataset, split_indices)

from oracles import read_obj, window_of


# ---------------------------------------------------------------------------
# Container-tampering helpers: parse the header, edit it (or the payload),
# and re-encode, so corruption tests hit real byte layouts.

def unpack(handle) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of `handle`'s container, each read by `_read` as a
    read-only view of its own `bytes`."""
    header, layout = _index(handle)
    return header, {entry[0]: _read(handle, entry) for entry in layout}


def reencode(data: bytes, edit) -> bytes:
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(data[start:start + header_len].decode("utf-8"))
    edit(header)
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(blob)) + blob + data[start + header_len:]


def payload_offset(data: bytes, name: str) -> int:
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(data[start:start + header_len].decode("utf-8"))
    offset = start + header_len
    for entry in header["arrays"]:
        if entry["name"] == name:
            return offset
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        offset += count * 8
    raise KeyError(name)


def drop_array(data: bytes, name: str) -> bytes:
    """The container without array `name`: header entry and payload bytes."""
    offset = payload_offset(data, name)
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(data[start:start + header_len].decode("utf-8"))
    entry = next(e for e in header["arrays"] if e["name"] == name)
    nbytes = 8 * (int(np.prod(entry["shape"])) if entry["shape"] else 1)
    return reencode(data[:offset] + data[offset + nbytes:],
                    lambda h: h["arrays"].remove(entry))


def rearrange(data: bytes, edit) -> bytes:
    """The container with its (header entry, payload bytes) list edited in
    place by `edit`, so entries and their payloads move together."""
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(data[start:start + header_len].decode("utf-8"))
    items, offset = [], start + header_len
    for entry in header["arrays"]:
        nbytes = 8 * math.prod(entry["shape"])
        items.append((entry, data[offset:offset + nbytes]))
        offset += nbytes
    edit(items)
    header["arrays"] = [entry for entry, _ in items]
    return craft(header, b"".join(chunk for _, chunk in items))


def craft(header: dict, payload: bytes = b"") -> bytes:
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(blob)) + blob + payload


@pytest.fixture(scope="module")
def tiny_dataset(small_model):
    spec = DatasetSpec(n_subjects=2, images_per_subject=3,
                       image_resolution=16, seed=42)
    return build_dataset(small_model, spec)


@pytest.fixture(scope="module")
def stack():
    rng = np.random.default_rng(11)
    encoder = EncoderNet((16, 8, 5), ("tanh", "linear"), q_id=3, q_res=2, params={
        "enc.0.weight": rng.normal(0.0, 0.3, size=(8, 16)), "enc.0.bias": np.zeros(8),
        "enc.1.weight": rng.normal(0.0, 0.3, size=(5, 8)), "enc.1.bias": np.zeros(5)})
    decoder = init_decoder(16, q_id=3, q_res=2, seed=8)
    head = init_head(4, q_id=3, seed=9)
    config = RunConfig(epochs=7, learning_rate=1 / 3, seed=5,
                       output_dir="artifacts")
    return encoder, decoder, head, config


# ---------------------------------------------------------------------------
# OBJ point clouds.

class TestObjFiles:
    def test_roundtrip_close_to_nine_digits(self, tmp_path):
        rng = np.random.default_rng(0)
        coords = rng.normal(0.0, 2.0, size=75)
        path = str(tmp_path / "cloud.obj")
        write_obj(coords, path)
        back = read_obj(path)
        assert np.allclose(back.coords, coords, rtol=1e-8, atol=1e-12)

    def test_written_text_is_exact(self, tmp_path):
        coords = np.array([0.5, -1.25, 2.0,
                           1 / 3, 0.0, -0.0,
                           10.0, 1e-9, 123456789.0,
                           3.5, 4.5, 5.5])
        path = str(tmp_path / "exact.obj")
        write_obj(coords, path)
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
        assert text == ("v 0.5 -1.25 2\n"
                        "v 0.333333333 0 -0\n"
                        "v 10 1e-09 123456789\n"
                        "v 3.5 4.5 5.5\n")

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=-2.2250738585072014e-308,
                  max_value=2.2250738585072014e-308),  # subnormals and zeros
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
                         1.7976931348623157e308, 0.1234567895, 1.0000000005,
                         999999999.5, -2.5e-10]),
        # ten significant digits ending in 5: the ninth digit rounds
        st.builds(lambda digits, exponent: (10 * digits + 5) * 10.0 ** exponent,
                  st.integers(10 ** 8, 10 ** 9 - 1), st.integers(-30, 20))),
        min_size=12, max_size=90).filter(lambda values: len(values) % 3 == 0))
    def test_matches_the_per_line_writer(self, tmp_path, values):
        # the writers as they were: one f-string per vertex line, and one str
        # %-format of the whole file, then encoded
        coords = np.array(values)
        lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in coords.reshape(-1, 3)]
        text = ("v %.9g %.9g %.9g\n" * (len(values) // 3)) % tuple(values)
        path = str(tmp_path / "cloud.obj")
        write_obj(coords, path)
        with open(path, "rb") as handle:
            written = handle.read()
        assert written == ("\n".join(lines) + "\n").encode("ascii")
        assert written == text.encode("ascii")

    def test_creates_missing_directories(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "cloud.obj")
        write_obj(np.arange(12, dtype=np.float64), path)
        assert os.path.exists(path)

    def test_no_temp_files_left_behind(self, tmp_path):
        write_obj(np.arange(12, dtype=np.float64), str(tmp_path / "cloud.obj"))
        assert sorted(os.listdir(tmp_path)) == ["cloud.obj"]

    @pytest.mark.parametrize("size", [11, 13])
    def test_rejects_a_length_not_a_multiple_of_3(self, tmp_path, size):
        with pytest.raises(InvalidArgumentError, match="flat"):
            write_obj(np.zeros(size), str(tmp_path / "cloud.obj"))
        assert os.listdir(tmp_path) == []

    def test_rejects_a_2d_array(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="flat"):
            write_obj(np.zeros((4, 3)), str(tmp_path / "cloud.obj"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_coordinates(self, tmp_path, bad):
        coords = np.arange(12, dtype=np.float64)
        coords[7] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            write_obj(coords, str(tmp_path / "cloud.obj"))
        assert os.listdir(tmp_path) == []

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "commented.obj"
        path.write_text("# header comment\n\nv 0 0 0\nv 1 0 0\n"
                        "  # indented comment\nv 0 1 0\nv 0 0 1\n")
        shape = read_obj(str(path))
        assert shape.points.shape == (4, 3)
        assert np.array_equal(shape.points[1], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("directive", ["f 1 2 3", "vn 0 0 1", "vt 0 1"])
    def test_unsupported_directive_names_itself_and_line(self, tmp_path, directive):
        path = tmp_path / "faces.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\n{directive}\n")
        with pytest.raises(ParseError) as exc:
            read_obj(str(path))
        keyword = directive.split()[0]
        assert f"'{keyword}'" in str(exc.value)
        assert "line 3" in str(exc.value)
        assert exc.value.line == 3

    def test_wrong_vertex_arity(self, tmp_path):
        path = tmp_path / "short.obj"
        path.write_text("v 1 2\n")
        with pytest.raises(ParseError) as exc:
            read_obj(str(path))
        assert "got 2" in str(exc.value)
        assert exc.value.line == 1

    def test_malformed_coordinate(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 2 zebra\n")
        with pytest.raises(ParseError) as exc:
            read_obj(str(path))
        assert "coordinate" in str(exc.value)
        assert exc.value.line == 2

    def test_empty_file_fails_minimum_vertex_count(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("")
        with pytest.raises(InvalidArgumentError):
            read_obj(str(path))

    def test_three_vertices_fail_minimum_vertex_count(self, tmp_path):
        path = tmp_path / "three.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\n")
        with pytest.raises(InvalidArgumentError):
            read_obj(str(path))


# ---------------------------------------------------------------------------
# CSV reports.

def write_report(report, path: str) -> None:
    """A report's CSV as `eval` writes it: its field names, then its one row."""
    write_table_csv(report._fields, [report], path)


class TestReportCsv:
    def test_verification_schema_and_exact_floats(self, tmp_path):
        report = VerificationReport(accuracy_mean=0.9125, accuracy_std=0.03,
                                    eer=0.1, auc=1 / 3, tar_far10=0.95,
                                    tar_far1=0.8, rank1=0.75, rank5=1.0)
        path = str(tmp_path / "verification.csv")
        write_report(report, path)
        header, row = Path(path).read_text().splitlines()
        assert header == "accuracy_mean,accuracy_std,eer,auc,tar_far10,tar_far1,rank1,rank5"
        cells = row.split(",")
        assert [float(c) for c in cells] == [0.9125, 0.03, 0.1, 1 / 3,
                                             0.95, 0.8, 0.75, 1.0]

    def test_missing_ranks_serialize_as_nan(self, tmp_path):
        report = VerificationReport(accuracy_mean=0.5, accuracy_std=0.0,
                                    eer=0.5, auc=0.5, tar_far10=0.5, tar_far1=0.5)
        path = str(tmp_path / "noranks.csv")
        write_report(report, path)
        row = Path(path).read_text().splitlines()[1].split(",")
        assert row[-2:] == ["nan", "nan"]
        assert math.isnan(float(row[-1]))

    def test_reconstruction_schema_keeps_int_pairs(self, tmp_path):
        report = ReconstructionReport(rmse_paper=1.25e-4,
                                      mean_vertex_dist=2.5e-3,
                                      n_pairs=40, crop_radius=0.95)
        path = str(tmp_path / "recon.csv")
        write_report(report, path)
        header, row = Path(path).read_text().splitlines()
        assert header == "rmse_paper,mean_vertex_dist,n_pairs,crop_radius"
        cells = row.split(",")
        assert cells[2] == "40"
        assert float(cells[0]) == 1.25e-4
        assert float(cells[1]) == 2.5e-3
        assert float(cells[3]) == 0.95

    def test_disentangling_schema_and_bool_cell(self, tmp_path):
        report = DisentanglingReport(intra_distance=0.25, inter_distance=0.75,
                                     displacement_ratio=0.6,
                                     variance_explained=0.8, degenerate=False)
        path = str(tmp_path / "disent.csv")
        write_report(report, path)
        header, row = Path(path).read_text().splitlines()
        assert header == ("intra_distance,inter_distance,displacement_ratio,"
                          "variance_explained,degenerate")
        assert row.split(",")[-1] == "False"

    def test_degenerate_report_serializes_nans(self, tmp_path):
        report = DisentanglingReport(intra_distance=0.0, inter_distance=0.0,
                                     displacement_ratio=float("nan"),
                                     variance_explained=float("nan"),
                                     degenerate=True)
        path = str(tmp_path / "degenerate.csv")
        write_report(report, path)
        row = Path(path).read_text().splitlines()[1].split(",")
        assert row[2] == "nan" and row[3] == "nan" and row[4] == "True"


class TestTableCsv:
    def test_floats_roundtrip_exactly(self, tmp_path):
        rows = [(0, 0.5, 0.25), (1, 1 / 3, 1e-17), (2, float("nan"), -0.125)]
        path = str(tmp_path / "trace.csv")
        write_table_csv(("epoch", "train", "val"), rows, path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "epoch,train,val"
        parsed = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
        assert parsed[0] == (0.0, 0.5, 0.25)
        assert parsed[1][1] == 1 / 3 and parsed[1][2] == 1e-17
        assert math.isnan(parsed[2][1]) and parsed[2][2] == -0.125

    def test_row_length_must_match_header(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            write_table_csv(("a", "b"), [(1, 2), (3,)],
                            str(tmp_path / "ragged.csv"))

    def test_header_only_when_no_rows(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write_table_csv(("a", "b"), [], path)
        assert Path(path).read_text() == "a,b\n"


# ---------------------------------------------------------------------------
# Binary container plumbing, exercised through the checkpoint format.

class TestContainerFormat:
    @pytest.fixture()
    def checkpoint_bytes(self, stack, tmp_path):
        path = str(tmp_path / "model.mfc")
        save_checkpoint(*stack, path)
        return Path(path).read_bytes()

    def test_starts_with_magic(self, checkpoint_bytes):
        assert checkpoint_bytes[:len(MAGIC)] == MAGIC

    def test_bad_magic(self, checkpoint_bytes, tmp_path):
        path = tmp_path / "notmagic.mfc"
        path.write_bytes(b"NOTMORPH" + checkpoint_bytes[len(MAGIC):])
        with pytest.raises(CorruptionError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "cut.mfc"
        path.write_bytes(MAGIC + struct.pack("<Q", 1000) + b"{}")
        with pytest.raises(CorruptionError, match="truncated header"):
            load_checkpoint(str(path))

    def test_header_must_be_json(self, tmp_path):
        """Text that is no JSON, an integer past Python's 4,300-digit limit and
        nesting past the recursion limit are all one unreadable header."""
        path = tmp_path / "notjson.mfc"
        for blob in (b"definitely not json", b'{"format_version":' + b"1" * 5000 + b"}",
                     b"[" * 100_000):
            path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob)
            with pytest.raises(CorruptionError, match="unreadable header"):
                load_checkpoint(str(path))

    def test_version_mismatch_is_distinct_error(self, tmp_path):
        # a float that equals the version is no version either
        path = tmp_path / "future.mfc"
        for version in (FORMAT_VERSION + 1, float(FORMAT_VERSION)):
            path.write_bytes(craft({"format_version": version,
                                    "kind": "checkpoint", "arrays": []}))
            with pytest.raises(VersionMismatchError, match=f"version {version},"):
                load_checkpoint(str(path))

    def test_bool_format_version_is_no_version(self, checkpoint_bytes, tmp_path):
        # JSON true equals 1 in Python, but is no format version
        path = tmp_path / "bool.mfc"
        path.write_bytes(reencode(checkpoint_bytes,
                                  lambda header: header.update(format_version=True)))
        message = f"container format version True, expected {FORMAT_VERSION}"
        with pytest.raises(VersionMismatchError, match=f"^{message}$"):
            load_checkpoint(str(path))

    def test_truncated_payload_names_array(self, checkpoint_bytes, tmp_path):
        path = tmp_path / "short.mfc"
        path.write_bytes(checkpoint_bytes[:-16])
        with pytest.raises(CorruptionError, match="truncated payload"):
            load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, checkpoint_bytes, tmp_path):
        path = tmp_path / "long.mfc"
        path.write_bytes(checkpoint_bytes + b"\x00" * 8)
        with pytest.raises(CorruptionError, match="trailing"):
            load_checkpoint(str(path))

    def test_unknown_dtype_tag(self, checkpoint_bytes, tmp_path):
        def edit(header):
            header["arrays"][0]["dtype"] = "f4"
        path = tmp_path / "dtype.mfc"
        path.write_bytes(reencode(checkpoint_bytes, edit))
        with pytest.raises(CorruptionError, match="dtype"):
            load_checkpoint(str(path))

    def test_wrong_kind_rejected(self, checkpoint_bytes, tmp_path):
        path = tmp_path / "kind.mfc"
        with pytest.raises(CorruptionError, match="not a dataset"):
            path.write_bytes(checkpoint_bytes)
            load_dataset(str(path))


class TestCheckpoint:
    def test_roundtrip_bitwise(self, stack, tmp_path):
        encoder, decoder, head, config = stack
        path = str(tmp_path / "model.mfc")
        save_checkpoint(encoder, decoder, head, config, path)
        enc2, dec2, head2, config2 = load_checkpoint(path)
        assert len(enc2.layers) == len(encoder.layers)
        for (weight, bias, tag), (want_weight, want_bias, want_tag) in zip(
                enc2.layers, encoder.layers):
            assert tag == want_tag
            assert np.array_equal(weight, want_weight)
            assert np.array_equal(bias, want_bias)
        assert (enc2.q_id, enc2.q_res) == (encoder.q_id, encoder.q_res)
        assert np.array_equal(dec2.weight_id, decoder.weight_id)
        assert np.array_equal(dec2.bias_id, decoder.bias_id)
        assert np.array_equal(dec2.weight_res, decoder.weight_res)
        assert np.array_equal(dec2.bias_res, decoder.bias_res)
        assert np.array_equal(head2.weight, head.weight)
        assert np.array_equal(head2.bias, head.bias)
        assert config2 == config

    def test_save_is_byte_deterministic(self, stack, tmp_path):
        a, b = str(tmp_path / "a.mfc"), str(tmp_path / "b.mfc")
        save_checkpoint(*stack, a)
        save_checkpoint(*stack, b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_decoder_identity_width_mismatch(self, stack, tmp_path):
        encoder, _, head, config = stack
        path = str(tmp_path / "mismatch.mfc")
        save_checkpoint(encoder, init_decoder(16, q_id=4, q_res=2), head,
                        config, path)
        with pytest.raises(InvariantViolationError, match="dec.weight_id"):
            load_checkpoint(path)

    def test_decoder_residual_width_mismatch(self, stack, tmp_path):
        encoder, _, head, config = stack
        path = str(tmp_path / "mismatch.mfc")
        save_checkpoint(encoder, init_decoder(16, q_id=3, q_res=9), head,
                        config, path)
        with pytest.raises(InvariantViolationError, match="dec.weight_res"):
            load_checkpoint(path)

    def test_head_width_mismatch(self, stack, tmp_path):
        encoder, decoder, _, config = stack
        path = str(tmp_path / "mismatch.mfc")
        save_checkpoint(encoder, decoder, init_head(4, q_id=5), config, path)
        with pytest.raises(InvariantViolationError, match="head.weight"):
            load_checkpoint(path)

    def test_missing_encoder_layer_named(self, stack, tmp_path):
        path = str(tmp_path / "model.mfc")
        save_checkpoint(*stack, path)

        def edit(header):
            header["activations"].append("tanh")
        tampered = tmp_path / "extra.mfc"
        tampered.write_bytes(reencode(Path(path).read_bytes(), edit))
        with pytest.raises(InvariantViolationError, match="enc.2.weight"):
            load_checkpoint(str(tampered))

    def test_invalid_activation_tag_named(self, stack, tmp_path):
        path = str(tmp_path / "model.mfc")
        save_checkpoint(*stack, path)

        def edit(header):
            header["activations"][0] = "relu"
        tampered = tmp_path / "relu.mfc"
        tampered.write_bytes(reencode(Path(path).read_bytes(), edit))
        with pytest.raises(InvariantViolationError, match="enc.0.weight"):
            load_checkpoint(str(tampered))

    # each network's vector is its slice of the payload, so every stored
    # array must sit where the layout puts it, under its name and shape
    @pytest.mark.parametrize("edit, message", [
        (lambda items: items.insert(0, items.pop(1)),
         "array 0: stored ('enc.0.bias', (8,)), expected ('enc.0.weight', (8, 16))"),
        (lambda items: items.insert(5, items.pop(7)),
         "array 5: stored ('dec.bias_res', (16,)), expected ('dec.bias_id', (16,))"),
        (lambda items: items.append(items.pop(4)),
         "array 4: stored ('dec.bias_id', (16,)), expected ('dec.weight_id', (16, 3))"),
        (lambda items: items[3][0].update(name="enc.1.b"),
         "array 3: stored ('enc.1.b', (5,)), expected ('enc.1.bias', (5,))"),
        (lambda items: items[6][0].update(shape=[2, 16]),
         "array 6: stored ('dec.weight_res', (2, 16)), expected ('dec.weight_res', (16, 2))"),
        (lambda items: items[9][0].update(shape=[2, 2]),
         "array 9: stored ('head.bias', (2, 2)), expected ('head.bias', (4,))"),
        (lambda items: items.append(({**items[9][0], "name": "head.extra"}, items[9][1])),
         "array 10: stored ('head.extra', (4,)), expected None"),
        (lambda items: items.pop(),
         "array 9: stored None, expected ('head.bias', (4,))"),
    ], ids=["bias-first", "biases-swapped", "weight-last", "renamed", "matrix-transposed",
            "vector-reshaped", "extra-array", "missing-array"])
    def test_array_out_of_layout_is_named(self, stack, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(*stack, str(path))
        path.write_bytes(rearrange(path.read_bytes(), edit))
        with pytest.raises(InvariantViolationError, match=f"^{re.escape(message)}$"):
            load_checkpoint(str(path))

    def test_config_version_written(self, stack, tmp_path):
        path = tmp_path / "model.mfc"
        save_checkpoint(*stack, str(path))
        (header_len,) = struct.unpack_from("<Q", path.read_bytes(), len(MAGIC))
        header = json.loads(path.read_bytes()[len(MAGIC) + 8:len(MAGIC) + 8 + header_len])
        assert header["config_version"] == CONFIG_VERSION
        assert type(header["config_version"]) is int

    @pytest.mark.parametrize("version, error, message", [
        ("drop", VersionMismatchError,
         f"checkpoint config_version missing, expected {CONFIG_VERSION}"),
        (CONFIG_VERSION + 1, VersionMismatchError,
         f"checkpoint config_version {CONFIG_VERSION + 1}, expected {CONFIG_VERSION}"),
        (0, VersionMismatchError,
         f"checkpoint config_version 0, expected {CONFIG_VERSION}"),
        (True, InvariantViolationError, "config_version: expected int, got bool"),
        (float(CONFIG_VERSION), InvariantViolationError,
         "config_version: expected int, got float"),
        (str(CONFIG_VERSION), InvariantViolationError,
         "config_version: expected int, got str"),
        (None, InvariantViolationError, "config_version: expected int, got NoneType"),
    ])
    def test_config_version_checked(self, stack, tmp_path, version, error, message):
        path = str(tmp_path / "model.mfc")
        save_checkpoint(*stack, path)

        def edit(header):
            if version == "drop":
                del header["config_version"]
            else:
                header["config_version"] = version
        tampered = tmp_path / "version.mfc"
        tampered.write_bytes(reencode(Path(path).read_bytes(), edit))
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_checkpoint(str(tampered))

    def test_cli_eval_names_the_version(self, stack, tiny_dataset, tmp_path):
        save_dataset(tiny_dataset, str(tmp_path / "data.mfd"))
        save_checkpoint(*stack, str(tmp_path / "model.ckpt"))
        ckpt = tmp_path / "old.ckpt"
        ckpt.write_bytes(reencode((tmp_path / "model.ckpt").read_bytes(),
                                  lambda header: header.pop("config_version")))
        code, lines = run_quietly(["eval", "--data", str(tmp_path / "data.mfd"),
                                   "--checkpoint", str(ckpt),
                                   "--out", str(tmp_path / "eval")])
        assert (code, lines) == (1, [
            "error: VersionMismatchError: checkpoint config_version missing, "
            f"expected {CONFIG_VERSION}"])

    @pytest.mark.parametrize("key", ["epochs", "seed", "lambda_r", "output_dir"])
    def test_missing_config_key_raises(self, stack, tmp_path, key):
        # a key filled in from the RunConfig default would load a config the
        # checkpoint was never trained with (epochs=7 would read 25)
        path = tmp_path / "model.ckpt"
        save_checkpoint(*stack, str(path))
        path.write_bytes(reencode(path.read_bytes(),
                                  lambda header: header["config"].pop(key)))
        with pytest.raises(InvariantViolationError,
                           match=f"^config\\.{key}: missing$"):
            load_checkpoint(str(path))

    def test_cli_eval_names_the_missing_config_key(self, stack, tiny_dataset,
                                                   tmp_path):
        save_dataset(tiny_dataset, str(tmp_path / "data.mfd"))
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(*stack, str(ckpt))
        ckpt.write_bytes(reencode(ckpt.read_bytes(),
                                  lambda header: header["config"].pop("epochs")))
        code, lines = run_quietly(["eval", "--data", str(tmp_path / "data.mfd"),
                                   "--checkpoint", str(ckpt),
                                   "--out", str(tmp_path / "eval")])
        assert (code, lines) == (
            1, ["error: InvariantViolationError: config.epochs: missing"])

    def test_dataset_file_is_not_a_checkpoint(self, tiny_dataset, tmp_path):
        path = str(tmp_path / "data.mfd")
        save_dataset(tiny_dataset, path)
        with pytest.raises(CorruptionError, match="not a checkpoint"):
            load_checkpoint(path)


class TestDatasetContainer:
    def test_roundtrip_bitwise(self, tiny_dataset, tmp_path):
        path = str(tmp_path / "data.mfd")
        save_dataset(tiny_dataset, path)
        back = load_dataset(path)

        model, want = back.model, tiny_dataset.model
        assert np.array_equal(model.mean, want.mean)
        assert np.array_equal(model.basis_id, want.basis_id)
        assert np.array_equal(model.basis_exp, want.basis_exp)
        assert np.array_equal(model.sigma_id, want.sigma_id)
        assert np.array_equal(model.sigma_exp, want.sigma_exp)
        assert np.array_equal(model.landmark_indices, want.landmark_indices)
        assert model.nose_tip_index == want.nose_tip_index

        assert back.spec == tiny_dataset.spec
        for name in COLUMNS:
            assert np.array_equal(getattr(back, name),
                                  getattr(tiny_dataset, name)), name
        rows = np.arange(tiny_dataset.labels.size)
        assert np.array_equal(back.ground_truth_shapes(rows),
                              tiny_dataset.ground_truth_shapes(rows))

        assert np.array_equal(back.train_indices, tiny_dataset.train_indices)
        assert np.array_equal(back.val_indices, tiny_dataset.val_indices)
        assert np.array_equal(back.test_indices, tiny_dataset.test_indices)

    def test_save_is_byte_deterministic(self, tiny_dataset, tmp_path):
        a, b = str(tmp_path / "a.mfd"), str(tmp_path / "b.mfd")
        save_dataset(tiny_dataset, a)
        save_dataset(tiny_dataset, b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_wrong_sample_count_is_invariant_violation(self, tiny_dataset,
                                                       tmp_path):
        # the spec claims a third subject: 9 rows, where the columns hold 6
        path = str(tmp_path / "data.mfd")
        save_dataset(tiny_dataset, path)

        def edit(header):
            header["spec"]["n_subjects"] += 1
        tampered = tmp_path / "count.mfd"
        tampered.write_bytes(reencode(Path(path).read_bytes(), edit))
        k_id = tiny_dataset.model.k_id
        with pytest.raises(InvariantViolationError) as info:
            load_dataset(str(tampered))
        assert str(info.value) == f"dataset: alpha_id must be (9, {k_id}), got (6, {k_id})"

    def test_one_row_too_few_is_invariant_violation(self, tiny_dataset, tmp_path):
        # every column a row short, the spec unchanged
        path = str(tmp_path / "data.mfd")
        save_dataset(tiny_dataset, path)
        with open(path, "rb") as handle:
            header, arrays = unpack(handle)
        meta = {k: v for k, v in header.items() if k not in ("arrays", "format_version")}
        tampered = tmp_path / "short.mfd"
        tampered.write_bytes(b"".join(_pack(meta, {
            name: array if name.startswith("model.") else array[:-1]
            for name, array in arrays.items()})))
        with pytest.raises(InvariantViolationError) as info:
            load_dataset(str(tampered))
        k_id = tiny_dataset.model.k_id
        assert str(info.value) == f"dataset: alpha_id must be (6, {k_id}), got (5, {k_id})"

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(n_subjects=st.integers(2, 12), images=st.integers(1, 6))
    def test_split_follows_the_spec(self, small_model, n_subjects, images):
        # and so do the labels, which no container stores: row i is subject
        # i // images_per_subject, int64 and read-only, before and after a load
        dataset = build_dataset(small_model, DatasetSpec(
            n_subjects=n_subjects, images_per_subject=images, image_resolution=8,
            seed=n_subjects))
        splits = (dataset.train_indices, dataset.val_indices, dataset.test_indices)
        for got, want in zip(splits, split_indices(n_subjects, images)):
            assert np.array_equal(got, want)
        train_labels = dataset.labels[dataset.train_indices]
        assert dataset.n_train_subjects == np.unique(train_labels).size
        assert dataset.n_train_subjects == n_subjects - dataset.test_indices.size // images
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "data.mfd")
            save_dataset(dataset, path)
            assert "labels" not in [e["name"] for e in array_entries(Path(path).read_bytes())]
            back = load_dataset(path)
        for got, want in zip((back.train_indices, back.val_indices, back.test_indices),
                             splits):
            assert np.array_equal(got, want)
        labels = np.arange(n_subjects * images, dtype=np.int64) // images
        for got in (dataset.labels, back.labels):
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tobytes() == labels.tobytes()

    @pytest.mark.parametrize("field, value", [
        ("nose_tip_index", 1.5),
        ("nose_tip_index", True),
        ("n_subjects", 2.0),
    ])
    def test_ill_typed_meta_field_is_invariant_violation(self, tiny_dataset,
                                                        tmp_path, field, value):
        # no silent coercion: 1.5 used to load as 1
        path = str(tmp_path / "data.mfd")
        save_dataset(tiny_dataset, path)

        def edit(header):
            (header["spec"] if field == "n_subjects" else header)[field] = value
        tampered = tmp_path / "typed.mfd"
        tampered.write_bytes(reencode(Path(path).read_bytes(), edit))
        with pytest.raises(InvariantViolationError, match=field):
            load_dataset(str(tampered))

    @pytest.mark.parametrize("name", ["model.mean", "model.sigma_id"])
    def test_missing_model_array_is_invariant_violation(self, tiny_dataset,
                                                        tmp_path, name):
        path = str(tmp_path / "data.mfd")
        save_dataset(tiny_dataset, path)
        tampered = tmp_path / "dropped.mfd"
        tampered.write_bytes(drop_array(Path(path).read_bytes(), name))
        with pytest.raises(InvariantViolationError, match=f"{name}: missing"):
            load_dataset(str(tampered))

    def test_tampered_pose_scale_names_sample(self, tiny_dataset, tmp_path):
        path = str(tmp_path / "data.mfd")
        save_dataset(tiny_dataset, path)
        data = Path(path).read_bytes()
        offset = payload_offset(data, "pose.scale")
        tampered = tmp_path / "poked.mfd"
        tampered.write_bytes(data[:offset] + struct.pack("<d", -1.0)
                             + data[offset + 8:])
        with pytest.raises(InvariantViolationError, match="sample 0 pose"):
            load_dataset(str(tampered))

    def test_spec_built_from_ints_roundtrips(self, small_model, tmp_path):
        # the spec types store floats, so the strict loader reads them back
        spec = DatasetSpec(n_subjects=2, images_per_subject=1,
                           landmark_noise_sigma=0, image_resolution=8,
                           pose_ranges=PoseRanges(scale=(1, 1)))
        path = str(tmp_path / "ints.mfd")
        save_dataset(build_dataset(small_model, spec), path)
        assert load_dataset(path).spec == spec

    def test_resave_gives_the_same_bytes(self, tiny_dataset, tmp_path):
        path, again = str(tmp_path / "a.mfd"), str(tmp_path / "b.mfd")
        save_dataset(tiny_dataset, path)
        save_dataset(load_dataset(path), again)
        assert Path(again).read_bytes() == Path(path).read_bytes()

    @pytest.mark.parametrize("edit, field", [
        (lambda spec: spec.update(pose_ranges="wide"), "spec.pose_ranges"),
        (lambda spec: spec["pose_ranges"].update(yaw=[-0.1, 0.0, 0.1]),
         "spec.pose_ranges.yaw"),
        (lambda spec: spec["pose_ranges"].pop("tz"), "spec.pose_ranges.tz"),
        (lambda spec: spec["pose_ranges"].update(scale=["0.9", 1.1]),
         r"spec.pose_ranges.scale\[0\]"),
        (lambda spec: spec.update(landmark_noise_sigma="0.01"),
         "landmark_noise_sigma"),
        (lambda spec: spec.update(landmark_noise_sigma=True),
         "landmark_noise_sigma"),
        (lambda spec: spec["pose_ranges"].update(tz=[0.0, 10 ** 400]),
         r"spec.pose_ranges.tz\[1\]"),
    ], ids=["ranges-not-a-dict", "range-of-three", "range-key-deleted",
            "range-bound-a-string", "noise-a-string", "noise-a-bool",
            "range-bound-beyond-float"])
    def test_ill_typed_spec_field_is_invariant_violation(self, tiny_dataset,
                                                        tmp_path, edit, field):
        # these escaped as raw AttributeError/ValueError, loaded a deleted
        # range as its default, or went through float()
        path = str(tmp_path / "data.mfd")
        save_dataset(tiny_dataset, path)
        tampered = tmp_path / "spec.mfd"
        tampered.write_bytes(reencode(Path(path).read_bytes(),
                                      lambda header: edit(header["spec"])))
        with pytest.raises(InvariantViolationError, match=field):
            load_dataset(str(tampered))

    @pytest.mark.parametrize("labels", [
        [1, 1, 1, 0, 0, 0],
        [0, 0, 1, 0, 1, 1],
        [0, 0, 0, 1, 999, 1],
    ], ids=["reversed", "two-swapped", "out-of-range"])
    def test_labels_must_be_subject_major(self, tiny_dataset, tmp_path, labels):
        # the re-derived splits assume this layout, so a labels array in the
        # file is never read: the loaded labels and splits follow the spec
        path = str(tmp_path / "data.mfd")
        save_dataset(tiny_dataset, path)
        stale = np.array(labels, dtype="<f8")
        tampered = tmp_path / "labels.mfd"
        entry = {"name": "labels", "dtype": "f8", "shape": [stale.size]}
        tampered.write_bytes(rearrange(Path(path).read_bytes(),
                                       lambda items: items.append((entry, stale.tobytes()))))
        assert "labels" in [e["name"] for e in array_entries(tampered.read_bytes())]
        back = load_dataset(str(tampered))
        assert back.labels.tolist() == [0, 0, 0, 1, 1, 1]
        for name in ("train_indices", "val_indices", "test_indices"):
            assert np.array_equal(getattr(back, name), getattr(tiny_dataset, name))


# ---------------------------------------------------------------------------
# Fuzzed dataset containers: every mutation loads or raises a MorphfitError,
# and `morphfit fit` on it exits 0, or 1 with exactly one `error:` line.

def array_entries(data: bytes) -> list[dict]:
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    return json.loads(data[len(MAGIC) + 8:len(MAGIC) + 8 + header_len])["arrays"]


def flip_tag(data: bytes, name: str) -> bytes:
    """The container with array `name` tagged i8 for f8 or f8 for i8, its
    payload bytes unchanged."""
    def edit(header):
        entry = next(e for e in header["arrays"] if e["name"] == name)
        entry["dtype"] = {"f8": "i8", "i8": "f8"}[entry["dtype"]]
    return reencode(data, edit)


def run_quietly(argv: list[str]) -> tuple[int, list[str]]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli(argv)
    return code, err.getvalue().splitlines()


class TestArrayDtypeTags:
    """model.landmark_indices is stored as i8 and every other array as f8;
    a flipped tag would reinterpret the payload bits."""

    @pytest.fixture(scope="class")
    def files(self, tiny_dataset, stack, tmp_path_factory):
        root = tmp_path_factory.mktemp("tags")
        save_dataset(tiny_dataset, str(root / "data.mfd"))
        save_checkpoint(*stack, str(root / "model.ckpt"))
        return root

    def test_written_tags(self, files):
        for name in ("data.mfd", "model.ckpt"):
            for entry in array_entries((files / name).read_bytes()):
                assert entry["dtype"] == ("i8" if entry["name"]
                                          == "model.landmark_indices" else "f8"), entry

    @pytest.mark.parametrize("name, load", [("data.mfd", load_dataset),
                                            ("model.ckpt", load_checkpoint)])
    def test_every_flipped_tag_is_invariant_violation(self, files, tmp_path,
                                                      name, load):
        data = (files / name).read_bytes()
        entries = array_entries(data)
        assert len(entries) >= 8
        for entry in entries:
            path = tmp_path / name
            path.write_bytes(flip_tag(data, entry["name"]))
            with pytest.raises(InvariantViolationError,
                               match=f"^{re.escape(entry['name'])}: dtype tag"):
                load(str(path))

    def test_cli_prints_one_error_line(self, files, tmp_path):
        data = tmp_path / "data.mfd"
        data.write_bytes(flip_tag((files / "data.mfd").read_bytes(), "alpha_id"))
        code, lines = run_quietly(["fit", "--data", str(data), "--subject", "0",
                                   "--out", str(tmp_path / "fit")])
        assert (code, lines) == (1, ["error: InvariantViolationError: alpha_id: "
                                     "dtype tag 'i8', expected 'f8'"])
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(flip_tag((files / "model.ckpt").read_bytes(), "head.bias"))
        code, lines = run_quietly(["export-bases", "--data", str(files / "data.mfd"),
                                   "--checkpoint", str(ckpt),
                                   "--out", str(tmp_path / "bases")])
        assert (code, lines) == (1, ["error: InvariantViolationError: head.bias: "
                                     "dtype tag 'i8', expected 'f8'"])


def root_buffer(array: np.ndarray):
    """The object at the end of the chain of bases under `array`."""
    base = array.base
    while isinstance(base, np.ndarray):
        base = base.base
    return base


def bytes_backed(array: np.ndarray) -> bool:
    """Whether the chain of bases under `array` ends in a `bytes` object."""
    return isinstance(root_buffer(array), bytes)


class TestOneCopyPerLoad:
    """A load copies each payload once, from the file into its own `bytes`;
    the loaded dataset and model keep read-only views of those."""

    def test_unpack_returns_read_only_views(self, tiny_dataset, tmp_path):
        path = tmp_path / "data.mfd"
        save_dataset(tiny_dataset, str(path))
        with open(path, "rb") as handle:
            _, arrays = unpack(handle)
        for name, array in arrays.items():
            assert not array.flags.owndata and not array.flags.writeable, name
            assert type(array.base.base) is bytes, name

    def test_loaded_arrays_view_immutable_bytes(self, tiny_dataset, stack, tmp_path):
        save_dataset(tiny_dataset, str(tmp_path / "data.mfd"))
        save_checkpoint(*stack, str(tmp_path / "model.ckpt"))
        dataset = load_dataset(str(tmp_path / "data.mfd"))
        encoder, decoder, head, _ = load_checkpoint(str(tmp_path / "model.ckpt"))
        model = dataset.model
        arrays = {name: getattr(dataset, name) for name in COLUMNS}
        arrays.update({f"model.{name}": getattr(model, name) for name in (
            "mean", "basis_id", "basis_exp", "sigma_id", "sigma_exp",
            "landmark_indices")})
        for name, array in arrays.items():
            flags = array.flags
            assert not flags.writeable and flags.aligned and flags.c_contiguous, name
            assert bytes_backed(array), name
            with pytest.raises(ValueError):
                array.setflags(write=True)
        # each network's read-only vector is the whole of its own `bytes`, read
        # from the checkpoint's payload in encoder, decoder, head order; its
        # weights view the vector, and no network shares another's buffer
        nets = (encoder, decoder, head)
        buffers = [root_buffer(net.vector) for net in nets]
        for net, buffer in zip(nets, buffers):
            assert type(buffer) is bytes and not net.vector.flags.writeable
            assert net.vector.nbytes == len(buffer) and net.vector.tobytes() == buffer
            for name, array in net.params.items():
                assert np.shares_memory(array, net.vector) and not array.flags.writeable, name
        assert len({id(buffer) for buffer in buffers}) == 3
        payload = b"".join(buffers)
        assert (tmp_path / "model.ckpt").read_bytes()[-len(payload):] == payload

    @pytest.mark.parametrize("read_only_view", [False, True])
    def test_arrays_with_a_writable_alias_are_copied(self, tiny_dataset,
                                                     read_only_view):
        model = tiny_dataset.model
        sources = {name: np.array(getattr(tiny_dataset, name)) for name in COLUMNS}
        model_sources = {name: np.array(getattr(model, name)) for name in (
            "mean", "basis_id", "basis_exp", "sigma_id", "sigma_exp",
            "landmark_indices")}

        def given(array):
            if not read_only_view:
                return array
            view = array.view()
            view.setflags(write=False)
            return view

        rebuilt_model = MorphableModel(
            nose_tip_index=model.nose_tip_index,
            **{name: given(a) for name, a in model_sources.items()})
        rebuilt = Dataset(model=rebuilt_model, spec=tiny_dataset.spec,
                          **{name: given(a) for name, a in sources.items()})
        for name, source in [*sources.items(), *model_sources.items()]:
            kept = (getattr(rebuilt_model, name) if name in model_sources
                    else getattr(rebuilt, name))
            before = kept.copy()
            source += 1
            assert np.array_equal(kept, before), name
            assert not np.shares_memory(kept, source), name

    def test_load_then_save_is_byte_identical(self, tiny_dataset, tmp_path):
        first, second = tmp_path / "first.mfd", tmp_path / "second.mfd"
        save_dataset(tiny_dataset, str(first))
        save_dataset(load_dataset(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("shape, message", [
        ([2 ** 40, 2 ** 40], "truncated payload for array 'alpha_id'"),
        ([-1, 6], "malformed array entry"),
        ([1e400, 6], "malformed array entry"),  # JSON's Infinity, which no int holds
    ])
    def test_corrupt_shape_fails_before_reading(self, tiny_dataset, tmp_path,
                                                shape, message):
        path = tmp_path / "data.mfd"
        save_dataset(tiny_dataset, str(path))

        def edit(header):
            next(e for e in header["arrays"] if e["name"] == "alpha_id")["shape"] = shape
        path.write_bytes(reencode(path.read_bytes(), edit))
        with pytest.raises(CorruptionError, match=re.escape(message)):
            load_dataset(str(path))

    def test_trailing_bytes_are_counted(self, tiny_dataset, tmp_path):
        path = tmp_path / "data.mfd"
        save_dataset(tiny_dataset, str(path))
        path.write_bytes(path.read_bytes() + b"\x00" * 24)
        with pytest.raises(CorruptionError, match="^24 trailing bytes$"):
            load_dataset(str(path))


def header_paths(header: dict) -> list[tuple]:
    """The key path of every entry of the header's nested dicts, outer
    levels first."""
    paths, level = [], [((), header)]
    while level:
        paths += [prefix + (key,) for prefix, node in level for key in node]
        level = [(prefix + (key,), value) for prefix, node in level
                 for key, value in node.items() if isinstance(value, dict)]
    return paths


def mutate_container(data: bytes, draw,
                     kinds=("drop", "retype", "truncate", "nan", "reshape",
                            "permute")) -> bytes:
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    header = json.loads(data[len(MAGIC) + 8:len(MAGIC) + 8 + header_len])
    kind = draw(st.sampled_from(kinds))
    if kind in ("drop", "retype"):
        *parents, key = draw(st.sampled_from(header_paths(header)))
        value = draw(st.sampled_from(
            ["x", "0.5", True, None, 1.5, 7, 64, 10 ** 400, [], {},
             [1, 2, 3]]))

        def edit(h):
            for parent in parents:
                h = h[parent]
            if kind == "drop":
                del h[key]
            else:
                h[key] = value
        return reencode(data, edit)

    entries = header["arrays"]
    entry = draw(st.sampled_from(
        [e for e in entries if e["dtype"] == "i8"] if kind == "permute"
        else [e for e in entries if e["dtype"] == "f8"] if kind == "huge"
        else entries))
    if kind == "retag":
        return flip_tag(data, entry["name"])
    offset = payload_offset(data, entry["name"])
    count = int(np.prod(entry["shape"]))
    if kind == "truncate":
        # one leading row fewer, header and payload consistent
        row = count // entry["shape"][0]
        cut = data[:offset] + data[offset + 8 * row:]

        def shrink(h):
            next(e for e in h["arrays"] if e is not None
                 and e["name"] == entry["name"])["shape"][0] -= 1
        return reencode(cut, shrink)
    if kind == "reshape":
        shape = draw(st.sampled_from([[count], entry["shape"][::-1],
                                      [1, count]]))

        def reshape(h):
            next(e for e in h["arrays"]
                 if e["name"] == entry["name"])["shape"] = shape
        return reencode(data, reshape)
    if kind == "nan":
        payload = np.full(count, np.nan).tobytes()
    elif kind == "huge":  # finite, but overflowing the arithmetic that reads it
        values = np.frombuffer(data, "<f8", count, offset).copy()
        values[draw(st.one_of(st.just(slice(None)), st.integers(0, count - 1)))] = draw(
            st.sampled_from([1e308, -1e308, 1e154, -1e154]))
        payload = values.tobytes()
    else:
        indices = np.frombuffer(data, "<i8", count, offset)
        payload = indices[draw(st.permutations(range(count)))].tobytes()
    return data[:offset] + payload + data[offset + len(payload):]


def one_error_line_or_clean(outcome: tuple[int, list[str]]) -> bool:
    code, lines = outcome
    return (code, lines) == (0, []) or (
        code == 1 and len(lines) == 1 and lines[0].startswith("error: "))


@pytest.fixture(scope="module")
def fuzz_files(small_model, tmp_path_factory):
    """A dataset and a checkpoint that fits it; eight subjects give eval two
    held-out ones, enough for two folds."""
    root = tmp_path_factory.mktemp("fuzz-files")
    spec = DatasetSpec(n_subjects=8, images_per_subject=3,
                       image_resolution=16, seed=42)
    save_dataset(build_dataset(small_model, spec), str(root / "data.mfd"))
    save_checkpoint(init_encoder(256, 6, 4, hidden=(4,), seed=1),
                    init_decoder(450, 6, 4, seed=2), init_head(8, 6, seed=3),
                    RunConfig(), str(root / "model.ckpt"))
    return root


DATASET_STAGES = ("fit", "train", "eval", "export-bases")


def stage_argv(stage: str, data: str, checkpoint: str, out: str) -> list[str]:
    """The argv of a stage that reads the containers; a subject number
    stands for `fit --subject` of that subject."""
    argv = {"train": ["train", "--set", "epochs=1"],
            "eval": ["eval", "--checkpoint", checkpoint, "--set", "n_folds=2"],
            "export-bases": ["export-bases", "--checkpoint", checkpoint]}
    return [*argv.get(stage, ["fit", "--subject", stage]), "--data", data, "--out", out]


def run_stages(data: str, checkpoint: str, out: str, stages) -> list:
    """The exit code and stderr lines of each stage that reads the containers."""
    return [run_quietly(stage_argv("0" if stage == "fit" else stage, data, checkpoint,
                                   os.path.join(out, stage))) for stage in stages]


class TestDatasetFuzz:
    @pytest.fixture(scope="class")
    def container(self, tiny_dataset, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("fuzz") / "data.mfd")
        save_dataset(tiny_dataset, path)
        return path

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_mutation_loads_or_fails_cleanly(self, container, data):
        mutated = mutate_container(Path(container).read_bytes(), data.draw)
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "data.mfd")
            with open(path, "wb") as handle:
                handle.write(mutated)
            try:
                load_dataset(path)
            except MorphfitError:
                pass
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli(["fit", "--data", path, "--subject", "0",
                            "--out", os.path.join(root, "fit")])
        assert one_error_line_or_clean((code, err.getvalue().splitlines()))

    def test_valid_dataset_runs_every_stage(self, fuzz_files, tmp_path):
        assert run_stages(str(fuzz_files / "data.mfd"), str(fuzz_files / "model.ckpt"),
                          str(tmp_path), DATASET_STAGES) == [(0, [])] * len(DATASET_STAGES)

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_huge_values_fail_cleanly(self, fuzz_files, data):
        """A finite but huge value anywhere in a float array: every stage that
        reads the dataset exits 0, or 1 with one error line (a warning fails
        the suite)."""
        mutated = mutate_container((fuzz_files / "data.mfd").read_bytes(), data.draw,
                                   ("huge",))
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "data.mfd")
            Path(path).write_bytes(mutated)
            outcomes = run_stages(path, str(fuzz_files / "model.ckpt"), root,
                                  DATASET_STAGES)
        assert all(map(one_error_line_or_clean, outcomes)), outcomes


# ---------------------------------------------------------------------------
# Row windows: a load can read the model and one range of whole subjects'
# rows, and a command answers for the rows it reads. `eval` reads the
# held-out block, `fit --subject S` its subject and `export-bases` no rows.

def heldout_rows(spec: DatasetSpec) -> range:
    """The rows `eval` reads: the last block of whole subjects."""
    start = split_indices(spec.n_subjects, spec.images_per_subject)[2][0]
    return range(start, spec.n_subjects * spec.images_per_subject)


def poison_depth(source: Path, row: int, path: Path, column: str = "depth") -> None:
    """`source` with one NaN in file row `row` of the depth raster, or of `column`."""
    data = source.read_bytes()
    width = math.prod(getattr(load_dataset(str(source), rows=lambda spec: range(0)),
                              column).shape[1:])
    offset = payload_offset(data, column) + 8 * width * row
    path.write_bytes(data[:offset] + struct.pack("<d", math.nan) + data[offset + 8:])


def run_stage(stage: str, data: Path, fuzz_files: Path, out: Path) -> tuple[int, list[str]]:
    return run_quietly(stage_argv(stage, str(data), str(fuzz_files / "model.ckpt"), str(out)))


class TestRowWindows:
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n_subjects=st.integers(2, 9), images=st.integers(1, 4), data=st.data())
    def test_window_matches_the_rows_of_a_whole_load(self, small_model, n_subjects,
                                                      images, data):
        first = data.draw(st.integers(0, n_subjects), label="first subject")
        stop = data.draw(st.integers(first, n_subjects), label="subject stop")
        spec = DatasetSpec(n_subjects=n_subjects, images_per_subject=images,
                           image_resolution=8, seed=n_subjects * 5 + images)
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "data.mfd")
            save_dataset(build_dataset(small_model, spec), path)
            whole = load_dataset(path)
            for rows in (range(first * images, stop * images), heldout_rows(spec)):
                seen = []
                got = load_dataset(path, rows=lambda stored: seen.append(stored) or rows)
                assert seen == [spec] and got.rows == rows and got.spec == spec
                want = window_of(whole, rows)
                for name in COLUMNS:
                    column = getattr(got, name)
                    assert column.tobytes() == want[name].tobytes(), name
                    assert column.shape == want[name].shape, name
                    assert bytes_backed(column) and not column.flags.writeable, name
                for name in ("labels", "train_indices", "val_indices", "test_indices"):
                    assert getattr(got, name).dtype == np.int64, name
                    assert getattr(got, name).tobytes() == want[name].tobytes(), name
                for name in ("mean", "basis_id", "basis_exp", "sigma_id", "sigma_exp",
                             "landmark_indices"):
                    assert getattr(got.model, name).tobytes() == getattr(
                        whole.model, name).tobytes(), name
                assert got.n_train_subjects == whole.n_train_subjects

    def test_a_bad_row_outside_the_window_is_not_read(self, fuzz_files, tmp_path):
        # 8 subjects of 3 images: subject 0 is rows 0-2, the held-out block rows 18-23;
        # row 1 has a NaN in its depth, which `fit` does not read, and in its landmarks,
        # which `train` does not read
        path = tmp_path / "data.mfd"
        poison_depth(fuzz_files / "data.mfd", 1, path)
        poison_depth(path, 1, path, "landmarks")
        error = "error: InvariantViolationError: dataset: sample 1 {}: values must be finite"
        for stage, outcome in (("1", (0, [])), ("eval", (0, [])), ("export-bases", (0, [])),
                               ("0", (1, [error.format("landmarks")])),
                               ("train", (1, [error.format("depth")]))):
            assert run_stage(stage, path, fuzz_files, tmp_path / stage) == outcome, stage

    @pytest.mark.parametrize("row", [18, 20, 23])
    def test_a_bad_held_out_row_is_named_by_its_file_row(self, fuzz_files, tmp_path, row):
        # `eval` finds it in the chunk that holds it; `fit` reads no depth
        path = tmp_path / "data.mfd"
        poison_depth(fuzz_files / "data.mfd", row, path)
        error = (f"error: InvariantViolationError: dataset: "
                 f"sample {row} depth: values must be finite")
        assert run_stage("eval", path, fuzz_files, tmp_path / "eval") == (1, [error])
        for stage in (str(row // 3), "0"):
            assert run_stage(stage, path, fuzz_files, tmp_path / stage) == (0, []), stage

    def test_a_bad_depth_row_does_not_fail_fit(self, fuzz_files, tmp_path):
        # `fit` reads the landmarks only: but for the echoed output directory, its
        # files are those of the clean dataset
        path = tmp_path / "data.mfd"
        poison_depth(fuzz_files / "data.mfd", 4, path)
        outputs = []
        for data, out in ((fuzz_files / "data.mfd", tmp_path / "clean"), (path, tmp_path / "bad")):
            assert run_stage("1", data, fuzz_files, out) == (0, [])
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                            if p.name != "config.txt"})
        assert outputs[0] == outputs[1] and "fit.csv" in outputs[0]

    def test_columns_reads_only_those_columns(self, fuzz_files, tmp_path):
        # a NaN in row 1's depth is not read, so not checked, unless the depth is
        whole = load_dataset(str(fuzz_files / "data.mfd"))
        path = tmp_path / "data.mfd"
        poison_depth(fuzz_files / "data.mfd", 1, path)
        for columns in ((), ("landmarks",), COLUMNS[:5]):
            got = load_dataset(str(path), columns=columns)
            for name in COLUMNS:
                column, want = getattr(got, name), getattr(whole, name)
                assert (column is None if name not in columns else
                        column.tobytes() == want.tobytes() and not column.flags.writeable)
            assert got.labels.tobytes() == whole.labels.tobytes()
            with pytest.raises(InvalidArgumentError, match="depth: column not read"):
                got.images(slice(0, 2))
            with pytest.raises(InvalidArgumentError, match="cannot save unread columns"):
                save_dataset(got, str(tmp_path / "saved.mfd"))
        with pytest.raises(InvariantViolationError, match="sample 1 depth: values must be"):
            load_dataset(str(path), columns=("depth",))
        with pytest.raises(InvalidArgumentError, match="columns must be among"):
            load_dataset(str(path), columns=("labels",))
        assert not (tmp_path / "saved.mfd").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda header: header["spec"].update(n_subjects=9),
         "dataset: alpha_id must be (27, 6), got (24, 6)"),
        (lambda header: next(e for e in header["arrays"] if e["name"] == "depth")
         .update(dtype="i8"), "depth: dtype tag 'i8', expected 'f8'"),
        # the byte length of each array as stored, its shape not the spec's
        (lambda header: next(e for e in header["arrays"] if e["name"] == "depth")
         .update(shape=[24, 256]), "dataset: depth must be (24, 16, 16), got (24, 256)"),
        (lambda header: next(e for e in header["arrays"] if e["name"] == "depth")
         .update(shape=[24, 32, 8]), "dataset: depth must be (24, 16, 16), got (24, 32, 8)"),
        (lambda header: next(e for e in header["arrays"] if e["name"] == "landmarks")
         .update(shape=[24, 68, 2]), "dataset: landmarks must be (24, 136), got (24, 68, 2)"),
    ], ids=["row-count", "dtype-tag", "flat-depth", "wide-depth", "landmark-pairs"])
    def test_whole_file_claims_are_checked_by_every_window(self, fuzz_files, tmp_path,
                                                           edit, message):
        path = tmp_path / "data.mfd"
        path.write_bytes(reencode((fuzz_files / "data.mfd").read_bytes(), edit))
        for stage in ("eval", "export-bases", "0", "7"):
            assert run_stage(stage, path, fuzz_files, tmp_path / stage) == (
                1, [f"error: InvariantViolationError: {message}"]), stage

    def test_a_column_short_of_rows_fails_outside_the_window(self, fuzz_files, tmp_path):
        # the landmarks column one row short, header and payload consistent
        with open(fuzz_files / "data.mfd", "rb") as handle:
            header, arrays = unpack(handle)
        meta = {k: v for k, v in header.items() if k not in ("arrays", "format_version")}
        path = tmp_path / "data.mfd"
        path.write_bytes(b"".join(_pack(meta, {
            name: array[:-1] if name == "landmarks" else array
            for name, array in arrays.items()})))
        for rows in (range(0, 3), range(18, 24), range(0)):
            with pytest.raises(InvariantViolationError,
                               match=re.escape("landmarks must be (24, 136), got (23, 136)")):
                load_dataset(str(path), rows=lambda spec: rows)

    def test_save_refuses_a_window(self, fuzz_files, tmp_path):
        source = str(fuzz_files / "data.mfd")
        for rows in (range(0, 3), range(18, 24), range(0)):
            window = load_dataset(source, rows=lambda spec: rows)
            with pytest.raises(InvalidArgumentError, match="cannot save a window"):
                save_dataset(window, str(tmp_path / "window.mfd"))
        assert not (tmp_path / "window.mfd").exists()
        whole = load_dataset(source, rows=lambda spec: range(24))
        save_dataset(whole, str(tmp_path / "all.mfd"))
        assert (tmp_path / "all.mfd").read_bytes() == Path(source).read_bytes()

    @pytest.mark.parametrize("rows", [range(1, 3), range(0, 4), range(0, 27), range(-3, 3),
                                      range(3, 0), range(0, 6, 2), slice(0, 3)],
                             ids=str)
    def test_window_must_be_whole_subjects(self, fuzz_files, rows):
        with pytest.raises(InvalidArgumentError,
                           match="rows must be a range of whole subjects"):
            load_dataset(str(fuzz_files / "data.mfd"), rows=lambda spec: rows)

    def test_held_out_load_holds_its_rows_and_the_model(self, small_model, tmp_path):
        # 80 subjects of 10 32x32 images; the held-out block is 200 of 800 rows
        path = str(tmp_path / "data.mfd")
        save_dataset(build_dataset(small_model, DatasetSpec(n_subjects=80, seed=3)), path)
        tracemalloc.start()
        try:
            dataset = load_dataset(path, rows=heldout_rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        model = dataset.model
        held = (sum(getattr(dataset, name).nbytes for name in COLUMNS)
                + sum(getattr(model, name).nbytes for name in (
                    "mean", "basis_id", "basis_exp", "sigma_id", "sigma_exp",
                    "landmark_indices")))
        assert dataset.rows == range(600, 800)
        assert held < os.path.getsize(path) / 3
        assert peak <= held + 2 ** 18, (peak, held)


def missing_config_keys(data: bytes) -> list[str]:
    """The RunConfig keys absent from a checkpoint's stored config, when
    that config is a dict and every other part of the header is intact."""
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    header = json.loads(data[len(MAGIC) + 8:len(MAGIC) + 8 + header_len])
    stored = header.get("config")
    if not isinstance(stored, dict):
        return []
    return [key for key in RunConfig().to_dict() if key not in stored]


class TestCheckpointFuzz:
    def run_eval(self, fuzz_files, root: str) -> tuple[int, list[str]]:
        return run_quietly(["eval", "--data", str(fuzz_files / "data.mfd"),
                            "--checkpoint", os.path.join(root, "model.ckpt"),
                            "--set", "n_folds=2", "--out", os.path.join(root, "eval")])

    def test_valid_checkpoint_evaluates(self, fuzz_files, tmp_path):
        (tmp_path / "model.ckpt").write_bytes((fuzz_files / "model.ckpt").read_bytes())
        assert self.run_eval(fuzz_files, str(tmp_path)) == (0, [])

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_mutation_loads_or_fails_cleanly(self, fuzz_files, data):
        mutated = mutate_container((fuzz_files / "model.ckpt").read_bytes(), data.draw,
                                   ("drop", "retype", "truncate", "nan", "reshape",
                                    "retag"))
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "model.ckpt")
            with open(path, "wb") as handle:
                handle.write(mutated)
            missing = missing_config_keys(mutated)
            if missing:
                # a dropped config key is corruption, never a default
                with pytest.raises(InvariantViolationError,
                                   match=f"^config\\.{missing[0]}: missing$"):
                    load_checkpoint(path)
            else:
                try:
                    load_checkpoint(path)
                except MorphfitError:
                    pass
            code, lines = self.run_eval(fuzz_files, root)
        assert one_error_line_or_clean((code, lines))

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_huge_values_fail_cleanly(self, fuzz_files, data):
        """A finite but huge weight: eval and export-bases exit 0, or 1 with
        one error line (a warning fails the suite)."""
        mutated = mutate_container((fuzz_files / "model.ckpt").read_bytes(), data.draw, ("huge",))
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "model.ckpt")
            Path(path).write_bytes(mutated)
            outcomes = run_stages(str(fuzz_files / "data.mfd"), path, root,
                                  ("eval", "export-bases"))
        assert all(map(one_error_line_or_clean, outcomes)), outcomes


# ---------------------------------------------------------------------------
# File modes: every writer leaves the mode a plain open() would.

class TestFileModes:
    def test_outputs_follow_the_umask(self, stack, tmp_path):
        encoder, decoder, head, config = stack
        previous = os.umask(0o022)
        try:
            write_obj(np.arange(12, dtype=np.float64), str(tmp_path / "cloud.obj"))
            save_checkpoint(encoder, decoder, head, config,
                            str(tmp_path / "model.ckpt"))
            _echo_config(RunConfig(output_dir=str(tmp_path)))
        finally:
            os.umask(previous)
        for name in ("cloud.obj", "model.ckpt", "config.txt"):
            assert os.stat(tmp_path / name).st_mode & 0o777 == 0o644, name

    def test_writers_leave_the_umask_alone(self, stack, tiny_dataset, tmp_path,
                                           monkeypatch):
        # a umask round trip would let another thread's file take an unmasked mode
        encoder, decoder, head, config = stack
        previous = os.umask(0o022)
        try:
            def umask(mask):
                raise AssertionError("a writer changed the umask")
            monkeypatch.setattr(os, "umask", umask)
            write_obj(np.arange(12, dtype=np.float64), str(tmp_path / "cloud.obj"))
            write_table_csv(("a", "b"), [(1, 0.5)], str(tmp_path / "table.csv"))
            save_checkpoint(encoder, decoder, head, config, str(tmp_path / "model.ckpt"))
            save_dataset(tiny_dataset, str(tmp_path / "data.mfd"))
            _echo_config(RunConfig(output_dir=str(tmp_path)))
        finally:
            monkeypatch.undo()
            os.umask(previous)
        names = ("cloud.obj", "table.csv", "model.ckpt", "data.mfd", "config.txt")
        assert sorted(os.listdir(tmp_path)) == sorted(names)  # no temp file left
        for name in names:
            assert os.stat(tmp_path / name).st_mode & 0o777 == 0o644, name


# ---------------------------------------------------------------------------
# Run configuration.

class TestRunConfigDefaults:
    def test_pinned_defaults(self):
        config = RunConfig()
        assert config.n_vertices == 600
        assert config.k_id == 20 and config.k_exp == 8
        assert config.n_subjects == 20 and config.images_per_subject == 10
        assert config.image_resolution == 32
        assert config.epochs == 25
        assert config.lambda_r == 0.5
        assert config.phase3_learning_rate == 2e-4
        assert config.head_scale == 16.0
        assert config.seed == 0

    def test_to_dict_rebuilds_equal_config(self):
        config = RunConfig(epochs=3, smoothness=0.75)
        assert RunConfig(**config.to_dict()) == config


class TestConfigText:
    def test_format_parse_roundtrip_default(self):
        assert parse_config(format_config(RunConfig())) == RunConfig()

    def test_format_parse_roundtrip_awkward_floats(self):
        config = RunConfig(smoothness=1 / 3, rel_tol=1e-7,
                           phase3_learning_rate=0.30000000000000004,
                           tz_lo=-0.0125, seed=17, output_dir="run-17")
        assert parse_config(format_config(config)) == config

    def test_format_header_names_version(self):
        first = format_config(RunConfig()).splitlines()[0]
        assert first == f"# run configuration (version {CONFIG_VERSION})"

    def test_format_has_one_line_per_field(self):
        lines = format_config(RunConfig()).splitlines()
        assert len(lines) == 1 + len(RunConfig().to_dict())

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_parse_over_base_keeps_other_fields(self):
        base = RunConfig(seed=9, epochs=4)
        config = parse_config("epochs = 7", base=base)
        assert config.epochs == 7
        assert config.seed == 9

    def test_comments_and_blanks_ignored(self):
        config = parse_config("# comment\n\n  \nepochs = 2\n# another\n")
        assert config.epochs == 2

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_config("seed = 1\nnum_epochs = 5\n")
        assert "num_epochs" in str(exc.value)
        assert exc.value.line == 2

    def test_repeated_key_rejected(self):
        with pytest.raises(ParseError, match="repeated"):
            parse_config("seed = 1\nseed = 2\n")

    def test_int_key_rejects_float_text(self):
        with pytest.raises(ParseError) as exc:
            parse_config("epochs = 3.5")
        assert "expects int" in str(exc.value)
        assert exc.value.line == 1

    def test_float_key_rejects_words(self):
        with pytest.raises(ParseError, match="expects float"):
            parse_config("smoothness = soft")

    def test_float_key_accepts_integer_text(self):
        assert parse_config("smoothness = 1").smoothness == 1.0

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_config("seed 1")
        assert exc.value.line == 1

    def test_hash_inside_value_is_kept(self):
        # inline comments are not supported; the '#' belongs to the value
        assert parse_config("output_dir = out#7").output_dir == "out#7"

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(format_config(RunConfig(seed=23)))
        assert load_config(str(path)) == RunConfig(seed=23)


class TestConfigProjections:
    def test_model_spec_fields(self):
        config = RunConfig(n_vertices=300, k_id=6, k_exp=4, smoothness=0.7,
                           seed=3)
        spec = config.model_spec()
        assert (spec.n_vertices, spec.k_id, spec.k_exp) == (300, 6, 4)
        assert spec.smoothness == 0.7
        assert spec.seed == 3

    def test_dataset_spec_fields(self):
        config = RunConfig(n_subjects=4, images_per_subject=6,
                           landmark_noise_sigma=0.25, image_resolution=24,
                           yaw_lo=-0.2, yaw_hi=0.3, seed=3)
        spec = config.dataset_spec()
        assert spec.n_subjects == 4 and spec.images_per_subject == 6
        assert spec.landmark_noise_sigma == 0.25
        assert spec.image_resolution == 24
        assert spec.pose_ranges.yaw == (-0.2, 0.3)
        assert spec.seed == 3

    def test_fit_config_fields(self):
        config = RunConfig(max_iterations=9, rel_tol=1e-4, reg_id=0.5,
                           reg_exp=0.25)
        fit = config.fit_config()
        assert fit.max_iterations == 9
        assert fit.rel_tol == 1e-4
        assert (fit.reg_id, fit.reg_exp) == (0.5, 0.25)

    def test_train_config_phase_selects_learning_rate(self):
        config = RunConfig(learning_rate=1e-3, phase3_learning_rate=2e-4)
        assert config.train_config("I").learning_rate == 1e-3
        assert config.train_config("III").learning_rate == 2e-4

    def test_train_config_carries_shared_knobs(self):
        config = RunConfig(batch_size=8, epochs=13, seed=21)
        train = config.train_config("I")
        assert train.batch_size == 8
        assert train.epochs == 13
        assert train.seed == 21
