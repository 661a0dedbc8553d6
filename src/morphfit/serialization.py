"""Deterministic file formats: OBJ point clouds, CSV reports, binary containers.

Every writer is byte-deterministic (no timestamps, no locale, sorted JSON
keys, repr floats) and atomic (write to a temp file in the target directory,
then rename), so identical pipeline runs produce identical files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import tempfile

import numpy as np

from .config import CONFIG_VERSION, RunConfig, parse_config
from .errors import (CorruptionError, InvalidArgumentError,
                     InvariantViolationError, ParseError, VersionMismatchError,
                     require)
from .evaluation import (DisentanglingReport, ReconstructionReport,
                         VerificationReport)
from .geometry import MorphableModel
from .network import (ClassifierHead, DecoderNet, EncoderNet, Layer,
                      all_params)
from .synthetic import (COLUMNS, POSE_PARAMS, Dataset, DatasetSpec,
                        PoseRanges, split_indices)

MAGIC = b"MORPHFIT"
FORMAT_VERSION = 1


def _atomic_write(path: str, *chunks) -> None:
    """Write the bytes-like `chunks` in order to `path` via a renamed temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    # mkstemp creates mode 0600 whatever the umask; give the file the mode a
    # plain open() would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# OBJ point clouds.

def write_obj(coords: np.ndarray, path: str) -> None:
    """Write flat (3n,) coordinates as one `v x y z` line per vertex, 9
    significant digits, no faces, the whole file in one %-format call."""
    coords = np.asarray(coords, dtype=np.float64)
    require(coords.ndim == 1 and coords.size % 3 == 0,
            f"coordinates must be a flat (3n,) array, got shape {coords.shape}")
    require(bool(np.all(np.isfinite(coords))), "shape coordinates must be finite")
    text = ("v %.9g %.9g %.9g\n" * (coords.size // 3)) % tuple(coords.tolist())
    _atomic_write(path, text.encode("ascii"))


# ---------------------------------------------------------------------------
# CSV reports. One header row, one data row, repr floats (exact roundtrip).

VERIFICATION_COLUMNS = ("accuracy_mean", "accuracy_std", "eer", "auc",
                        "tar_far10", "tar_far1", "rank1", "rank5")
RECONSTRUCTION_COLUMNS = ("rmse_paper", "mean_vertex_dist", "n_pairs",
                          "crop_radius")
DISENTANGLING_COLUMNS = ("intra_distance", "inter_distance",
                         "displacement_ratio", "variance_explained",
                         "degenerate")


def _csv_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(report, path: str) -> None:
    """Serialize a report to its documented fixed-order column schema."""
    if isinstance(report, VerificationReport):
        columns = VERIFICATION_COLUMNS
        values = (report.accuracy_mean, report.accuracy_std, report.eer,
                  report.auc, report.tar_at_far_10pct, report.tar_at_far_1pct,
                  report.rank1, report.rank5)
    elif isinstance(report, ReconstructionReport):
        columns = RECONSTRUCTION_COLUMNS
        values = (report.rmse_paper, report.mean_vertex_dist, report.n_pairs,
                  report.crop_radius)
    elif isinstance(report, DisentanglingReport):
        columns = DISENTANGLING_COLUMNS
        values = (report.intra_distance, report.inter_distance,
                  report.displacement_ratio, report.variance_explained,
                  report.degenerate)
    else:
        raise InvalidArgumentError(
            f"no CSV schema for report type {type(report).__name__}")
    text = ",".join(columns) + "\n" + ",".join(_csv_cell(v) for v in values) + "\n"
    _atomic_write(path, text.encode("ascii"))


def write_table_csv(columns: tuple, rows: list, path: str) -> None:
    """Generic header + rows writer used for loss traces and fit summaries."""
    lines = [",".join(columns)]
    for row in rows:
        require(len(row) == len(columns), "row length must match header")
        lines.append(",".join(_csv_cell(v) for v in row))
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# Binary container: MAGIC, u64 header length, sorted-keys JSON header, then
# raw C-order little-endian array payloads in header order.

_DTYPES = {"f8": "<f8", "i8": "<i8"}
_INT_ARRAYS = ("labels", "model.landmark_indices")  # every other array is f8


def _pack(meta: dict, arrays: dict[str, np.ndarray]) -> list:
    """The container as a list of chunks to write in order: magic, header
    length, header, then each array's C-ordered buffer itself, so writing
    it copies no array."""
    entries, payload = [], []
    for name, array in arrays.items():
        kind = "i8" if np.issubdtype(array.dtype, np.integer) else "f8"
        data = np.ascontiguousarray(array, dtype=_DTYPES[kind])
        entries.append({"name": name, "dtype": kind,
                        "shape": list(data.shape)})
        payload.append(data)
    header = dict(meta)
    header["format_version"] = FORMAT_VERSION
    header["arrays"] = entries
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return [MAGIC, struct.pack("<Q", len(blob)), blob, *payload]


def _unpack(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    if len(data) < len(MAGIC) + 8 or data[:len(MAGIC)] != MAGIC:
        raise CorruptionError("bad magic; not a container file")
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    if len(data) < start + header_len:
        raise CorruptionError("truncated header")
    try:
        header = json.loads(data[start:start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptionError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays", []), list):
        raise CorruptionError("header is not a JSON object with an 'arrays' list")
    version = header.get("format_version")
    if version != FORMAT_VERSION or isinstance(version, bool):  # True == 1
        raise VersionMismatchError(
            f"container format version {version}, expected {FORMAT_VERSION}")
    arrays = {}
    offset = start + header_len
    for entry in header.get("arrays", []):
        try:
            name, kind = entry["name"], entry["dtype"]
            shape = tuple(int(s) for s in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptionError(f"malformed array entry: {entry}") from exc
        if kind not in _DTYPES:
            raise CorruptionError(f"unknown dtype tag '{kind}'")
        expected = "i8" if name in _INT_ARRAYS else "f8"
        _invariant(kind == expected,
                   f"{name}: dtype tag '{kind}', expected '{expected}'")
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(data):
            raise CorruptionError(f"truncated payload for array '{name}'")
        # a read-only view of `data`; every consumer makes its own copy
        arrays[name] = np.frombuffer(
            data, dtype=_DTYPES[kind], count=count, offset=offset,
        ).reshape(shape)
        offset += nbytes
    if offset != len(data):
        raise CorruptionError(f"{len(data) - offset} trailing bytes")
    return header, arrays


def _invariant(cond: bool, message: str) -> None:
    if not cond:
        raise InvariantViolationError(message)


def _field(source: dict, name, kind: type = np.ndarray, label: str | None = None):
    """`source[name]` checked to be a `kind`, with no coercion (a bool is no
    int); InvariantViolationError naming the field as `label` (default
    `name`) if missing or ill-typed."""
    label = name if label is None else label
    _invariant(name in source, f"{label}: missing")
    value = source[name]
    _invariant(isinstance(value, kind) and not isinstance(value, bool),
               f"{label}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _rebuild(builder, what: str):
    # container fields satisfied the constructors when written; a failure on
    # load means the stored state violates an invariant, not a usage error
    try:
        return builder()
    except InvalidArgumentError as exc:
        raise InvariantViolationError(f"{what}: {exc}") from exc


# ---------------------------------------------------------------------------
# Checkpoints: encoder + decoder + head + the RunConfig that produced them.

def save_checkpoint(encoder: EncoderNet, decoder: DecoderNet,
                    head: ClassifierHead, config: RunConfig, path: str) -> None:
    meta = {"kind": "checkpoint",
            "activations": [layer.activation for layer in encoder.layers],
            "q_id": encoder.q_id, "q_res": encoder.q_res,
            "config": config.to_dict(), "config_version": CONFIG_VERSION}
    _atomic_write(path, *_pack(meta, all_params(encoder, decoder, head)))


def load_checkpoint(path: str) -> tuple[EncoderNet, DecoderNet,
                                        ClassifierHead, RunConfig]:
    with open(path, "rb") as handle:
        header, arrays = _unpack(handle.read())
    if header.get("kind") != "checkpoint":
        raise CorruptionError(f"container kind '{header.get('kind')}' "
                              "is not a checkpoint")
    version = (_field(header, "config_version", int)
               if "config_version" in header else "missing")
    if version != CONFIG_VERSION:
        raise VersionMismatchError(
            f"checkpoint config_version {version}, expected {CONFIG_VERSION}")
    activations = _field(header, "activations", list)
    _invariant(len(activations) >= 1, "activations: no encoder layers")
    q_id, q_res = _field(header, "q_id", int), _field(header, "q_res", int)
    layers = [_rebuild(lambda: Layer(_field(arrays, f"enc.{i}.weight"),
                                     _field(arrays, f"enc.{i}.bias"), tag),
                       f"enc.{i}.weight") for i, tag in enumerate(activations)]
    encoder = _rebuild(lambda: EncoderNet(tuple(layers), q_id, q_res), "encoder")
    decoder = _rebuild(lambda: DecoderNet(*(_field(arrays, f"dec.{name}") for name in (
        "weight_id", "bias_id", "weight_res", "bias_res"))), "decoder")
    head = _rebuild(lambda: ClassifierHead(_field(arrays, "head.weight"),
                                           _field(arrays, "head.bias")), "head")
    _invariant(decoder.q_id == encoder.q_id,
               f"dec.weight_id: decoder identity width {decoder.q_id} does "
               f"not match encoder q_id {encoder.q_id}")
    _invariant(decoder.q_res == encoder.q_res,
               f"dec.weight_res: decoder residual width {decoder.q_res} does "
               f"not match encoder q_res {encoder.q_res}")
    _invariant(head.q_id == encoder.q_id,
               f"head.weight: classifier width {head.q_id} does not match "
               f"encoder q_id {encoder.q_id}")
    stored = _field(header, "config", dict)  # text fields, resolved by parse_config
    for field in dataclasses.fields(RunConfig):
        _invariant(field.name in stored, f"config.{field.name}: missing")
    return encoder, decoder, head, parse_config(
        "\n".join(f"{k} = {v}" for k, v in sorted(stored.items())))


# ---------------------------------------------------------------------------
# Datasets: model + spec + the sample columns; splits are re-derived.

# MorphableModel array fields, stored as "model.<field>"
_MODEL_ARRAYS = ("mean", "basis_id", "basis_exp", "sigma_id", "sigma_exp",
                 "landmark_indices")
# column name -> container array name
_STORED = {column: column.replace("pose_", "pose.") for column in COLUMNS}


def save_dataset(dataset: Dataset, path: str) -> None:
    model = dataset.model
    arrays = {**{f"model.{name}": getattr(model, name) for name in _MODEL_ARRAYS},
              **{_STORED[c]: getattr(dataset, c) for c in COLUMNS}}
    meta = {"kind": "dataset", "n_samples": dataset.labels.size,
            "nose_tip_index": model.nose_tip_index,
            "spec": dataclasses.asdict(dataset.spec)}
    _atomic_write(path, *_pack(meta, arrays))


def _load_spec(stored: dict) -> DatasetSpec:
    ranges = _field(stored, "pose_ranges", dict, "spec.pose_ranges")

    def bounds(name: str) -> tuple:
        label = f"spec.pose_ranges.{name}"
        pair = _field(ranges, name, list, label)
        _invariant(len(pair) == 2,
                   f"{label}: expected [lo, hi], got {len(pair)} values")
        return tuple(_field(dict(enumerate(pair)), i, float, f"{label}[{i}]")
                     for i in range(2))

    return _rebuild(lambda: DatasetSpec(
        n_subjects=_field(stored, "n_subjects", int),
        images_per_subject=_field(stored, "images_per_subject", int),
        landmark_noise_sigma=_field(stored, "landmark_noise_sigma", float),
        pose_ranges=PoseRanges(**{name: bounds(name) for name in POSE_PARAMS}),
        image_resolution=_field(stored, "image_resolution", int),
        seed=_field(stored, "seed", int)), "spec")


def load_dataset(path: str) -> Dataset:
    with open(path, "rb") as handle:
        header, arrays = _unpack(handle.read())
    if header.get("kind") != "dataset":
        raise CorruptionError(f"container kind '{header.get('kind')}' "
                              "is not a dataset")
    spec = _load_spec(_field(header, "spec", dict))

    model = _rebuild(lambda: MorphableModel(
        nose_tip_index=_field(header, "nose_tip_index", int),
        **{name: _field(arrays, f"model.{name}") for name in _MODEL_ARRAYS}),
        "model")

    n = _field(header, "n_samples", int)
    columns = {column: _field(arrays, name) for column, name in _STORED.items()}
    for column, values in columns.items():
        _invariant(values.ndim >= 1 and values.shape[0] == n,
                   f"{_STORED[column]}: expected leading dimension {n}")
    _invariant(n == spec.n_subjects * spec.images_per_subject,
               f"n_samples: {n} does not equal n_subjects * images_per_subject")
    train, val, test = split_indices(spec.n_subjects, spec.images_per_subject)
    dataset = _rebuild(lambda: Dataset(
        model=model, spec=spec, train_indices=train, val_indices=val,
        test_indices=test, **columns), "dataset")
    # the splits above hold only for rows ordered subject-major
    layout = np.repeat(np.arange(spec.n_subjects), spec.images_per_subject)
    i = int(np.argmax(dataset.labels != layout))  # first bad row, else 0
    _invariant(dataset.labels[i] == layout[i],
               f"labels: sample {i} has label {dataset.labels[i]}, expected "
               f"{layout[i]} (rows must be ordered subject-major)")
    return dataset
