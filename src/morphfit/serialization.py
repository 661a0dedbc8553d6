"""Deterministic file formats: OBJ point clouds, CSV tables, binary containers.

Every writer is byte-deterministic (no timestamps, no locale, sorted JSON
keys, repr floats) and atomic (write to a temp file in the target directory,
then rename), so identical pipeline runs produce identical files.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import struct

import numpy as np

from .config import CONFIG_VERSION, RunConfig, parse_config
from .errors import (CorruptionError, InvalidArgumentError,
                     InvariantViolationError, ParseError, VersionMismatchError,
                     require)
from .geometry import MorphableModel
from .network import ClassifierHead, DecoderNet, EncoderNet
from .synthetic import (COLUMNS, POSE_PARAMS, Dataset, DatasetSpec, PoseRanges, _check_rows,
                        _column_shapes, _depth_checks)

MAGIC = b"MORPHFIT"
FORMAT_VERSION = 2


def _atomic_write(path: str, *chunks) -> None:
    """Write the bytes-like `chunks` in order to `path` via a renamed temp file,
    created exclusively (a 64-bit random name) with mode 0o666, so that the
    umask applies as for a plain open()."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
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
    _atomic_write(path, (b"v %.9g %.9g %.9g\n" * (coords.size // 3)) % tuple(coords.tolist()))


# ---------------------------------------------------------------------------
# CSV tables: one header row, then data rows, repr floats (exact roundtrip).

def _csv_cell(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table_csv(columns: tuple, rows: list, path: str) -> None:
    """Header + rows writer for loss traces, fit summaries and eval reports
    (a report's header is its `_fields`, its one row the report itself)."""
    lines = [",".join(columns)]
    for row in rows:
        require(len(row) == len(columns), "row length must match header")
        lines.append(",".join(_csv_cell(v) for v in row))
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# Binary container: MAGIC, u64 header length, sorted-keys JSON header, then
# raw C-order little-endian array payloads in header order.

_DTYPES = {"f8": "<f8", "i8": "<i8"}
_INT_ARRAYS = ("model.landmark_indices",)  # every other array is f8


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


def _index(handle, kind: str | None = None) -> tuple[dict, list]:
    """Header and checked (name, dtype, shape, offset, nbytes) list of a `kind` container."""
    size = os.fstat(handle.fileno()).st_size
    start = len(MAGIC) + 8
    prefix = handle.read(start)
    if len(prefix) < start or prefix[:len(MAGIC)] != MAGIC:
        raise CorruptionError("bad magic; not a container file")
    (header_len,) = struct.unpack_from("<Q", prefix, len(MAGIC))
    if size < start + header_len:
        raise CorruptionError("truncated header")
    try:
        header = json.loads(handle.read(header_len).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or digits; deep nesting
        raise CorruptionError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays", []), list):
        raise CorruptionError("header is not a JSON object with an 'arrays' list")
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # True == 1, 2.0 == 2
        raise VersionMismatchError(
            f"container format version {version}, expected {FORMAT_VERSION}")
    layout, offset = [], start + header_len
    for entry in header.get("arrays", []):
        try:
            name, tag = entry["name"], entry["dtype"]
            shape = tuple(int(s) for s in entry["shape"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:  # int(1e400)
            raise CorruptionError(f"malformed array entry: {entry}") from exc
        if any(s < 0 for s in shape):
            raise CorruptionError(f"malformed array entry: {entry}")
        if tag not in _DTYPES:
            raise CorruptionError(f"unknown dtype tag '{tag}'")
        expected = "i8" if name in _INT_ARRAYS else "f8"
        _invariant(tag == expected,
                   f"{name}: dtype tag '{tag}', expected '{expected}'")
        nbytes = 8 * math.prod(shape)
        if offset + nbytes > size:
            raise CorruptionError(f"truncated payload for array '{name}'")
        layout.append((name, _DTYPES[tag], shape, offset, nbytes))
        offset += nbytes
    if offset != size:
        raise CorruptionError(f"{size - offset} trailing bytes")
    if kind is not None and header.get("kind") != kind:
        raise CorruptionError(f"container kind '{header.get('kind')}' is not a {kind}")
    return header, layout


def _read(handle, entry: tuple, rows: range | None = None) -> np.ndarray:
    """An `_index` entry's array, or only its `rows`, as a view of its own `bytes`."""
    _, dtype, shape, offset, nbytes = entry
    if rows is not None:  # C order: a row range is one byte range
        step, shape = nbytes // shape[0], (len(rows), *shape[1:])
        offset, nbytes = offset + rows.start * step, len(rows) * step
    handle.seek(offset)
    return np.frombuffer(handle.read(nbytes), dtype=dtype).reshape(shape)


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
            "activations": [tag for _, _, tag in encoder.layers],
            "q_id": encoder.q_id, "q_res": encoder.q_res,
            "config": config.to_dict(), "config_version": CONFIG_VERSION}
    _atomic_write(path, *_pack(meta, {**encoder.params, **decoder.params,
                                      **head.params}))


def load_checkpoint(path: str) -> tuple[EncoderNet, DecoderNet,
                                        ClassifierHead, RunConfig]:
    with open(path, "rb") as handle:
        header, layout = _index(handle, "checkpoint")
        version = (_field(header, "config_version", int)
                   if "config_version" in header else "missing")
        if version != CONFIG_VERSION:
            raise VersionMismatchError(
                f"checkpoint config_version {version}, expected {CONFIG_VERSION}")
        activations = _field(header, "activations", list)
        _invariant(len(activations) >= 1, "activations: no encoder layers")
        q_id, q_res = _field(header, "q_id", int), _field(header, "q_res", int)

        entries = [(name, shape) for name, _, shape, *_ in layout]

        def shape(name: str) -> tuple:
            # the stored matrices give the widths, and so the layout that every
            # stored array is then checked against, in order
            dims = _field(dict(entries), name, tuple)
            _invariant(len(dims) == 2, f"{name}: shape {dims}, expected a matrix")
            return dims

        shapes = [shape(f"enc.{i}.weight") for i in range(len(activations))]
        widths = [shapes[0][1], *(rows for rows, _ in shapes)]
        nets = (("encoder", EncoderNet, (widths, activations, q_id, q_res)),
                ("decoder", DecoderNet, (shape("dec.weight_id")[0], q_id, q_res)),
                ("head", ClassifierHead, (shape("head.weight")[0], q_id)))
        layouts = [kind._layout(*structure) for _, kind, structure in nets]
        for i, (got, want) in enumerate(itertools.zip_longest(entries, sum(layouts, []))):
            _invariant(got == want, f"array {i}: stored {got}, expected {want}")
        # each network's arrays, in checkpoint order, read into their own `bytes`
        vectors = [np.frombuffer(handle.read(8 * sum(math.prod(dims) for _, dims in layout)),
                                 dtype="<f8") for layout in layouts]
    encoder, decoder, head = (_rebuild(lambda: kind(*structure, vector), what)
                              for (what, kind, structure), vector in zip(nets, vectors))
    stored = _field(header, "config", dict)  # text fields, resolved by parse_config
    for field in dataclasses.fields(RunConfig):
        _invariant(field.name in stored, f"config.{field.name}: missing")
    return encoder, decoder, head, parse_config(
        "\n".join(f"{k} = {v}" for k, v in sorted(stored.items())))


# ---------------------------------------------------------------------------
# Datasets: model + spec + the sample columns; the spec gives the labels and split.

# MorphableModel array fields, stored as "model.<field>"
_MODEL_ARRAYS = ("mean", "basis_id", "basis_exp", "sigma_id", "sigma_exp",
                 "landmark_indices")
# column name -> container array name
_STORED = {column: column.replace("pose_", "pose.") for column in COLUMNS}


def save_dataset(dataset: Dataset, path: str) -> None:
    require(dataset.rows == dataset.spec.window(), "cannot save a window of rows")
    require(all(getattr(dataset, c) is not None for c in COLUMNS), "cannot save unread columns")
    model = dataset.model
    arrays = {**{f"model.{name}": getattr(model, name) for name in _MODEL_ARRAYS},
              **{_STORED[c]: getattr(dataset, c) for c in COLUMNS}}
    meta = {"kind": "dataset", "nose_tip_index": model.nose_tip_index,
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


def load_dataset(path: str, rows=None, columns=COLUMNS) -> Dataset:
    """The dataset at `path`, or only the whole subjects' rows `rows(spec)` of its spec, and
    of the sample columns only `columns` (None for each other one); of what is not read
    only the header's claims are checked: dtype tags, size, shapes."""
    require(set(columns) <= set(COLUMNS), f"columns must be among {COLUMNS}, got {columns}")
    with open(path, "rb") as handle:
        header, layout = _index(handle, "dataset")
        spec = _load_spec(_field(header, "spec", dict))
        entries = {entry[0]: entry for entry in layout}
        model = _rebuild(lambda: MorphableModel(
            nose_tip_index=_field(header, "nose_tip_index", int),
            **{name: _read(handle, _field(entries, f"model.{name}", tuple))
               for name in _MODEL_ARRAYS}), "model")
        stored = {column: _field(entries, name, tuple) for column, name in _STORED.items()}
        want = _column_shapes(model, spec.image_resolution, len(spec.window()))
        for column, (_, _, shape, *_) in stored.items():  # every column, read or not
            _invariant(shape == want[column],
                       f"dataset: {column} must be {want[column]}, got {shape}")
        window = spec.window(rows(spec) if rows else None)
        arrays = {column: _read(handle, entry, window) if column in columns else None
                  for column, entry in stored.items()}
    return _rebuild(lambda: Dataset(model=model, spec=spec, rows=window, **arrays), "dataset")


def _depth_chunks(path: str, dataset: Dataset, blocks: list):
    """Depth rows `dataset.rows[s]` of the dataset at `path` for each slice s of `blocks`, in
    turn, from one open file that must still hold `dataset`'s spec and depth shape, checked
    as `Dataset` checks them, one flattened image per row."""
    with open(path, "rb") as handle:
        header, layout = _index(handle, "dataset")
        entry, spec = _field({e[0]: e for e in layout}, "depth", tuple), dataset.spec
        r, n = spec.image_resolution, len(spec.window())
        _invariant(_load_spec(_field(header, "spec", dict)) == spec and entry[2] == (n, r, r),
                   "dataset: changed since it was loaded")
        for rows in (dataset.rows[s] for s in blocks):
            depth = _read(handle, entry, rows)
            _rebuild(lambda: _check_rows(_depth_checks(depth), rows.start), "dataset")
            yield depth.reshape(len(depth), -1)
