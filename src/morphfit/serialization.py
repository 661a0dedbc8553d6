"""Deterministic file formats: OBJ point clouds, CSV reports, binary containers.

Every writer is byte-deterministic (no timestamps, no locale, sorted JSON
keys, repr floats) and atomic (write to a temp file in the target directory,
then rename), so identical pipeline runs produce identical files.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from .config import RunConfig
from .errors import (CorruptionError, InvalidArgumentError,
                     InvariantViolationError, ParseError, VersionMismatchError,
                     require)
from .evaluation import (DisentanglingReport, ReconstructionReport,
                         VerificationReport)
from .geometry import (CoeffPair, LandmarkSet2D, MorphableModel, PoseParams,
                       Shape, compose_shape)
from .network import (ClassifierHead, DecoderNet, EncoderNet, Layer,
                      all_params)
from .synthetic import Dataset, DatasetSpec, PoseRanges, RenderedSample

MAGIC = b"MORPHFIT"
FORMAT_VERSION = 1


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    # mkstemp creates mode 0600 whatever the umask; give the file the mode a
    # plain open() would
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# OBJ point clouds.

def write_obj(shape: Shape, path: str) -> None:
    """Write one `v x y z` line per vertex, 9 significant digits, no faces."""
    lines = [f"v {x:.9g} {y:.9g} {z:.9g}" for x, y, z in shape.points]
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_obj(path: str) -> Shape:
    """Parse `v` lines in order; comments and blanks skipped, anything else fails.

    Unsupported directives (faces, normals, ...) raise ParseError naming the
    directive and its line; too few vertices surfaces as the Shape invariant.
    """
    coords: list[float] = []
    with open(path, "r", encoding="ascii") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] != "v":
                raise ParseError(f"unsupported directive '{parts[0]}'", line_no)
            if len(parts) != 4:
                raise ParseError(f"vertex line needs 3 coordinates, got "
                                 f"{len(parts) - 1}", line_no)
            try:
                coords.extend(float(p) for p in parts[1:])
            except ValueError:
                raise ParseError(f"malformed coordinate in '{line}'",
                                 line_no) from None
    return Shape(np.array(coords))


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


def _pack(meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    entries = []
    payload = bytearray()
    for name, array in arrays.items():
        kind = "i8" if np.issubdtype(array.dtype, np.integer) else "f8"
        data = np.ascontiguousarray(array, dtype=_DTYPES[kind])
        entries.append({"name": name, "dtype": kind,
                        "shape": list(data.shape)})
        payload.extend(data.tobytes())
    header = dict(meta)
    header["format_version"] = FORMAT_VERSION
    header["arrays"] = entries
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(blob)) + blob + bytes(payload)


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
    version = header.get("format_version")
    if version != FORMAT_VERSION:
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
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(data):
            raise CorruptionError(f"truncated payload for array '{name}'")
        arrays[name] = np.frombuffer(
            data, dtype=_DTYPES[kind], count=count, offset=offset,
        ).reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise CorruptionError(f"{len(data) - offset} trailing bytes")
    return header, arrays


def _invariant(cond: bool, message: str) -> None:
    if not cond:
        raise InvariantViolationError(message)


def _field(source: dict, name: str, kind: type = np.ndarray):
    """`source[name]` checked to be a `kind`, with no coercion (a bool is no
    int); InvariantViolationError naming the field if missing or ill-typed."""
    _invariant(name in source, f"{name}: missing")
    value = source[name]
    _invariant(isinstance(value, kind) and not isinstance(value, bool),
               f"{name}: expected {kind.__name__}, got {type(value).__name__}")
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
            "config": config.to_dict()}
    _atomic_write(path, _pack(meta, all_params(encoder, decoder, head)))


def load_checkpoint(path: str) -> tuple[EncoderNet, DecoderNet,
                                        ClassifierHead, RunConfig]:
    with open(path, "rb") as handle:
        header, arrays = _unpack(handle.read())
    if header.get("kind") != "checkpoint":
        raise CorruptionError(f"container kind '{header.get('kind')}' "
                              "is not a checkpoint")
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
    from .config import parse_config  # resolve text fields into a RunConfig
    stored = _field(header, "config", dict)
    config_text = "\n".join(f"{k} = {v}" for k, v in sorted(stored.items()))
    config = parse_config(config_text)
    return encoder, decoder, head, config


# ---------------------------------------------------------------------------
# Datasets: model + spec + all rendered samples; splits are re-derived.

def save_dataset(dataset: Dataset, path: str) -> None:
    model = dataset.model
    n = len(dataset.samples)
    arrays = {
        "model.mean": model.mean.coords,
        "model.basis_id": model.basis_id,
        "model.basis_exp": model.basis_exp,
        "model.sigma_id": model.sigma_id,
        "model.sigma_exp": model.sigma_exp,
        "model.landmark_indices": model.landmark_indices,
        "labels": np.array([s.subject_label for s in dataset.samples],
                           dtype=np.int64),
        "alpha_id": np.array([s.ground_truth_coeffs.alpha_id
                              for s in dataset.samples]),
        "alpha_exp": np.array([s.ground_truth_coeffs.alpha_exp
                               for s in dataset.samples]),
        "pose.scale": np.array([s.ground_truth_pose.scale
                                for s in dataset.samples]),
        "pose.rotation": np.array([s.ground_truth_pose.rotation
                                   for s in dataset.samples]),
        "pose.translation": np.array([s.ground_truth_pose.translation
                                      for s in dataset.samples]),
        "landmarks": np.array([s.landmarks.coords for s in dataset.samples]),
        "depth": np.array([s.depth_image for s in dataset.samples]),
    }
    spec = dataset.spec
    ranges = spec.pose_ranges
    meta = {"kind": "dataset", "n_samples": n,
            "nose_tip_index": model.nose_tip_index,
            "spec": {"n_subjects": spec.n_subjects,
                     "images_per_subject": spec.images_per_subject,
                     "landmark_noise_sigma": spec.landmark_noise_sigma,
                     "image_resolution": spec.image_resolution,
                     "seed": spec.seed,
                     "pose_ranges": {name: list(getattr(ranges, name))
                                     for name in ("yaw", "pitch", "roll",
                                                  "scale", "tx", "ty", "tz")}}}
    _atomic_write(path, _pack(meta, arrays))


def load_dataset(path: str) -> Dataset:
    from .synthetic import split_indices
    with open(path, "rb") as handle:
        header, arrays = _unpack(handle.read())
    if header.get("kind") != "dataset":
        raise CorruptionError(f"container kind '{header.get('kind')}' "
                              "is not a dataset")
    try:
        stored = header["spec"]
        ranges = PoseRanges(**{k: tuple(v)
                               for k, v in stored["pose_ranges"].items()})
        spec = DatasetSpec(n_subjects=_field(stored, "n_subjects", int),
                           images_per_subject=_field(stored, "images_per_subject",
                                                     int),
                           landmark_noise_sigma=float(
                               stored["landmark_noise_sigma"]),
                           pose_ranges=ranges,
                           image_resolution=_field(stored, "image_resolution", int),
                           seed=_field(stored, "seed", int))
    except (KeyError, TypeError) as exc:
        raise CorruptionError(f"malformed dataset spec: {exc}") from exc

    model = _rebuild(lambda: MorphableModel(
        mean=Shape(_field(arrays, "model.mean")),
        basis_id=_field(arrays, "model.basis_id"),
        basis_exp=_field(arrays, "model.basis_exp"),
        sigma_id=_field(arrays, "model.sigma_id"),
        sigma_exp=_field(arrays, "model.sigma_exp"),
        landmark_indices=_field(arrays, "model.landmark_indices"),
        nose_tip_index=_field(header, "nose_tip_index", int)), "model")

    n = _field(header, "n_samples", int)
    for name in ("labels", "alpha_id", "alpha_exp", "pose.scale",
                 "pose.rotation", "pose.translation", "landmarks", "depth"):
        _invariant(name in arrays and arrays[name].shape[0] == n,
                   f"{name}: expected leading dimension {n}")
    samples = []
    for i in range(n):
        coeffs = _rebuild(lambda: CoeffPair(arrays["alpha_id"][i],
                                            arrays["alpha_exp"][i]),
                          f"sample {i} coefficients")
        pose = _rebuild(lambda: PoseParams(float(arrays["pose.scale"][i]),
                                           arrays["pose.rotation"][i],
                                           arrays["pose.translation"][i]),
                        f"sample {i} pose")
        samples.append(_rebuild(lambda: RenderedSample(
            subject_label=int(arrays["labels"][i]),
            ground_truth_coeffs=coeffs,
            ground_truth_pose=pose,
            landmarks=LandmarkSet2D(arrays["landmarks"][i]),
            depth_image=arrays["depth"][i],
            ground_truth_shape=compose_shape(model, coeffs)),
            f"sample {i}"))
    _invariant(n == spec.n_subjects * spec.images_per_subject,
               f"n_samples: {n} does not equal n_subjects * images_per_subject")
    train, val, test = split_indices(spec.n_subjects, spec.images_per_subject)
    return Dataset(model=model, spec=spec, samples=samples,
                   train_indices=train, val_indices=val, test_indices=test)
