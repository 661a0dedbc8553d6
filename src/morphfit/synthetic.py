"""Seeded synthetic morphable models and rendered datasets.

Everything here is deterministic: the mean surface and the landmark subset
depend only on the vertex count, the bases on the model seed, and dataset
sampling on the dataset seed through spawned per-subject and per-image
generators, so samples could be drawn in parallel without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, require
from .geometry import (ROTATION_TOL, MorphableModel, _readonly, _rotation_errors,
                       coord_rows, rotation_zyx)

# Landmark subset size, fixed across all synthetic models.
N_LANDMARKS = 68

# Random Fourier features per smooth field channel.
_N_FEATURES = 24

# Geometric decay ratio of the per-dimension sampling stds.
_SIGMA_DECAY = 0.9


@dataclass(frozen=True)
class SyntheticModelSpec:
    """Parameters of the synthetic model generator."""

    n_vertices: int = 600
    k_id: int = 20
    k_exp: int = 8
    smoothness: float = 0.5
    seed: int = 0

    def __post_init__(self):
        require(self.k_id >= 1, "k_id must be >= 1")
        require(self.k_exp >= 1, "k_exp must be >= 1")
        minimum = max(self.k_id + self.k_exp + 1, N_LANDMARKS)
        require(self.n_vertices >= minimum,
                f"n_vertices must be >= {minimum}, got {self.n_vertices}")
        require(np.isfinite(self.smoothness) and self.smoothness > 0,
                "smoothness must be finite and positive")
        require(self.seed >= 0, "seed must be non-negative")


# The pose parameters, in sampling order.
POSE_PARAMS = ("yaw", "pitch", "roll", "scale", "tx", "ty", "tz")


@dataclass(frozen=True)
class PoseRanges:
    """Closed sampling intervals (lo, hi) for each pose parameter.

    Angles are radians for the intrinsic Z-Y-X convention of `rotation_zyx`;
    scale must stay positive; translations are in model units and applied
    before rotation. Defaults are a near-frontal jitter: at the default
    32x32 raster resolution a pixel spans ~6% of the face, so wider pose
    sweeps would drown the shape signal the encoder is meant to learn.
    Fitting-oriented workloads should widen these explicitly.
    """

    yaw: tuple[float, float] = (-0.015, 0.015)
    pitch: tuple[float, float] = (-0.025, 0.025)
    roll: tuple[float, float] = (-0.015, 0.015)
    scale: tuple[float, float] = (0.99, 1.01)
    tx: tuple[float, float] = (-0.01, 0.01)
    ty: tuple[float, float] = (-0.01, 0.01)
    tz: tuple[float, float] = (-0.01, 0.01)

    def __post_init__(self):
        for name in POSE_PARAMS:
            lo, hi = map(float, getattr(self, name))
            object.__setattr__(self, name, (lo, hi))
            require(np.isfinite(lo) and np.isfinite(hi) and lo <= hi,
                    f"pose range {name} must satisfy lo <= hi, got ({lo}, {hi})")
        require(self.scale[0] > 0, "scale range must stay positive")


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of the rendered dataset builder."""

    n_subjects: int = 20
    images_per_subject: int = 10
    landmark_noise_sigma: float = 0.0
    pose_ranges: PoseRanges = field(default_factory=PoseRanges)
    image_resolution: int = 32
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "landmark_noise_sigma",
                           float(self.landmark_noise_sigma))
        require(self.n_subjects >= 2, "need at least 2 subjects")
        require(self.images_per_subject >= 1, "need at least 1 image per subject")
        require(np.isfinite(self.landmark_noise_sigma)
                and self.landmark_noise_sigma >= 0,
                "landmark_noise_sigma must be finite and non-negative")
        require(self.image_resolution >= 8, "image_resolution must be >= 8")
        require(self.seed >= 0, "seed must be non-negative")


# Dataset columns, row i of each being sample i; the container stores them
# under these names, with "pose_" written "pose.".
COLUMNS = ("labels", "alpha_id", "alpha_exp", "pose_scale", "pose_rotation",
           "pose_translation", "landmarks", "depth")


@dataclass(frozen=True)
class Dataset:
    """Rendered samples as one read-only, C-ordered array per field, plus the
    generating model. Row i of every column is sample i: its subject label,
    ground-truth coefficients and pose, its projected landmarks
    (u1, v1, ..., uL, vL) and its depth raster. Rows are subject-major, so
    the spec fixes the row count, every row's label and the train,
    validation and held-out rows (`split_indices`).
    """

    model: MorphableModel
    spec: DatasetSpec
    labels: np.ndarray            # (n,) int64, row i's is i // images_per_subject
    alpha_id: np.ndarray          # (n, k_id)
    alpha_exp: np.ndarray         # (n, k_exp)
    pose_scale: np.ndarray        # (n,), > 0
    pose_rotation: np.ndarray     # (n, 3, 3), proper rotations
    pose_translation: np.ndarray  # (n, 3)
    landmarks: np.ndarray         # (n, 2 * n_landmarks)
    depth: np.ndarray             # (n, r, r), values in [-1, 1]
    train_indices: np.ndarray = field(init=False)
    val_indices: np.ndarray = field(init=False)
    test_indices: np.ndarray = field(init=False)

    def __post_init__(self):
        require(np.issubdtype(np.asarray(self.labels).dtype, np.integer),
                "labels must be integers")
        model, spec, r = self.model, self.spec, self.spec.image_resolution
        n, given = spec.n_subjects * spec.images_per_subject, np.size(self.labels)
        require(given == n, f"sample {min(given, n)} labels: expected n_subjects * "
                f"images_per_subject = {n} rows, got {given}")
        for name, tail in zip(COLUMNS, ((), (model.k_id,), (model.k_exp,), (),
                                        (3, 3), (3,), (2 * model.n_landmarks,),
                                        (r, r))):
            column = _readonly(getattr(self, name),
                               np.int64 if name == "labels" else np.float64)
            object.__setattr__(self, name, column)
            require(column.shape == (n, *tail),
                    f"{name} must be {(n, *tail)}, got {column.shape}")

        # Finite values, positive scales, proper rotations, the depth range
        # and the subject-major labels, checked over whole columns; the error
        # names the first failing row and, within it, the first failing check.
        def per_row(passed):
            return passed.all(axis=tuple(range(1, passed.ndim)))

        gram_err, det_err = _rotation_errors(
            np.where(np.isfinite(self.pose_rotation), self.pose_rotation, 0.0))
        # a row's min and max carry its NaN and its infinities: no depth-sized temporaries
        lo, hi = self.depth.min(axis=(1, 2)), self.depth.max(axis=(1, 2))
        layout = np.arange(n) // spec.images_per_subject
        checks = [(per_row(np.isfinite(getattr(self, name))),
                   f"{name}: values must be finite") for name in COLUMNS[1:-1]]
        checks += [
            (np.isfinite(lo) & np.isfinite(hi), "depth: values must be finite"),
            (self.pose_scale > 0.0, "pose_scale: must be positive, got {scale}"),
            (gram_err <= ROTATION_TOL,
             "pose_rotation: not orthonormal (max deviation {gram:.3e})"),
            (det_err <= ROTATION_TOL,
             "pose_rotation: not proper (|det - 1| = {det:.3e})"),
            ((lo >= -1.0) & (hi <= 1.0), "depth: values must lie in [-1, 1]"),
            (self.labels == layout,
             "labels: must be {expected} (rows are subject-major), got {label}"),
        ]
        ok = np.column_stack([passed for passed, _ in checks])
        bad = np.flatnonzero(~ok.all(axis=1))
        if bad.size:
            i = int(bad[0])
            message = checks[int(np.argmin(ok[i]))][1].format(
                scale=self.pose_scale[i], gram=gram_err[i], det=det_err[i],
                label=self.labels[i], expected=layout[i])
            raise InvalidArgumentError(f"sample {i} {message}")
        for name, rows in zip(("train_indices", "val_indices", "test_indices"),
                              split_indices(spec.n_subjects, spec.images_per_subject)):
            object.__setattr__(self, name, rows)

    @property
    def n_train_subjects(self) -> int:
        return int(np.unique(self.labels[self.train_indices]).size)

    def images(self, rows) -> np.ndarray:
        """Depth rasters of the given rows (a view for a slice), one flattened per row."""
        return self.depth[rows].reshape(-1, self.spec.image_resolution ** 2)

    def ground_truth_shapes(self, rows) -> np.ndarray:
        """Flat ground-truth shapes of the given rows, one per row."""
        return _compose_rows(self.model, self.alpha_id[rows], self.alpha_exp[rows])


def _mean_face_vertices(n: int) -> np.ndarray:
    """Deterministic front-facing ellipsoidal surface with a nose bump.

    Vertices are a Fibonacci lattice on the +z half of an ellipsoid, displaced
    along z by a central bump (making the max-z vertex a nose tip) and a mild
    low-frequency ripple. Depends only on the vertex count.
    """
    i = np.arange(n, dtype=np.float64)
    cos_theta = 1.0 - 0.92 * (i + 0.5) / n
    sin_theta = np.sqrt(np.clip(1.0 - cos_theta ** 2, 0.0, 1.0))
    azimuth = np.pi * (3.0 - np.sqrt(5.0)) * i
    x = 0.75 * sin_theta * np.cos(azimuth)
    y = 1.0 * sin_theta * np.sin(azimuth)
    z = 0.55 * cos_theta
    z = z + 0.30 * np.exp(-(x ** 2 / 0.030 + y ** 2 / 0.045))
    z = z + 0.05 * np.sin(2.5 * y) * np.cos(1.5 * x)
    return np.column_stack([x, y, z])


def _smooth_fields(positions: np.ndarray, n_fields: int, smoothness: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Stack of smooth random displacement fields as a (3n, n_fields) matrix.

    Each field assigns every vertex a 3-vector; each component is a random
    Fourier series cos(p @ w + phi) with frequencies ~ N(0, 1/smoothness^2),
    so larger smoothness means longer spatial wavelengths.
    """
    n = positions.shape[0]
    freq_std = 1.0 / smoothness
    omegas = rng.normal(0.0, freq_std, size=(n_fields, 3, _N_FEATURES, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_fields, 3, _N_FEATURES))
    amps = rng.normal(0.0, 1.0, size=(n_fields, 3, _N_FEATURES)) / np.sqrt(_N_FEATURES)
    out = np.empty((3 * n, n_fields))
    for f in range(n_fields):
        vals = np.empty((n, 3))
        for c in range(3):
            args = positions @ omegas[f, c].T + phases[f, c]
            vals[:, c] = np.cos(args) @ amps[f, c]
        out[:, f] = vals.ravel()
    return out


def _affine_modes(positions: np.ndarray) -> np.ndarray:
    """Orthonormal basis of global affine displacement fields, (3n, 12).

    Spans the three translations and the nine linear modes that displace
    component a of every vertex by coordinate b of its position (covering
    scaling, rotation and shear). Deformation bases are built orthogonal to
    this subspace, mirroring shape models learned from similarity-aligned
    scans; without this, low-frequency fields carry large near-affine
    components that a fitter's pose block also explains, which couples the
    alternation blocks and stalls convergence.
    """
    n = positions.shape[0]
    modes = np.zeros((3 * n, 12))
    col = 0
    for axis in range(3):
        modes[axis::3, col] = 1.0
        col += 1
    for axis in range(3):
        for coord in range(3):
            modes[axis::3, col] = positions[:, coord]
            col += 1
    q, _ = np.linalg.qr(modes)
    return q


def _farthest_point_indices(points: np.ndarray, start: int, count: int) -> np.ndarray:
    """Greedy farthest-point subset of `count` vertex indices starting at `start`."""
    chosen = [start]
    dists = np.linalg.norm(points - points[start], axis=1)
    for _ in range(count - 1):
        nxt = int(np.argmax(dists))
        chosen.append(nxt)
        dists = np.minimum(dists, np.linalg.norm(points - points[nxt], axis=1))
    return np.array(chosen, dtype=np.int64)


def generate_model(spec: SyntheticModelSpec) -> MorphableModel:
    """Build the deterministic synthetic morphable model for a spec.

    The mean surface and the 68 farthest-point-spread landmark indices depend
    only on the vertex count. The identity and residual bases come from
    seeded smooth random fields, orthonormalized so that basis columns are
    orthonormal and the two bases are mutually orthogonal to within 1e-10.
    Sampling stds decay geometrically from 1.0 with ratio 0.9.

    Two extra structural properties are imposed on the fields, mirroring
    shape models built from similarity-aligned scans and keeping the blocks
    of an alternating landmark fitter decoupled:

    - every basis column has zero affine moments over the landmark subset
      (sum_l a_l = 0 and sum_l a_l p_l^T = 0 at the mean landmark positions
      p_l), so a pose solver explains none of it to first order;
    - every identity/residual column pair has a zero landmark cross-moment
      matrix sum_l a_l b_l^T, which makes the two coefficient blocks exactly
      orthogonal after any weak-perspective projection.

    When the requested widths leave no room for the exact cross-moment null
    space (large k_id at the fixed landmark count), the least-coupled
    directions are used instead; construction stays deterministic.
    """
    rng = np.random.default_rng(spec.seed)
    vertices = _mean_face_vertices(spec.n_vertices)
    nose_tip = int(np.argmax(vertices[:, 2]))
    landmark_indices = _farthest_point_indices(vertices, nose_tip, N_LANDMARKS)
    rows = coord_rows(landmark_indices)

    n_fields = spec.k_id + spec.k_exp
    extra = int(min(9 * spec.k_exp + 36, 160, 3 * spec.n_vertices - n_fields))
    pool = _smooth_fields(vertices, n_fields + max(extra, 0), spec.smoothness, rng)

    # Cancel each field's landmark-restricted affine content with a global
    # affine field, leaving the fields smooth but invisible to an affine fit
    # on the landmark subset.
    affine = _affine_modes(vertices)
    leak, *_ = np.linalg.lstsq(affine[rows], pool[rows], rcond=None)
    pool -= affine @ leak

    q, r = np.linalg.qr(pool)
    diag = np.diag(r)
    if np.min(np.abs(diag)) <= 1e-12 * np.max(np.abs(diag)):
        raise InvalidArgumentError(
            "random smooth fields are numerically dependent; change the seed")
    q = q * np.sign(diag)

    basis_exp = q[:, :spec.k_exp]
    remainder = q[:, spec.k_exp:]

    # Cross-moment constraints: for identity column b and residual column e,
    # sum_l e_l b_l^T = 0. Rows of the constraint matrix act on the landmark
    # part of b, expressed in pool coordinates through `remainder`.
    exp_landmark = basis_exp[rows].reshape(N_LANDMARKS, 3, spec.k_exp)
    rem_landmark = remainder[rows].reshape(N_LANDMARKS, 3, remainder.shape[1])
    constraints = np.einsum("lre,lcb->recb", exp_landmark, rem_landmark)
    constraints = constraints.reshape(9 * spec.k_exp, remainder.shape[1])
    _, sv, vt = np.linalg.svd(constraints, full_matrices=True)
    # Least-coupled directions last; exact null space when dimensions allow.
    basis_id = remainder @ vt[-spec.k_id:][::-1].T

    sigma_id = _SIGMA_DECAY ** np.arange(spec.k_id)
    sigma_exp = _SIGMA_DECAY ** np.arange(spec.k_exp)
    return MorphableModel(mean=vertices.ravel(), basis_id=basis_id,
                          basis_exp=basis_exp, sigma_id=sigma_id, sigma_exp=sigma_exp,
                          landmark_indices=landmark_indices,
                          nose_tip_index=nose_tip)


def sample_subject(model: MorphableModel, rng: np.random.Generator) -> np.ndarray:
    """Draw identity coefficients with independent N(0, sigma_id^2) entries."""
    return rng.normal(0.0, 1.0, size=model.k_id) * model.sigma_id


def sample_instance(model: MorphableModel, spec: DatasetSpec,
                    rng: np.random.Generator) -> tuple:
    """Draw per-image residual coefficients and a uniform pose within ranges:
    (alpha_exp, scale, rotation, translation)."""
    alpha_exp = rng.normal(0.0, 1.0, size=model.k_exp) * model.sigma_exp
    yaw, pitch, roll, scale, tx, ty, tz = (
        rng.uniform(*getattr(spec.pose_ranges, name)) for name in POSE_PARAMS)
    return alpha_exp, scale, rotation_zyx(yaw, pitch, roll), np.array([tx, ty, tz])


# Rows per chunk of the stacked renderer; bounds its temporaries to about a
# megabyte at the default model size. With 32 rows, one `eval` at the
# benchmark's 200 held-out images peaked 0.9 MB above rendering one image
# at a time; with 16 it does not.
_RENDER_CHUNK = 16


@np.errstate(over="ignore", invalid="ignore")  # each caller checks the shapes it needs finite
def _compose_rows(model: MorphableModel, alpha_id: np.ndarray,
                  alpha_exp: np.ndarray) -> np.ndarray:
    """Flat shapes mean + basis_id @ a + basis_exp @ e, one per coefficient row.

    Each row is its own pair of GEMVs, so it has the bits of composing that
    row alone: one matrix product over all rows sums in another order and
    changes the last bits. Finite but huge coefficients may compose to
    non-finite shapes, quietly.
    """
    alpha_id = np.ascontiguousarray(alpha_id, dtype=np.float64)
    alpha_exp = np.ascontiguousarray(alpha_exp, dtype=np.float64)
    out, key = np.empty((len(alpha_id), model.mean.size)), None
    for shape, a, e in zip(out, alpha_id, alpha_exp):
        if a.tobytes() != key:  # rows with equal alpha_id bytes share one identity part
            key, identity = a.tobytes(), model.mean + model.basis_id @ a
        np.add(identity, model.basis_exp @ e, out=shape)
    return out


def _pose_rows(points: np.ndarray, rotation: np.ndarray,
               translation: np.ndarray) -> np.ndarray:
    """(p + t) @ R^T for each row's (n, 3) points of an (m, n, 3) stack.

    numpy's matmul runs each slice of a stack as its own product, so row k
    is what posing that row alone gives.
    """
    return (points + translation[:, None]) @ np.swapaxes(rotation, 1, 2)


def _rasterize_rows(rotated: np.ndarray, scale: np.ndarray,
                    resolution: int) -> np.ndarray:
    """Undilated (m, r, r) depth rasters of (m, n, 3) posed point rows."""
    m = len(rotated)
    u = scale[:, None] * rotated[:, :, 0]
    v = scale[:, None] * rotated[:, :, 1]
    depth = rotated[:, :, 2]

    u_min, u_max, v_min, v_max = u.min(1), u.max(1), v.min(1), v.max(1)
    side = np.maximum(u_max - u_min, v_max - v_min)
    ox = ((u_max + u_min) / 2.0 - side / 2.0)[:, None]
    oy = ((v_max + v_min) / 2.0 - side / 2.0)[:, None]
    # coincident points sit at u - ox = v - oy = 0, so any divisor puts
    # them in pixel (0, 0)
    safe_side = np.where(side > 0.0, side, 1.0)[:, None]
    cols = np.clip((u - ox) / safe_side * resolution, 0, resolution - 1).astype(np.int64)
    rows = np.clip((v - oy) / safe_side * resolution, 0, resolution - 1).astype(np.int64)

    # Map each point's depth onto [-1, 1] before the scatter: the map is
    # monotone under rounding, so a pixel's maximum of mapped depths is the
    # mapped maximum depth, and the farthest point reads -1 like an empty
    # pixel does.
    z_min, z_max = depth.min(1)[:, None], depth.max(1)[:, None]
    z_span = z_max - z_min
    varied = z_span > 0.0
    mapped = np.where(varied, 2.0 * (depth - z_min) / np.where(varied, z_span, 1.0)
                      - 1.0, 1.0)
    image = np.full(m * resolution * resolution, -1.0)
    pixel = (np.arange(m)[:, None] * resolution + rows) * resolution + cols
    np.maximum.at(image, pixel.ravel(), mapped.ravel())
    return image.reshape(m, resolution, resolution)


def _dilate_rows(images: np.ndarray) -> np.ndarray:
    """Max-dilate each image of an (m, r, r) stack by one pixel (3x3
    neighbourhood, edges clamped), over the two image axes only."""
    padded = np.pad(images, ((0, 0), (1, 1), (1, 1)), mode="edge")
    across = np.maximum(np.maximum(padded[:, :-2], padded[:, 1:-1]), padded[:, 2:])
    return np.maximum(np.maximum(across[:, :, :-2], across[:, :, 1:-1]),
                      across[:, :, 2:])


def _render_chunks(model: MorphableModel, alpha_id, alpha_exp, scale, rotation,
                   translation, resolution: int):
    """Yield (rows, points, rasters) for chunks of at most `_RENDER_CHUNK`
    rows: the slice, the composed (m, n, 3) points and the (m, r * r)
    dilated rasters of `render_depths`."""
    for start in range(0, len(scale), _RENDER_CHUNK):
        rows = slice(start, start + _RENDER_CHUNK)
        points = _compose_rows(model, alpha_id[rows], alpha_exp[rows])
        points = points.reshape(len(points), model.n, 3)
        rotated = _pose_rows(points, rotation[rows], translation[rows])
        rasters = _dilate_rows(_rasterize_rows(rotated, scale[rows], resolution))
        yield rows, points, rasters.reshape(len(points), -1)


def render_depths(model: MorphableModel, alpha_id: np.ndarray, alpha_exp: np.ndarray,
                  scale: np.ndarray, rotation: np.ndarray, translation: np.ndarray,
                  resolution: int) -> np.ndarray:
    """Dilated depth rasters of N posed model instances, an (N, r * r) array.

    Row k renders mean + basis_id @ alpha_id[k] + basis_exp @ alpha_exp[k]
    under the weak-perspective pose (scale[k], rotation[k], translation[k]).
    All vertices are posed and projected; the bounding square of the
    projected points (centered, side = larger bbox extent) maps onto the
    r x r pixel grid with row 0 at the smallest v. Each point lands in one
    pixel and each pixel keeps the maximum rotated z over the points in it
    (nearest to the viewer). The depth range of the projected cloud maps
    linearly onto [-1, 1], so the nearest point always reads +1; empty pixels
    read -1. A constant-depth cloud (including coincident points) maps to +1
    pixels. The raster is then max-dilated by one pixel (3x3 neighbourhood,
    edges clamped).

    The rows are taken as checked (finite coefficients of the model's widths,
    positive scales, proper rotations), as a `Dataset`'s columns are. They
    are rendered a chunk of at most 16 at a time, so temporaries stay small
    whatever N is; each row's raster is bit for bit the one rendering it
    alone gives.
    """
    require(resolution >= 1, "resolution must be positive")
    out = np.empty((len(scale), resolution * resolution))
    for rows, _, rasters in _render_chunks(model, alpha_id, alpha_exp, scale,
                                           rotation, translation, resolution):
        out[rows] = rasters
    return out


def split_indices(n_subjects: int, images_per_subject: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic (train, val, test) sample index lists.

    The final ~quarter of subjects (at least one, at most all but one) is
    held out entirely; the last fifth of each remaining subject's images is
    validation. Samples are subject-major: the held-out rows are the last block.
    """
    require(n_subjects >= 2, "need at least 2 subjects")
    require(images_per_subject >= 1, "need at least 1 image per subject")
    n_train = n_subjects - min(max(1, round(n_subjects / 4)), n_subjects - 1)
    n_fit = images_per_subject - images_per_subject // 5
    rows = np.arange(n_subjects * images_per_subject,
                     dtype=np.int64).reshape(n_subjects, images_per_subject)
    return (rows[:n_train, :n_fit].ravel(), rows[:n_train, n_fit:].ravel(),
            rows[n_train:].ravel())


def build_dataset(model: MorphableModel, spec: DatasetSpec) -> Dataset:
    """Render n_subjects x images_per_subject samples with a deterministic split.

    Per-subject and per-image generators are spawned from the dataset seed, so
    the same spec always yields bit-identical samples. Stored depth rasters
    are max-dilated by one pixel: a few hundred vertices cover a 32x32 grid
    only sparsely, and the dilation closes the sampling holes so downstream
    consumers see a surface rather than speckle. Subject labels run 0..K-1,
    subject-major, from which the `Dataset` takes its split.
    """
    root = np.random.SeedSequence(spec.seed)
    draws = []
    for label, subject_seed in enumerate(root.spawn(spec.n_subjects)):
        alpha_id = sample_subject(model, np.random.default_rng(subject_seed))
        for image_seed in subject_seed.spawn(spec.images_per_subject):
            image_rng = np.random.default_rng(image_seed)
            alpha_exp, scale, rotation, translation = sample_instance(
                model, spec, image_rng)
            # drawn even at sigma 0 (adding exact zeros), so the draws after
            # it do not depend on the noise level
            noise = (image_rng.normal(0.0, 1.0, size=2 * model.n_landmarks)
                     * spec.landmark_noise_sigma)
            draws.append((label, alpha_id, alpha_exp, scale, rotation,
                          translation, noise))
    labels, alpha_id, alpha_exp, scale, rotation, translation, noise = map(
        np.array, zip(*draws))

    landmarks = np.empty_like(noise)
    depth = np.empty((len(labels), spec.image_resolution ** 2))
    for rows, points, rasters in _render_chunks(model, alpha_id, alpha_exp, scale,
                                                rotation, translation,
                                                spec.image_resolution):
        posed = _pose_rows(points[:, model.landmark_indices], rotation[rows],
                           translation[rows])
        clean = scale[rows, None, None] * posed[:, :, :2]
        landmarks[rows] = clean.reshape(len(posed), -1) + noise[rows]
        depth[rows] = rasters

    return Dataset(model=model, spec=spec, labels=labels, alpha_id=alpha_id,
                   alpha_exp=alpha_exp, pose_scale=scale, pose_rotation=rotation,
                   pose_translation=translation, landmarks=landmarks,
                   depth=depth.reshape(-1, spec.image_resolution, spec.image_resolution))
