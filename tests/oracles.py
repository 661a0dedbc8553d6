"""Reference implementations the program no longer calls, kept for the tests.

The program works on stacks and plain arrays: `render_depths` renders a
chunk of rows at a time, `build_dataset` projects a chunk's landmarks in one
product, the fit takes an (m, 2L) landmark array and keeps its poses in
three arrays, `_compose_rows` composes shapes row by row, and the evaluation
aligns every pair with `procrustes_align_stack`. The per-item value classes
(`Shape`, `LandmarkSet2D`, `CoeffPair`, `PoseParams`), the one-item
functions the stacks replaced, and the OBJ reader only tests use keep their
bodies here, changed only where they call the program's current signatures;
the tests check the program against them, bit for bit where the arithmetic
is the same.
"""

from dataclasses import dataclass

import numpy as np

from morphfit.errors import ParseError, require
from morphfit.fitting import (_estimate_poses, _image_data_term, _landmark_components,
                              _landmark_points, _solve_block)
from morphfit.geometry import (MIN_POINTS, ROTATION_TOL, MorphableModel, _readonly,
                               _rotation_errors, procrustes_align_stack)
from morphfit.synthetic import COLUMNS, sample_instance, sample_subject


def _check_rotation(rotation: np.ndarray, what: str) -> None:
    require(rotation.shape == (3, 3), f"{what} must be 3x3, got {rotation.shape}")
    require(bool(np.all(np.isfinite(rotation))), f"{what} must be finite")
    gram_err, det_err = _rotation_errors(rotation)
    require(gram_err <= ROTATION_TOL, f"{what} is not orthonormal (max deviation {gram_err:.3e})")
    require(det_err <= ROTATION_TOL, f"{what} is not proper (|det - 1| = {det_err:.3e})")


@dataclass(frozen=True)
class Shape:
    """Dense 3D point cloud as a flat coordinate vector of length 3n, n >= 4."""

    coords: np.ndarray

    def __post_init__(self):
        coords = _readonly(np.ravel(self.coords))
        object.__setattr__(self, "coords", coords)
        require(coords.size % 3 == 0,
                f"coordinate vector length {coords.size} is not a multiple of 3")
        require(coords.size >= 3 * MIN_POINTS,
                f"shape needs at least {MIN_POINTS} vertices, got {coords.size // 3}")
        require(bool(np.all(np.isfinite(coords))), "shape coordinates must be finite")

    @property
    def n(self) -> int:
        return self.coords.size // 3

    @property
    def points(self) -> np.ndarray:
        """Vertices as a read-only (n, 3) view."""
        return self.coords.reshape(self.n, 3)


@dataclass(frozen=True)
class LandmarkSet2D:
    """Flat 2D landmark vector (u1, v1, ..., uL, vL)."""

    coords: np.ndarray

    def __post_init__(self):
        coords = _readonly(np.ravel(self.coords))
        object.__setattr__(self, "coords", coords)
        require(coords.size % 2 == 0,
                f"2D coordinate vector length {coords.size} is not a multiple of 2")
        require(coords.size > 0, "landmark set must be non-empty")
        require(bool(np.all(np.isfinite(coords))), "landmark coordinates must be finite")

    @property
    def count(self) -> int:
        return self.coords.size // 2

    @property
    def points(self) -> np.ndarray:
        """Landmarks as a read-only (L, 2) view."""
        return self.coords.reshape(self.count, 2)


@dataclass(frozen=True)
class CoeffPair:
    """Identity and per-instance residual (expression) coefficient vectors."""

    alpha_id: np.ndarray
    alpha_exp: np.ndarray

    def __post_init__(self):
        alpha_id = _readonly(np.ravel(self.alpha_id))
        alpha_exp = _readonly(np.ravel(self.alpha_exp))
        object.__setattr__(self, "alpha_id", alpha_id)
        object.__setattr__(self, "alpha_exp", alpha_exp)
        require(bool(np.all(np.isfinite(alpha_id))), "alpha_id must be finite")
        require(bool(np.all(np.isfinite(alpha_exp))), "alpha_exp must be finite")


@dataclass(frozen=True)
class PoseParams:
    """Weak-perspective camera: scale f > 0, proper rotation R, translation t.

    A point p projects to f * P @ (R @ (p + t)), with t expressed in the model
    frame (applied before rotation).
    """

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rotation = _readonly(self.rotation)
        translation = _readonly(np.ravel(self.translation))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)
        require(np.isfinite(self.scale) and self.scale > 0.0,
                f"scale must be finite and positive, got {self.scale}")
        _check_rotation(rotation, "pose rotation")
        require(translation.shape == (3,),
                f"translation must have 3 components, got {translation.shape}")
        require(bool(np.all(np.isfinite(translation))), "translation must be finite")


def compose_shape(model: MorphableModel, coeffs: CoeffPair) -> Shape:
    """Compose mean + basis_id @ alpha_id + basis_exp @ alpha_exp."""
    require(coeffs.alpha_id.size == model.k_id,
            f"alpha_id has {coeffs.alpha_id.size} entries, model expects {model.k_id}")
    require(coeffs.alpha_exp.size == model.k_exp,
            f"alpha_exp has {coeffs.alpha_exp.size} entries, model expects {model.k_exp}")
    return Shape(model.mean
                 + model.basis_id @ coeffs.alpha_id
                 + model.basis_exp @ coeffs.alpha_exp)


@dataclass(frozen=True)
class SimilarityTransform:
    """Similarity map q = scale * R @ p + t with a proper rotation R."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rotation = _readonly(self.rotation)
        translation = _readonly(np.ravel(self.translation))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)
        require(np.isfinite(self.scale) and self.scale > 0.0,
                f"scale must be finite and positive, got {self.scale}")
        _check_rotation(rotation, "similarity rotation")
        require(translation.shape == (3,),
                f"translation must have 3 components, got {translation.shape}")
        require(bool(np.all(np.isfinite(translation))), "translation must be finite")


def select_landmarks(shape: Shape, indices: np.ndarray) -> np.ndarray:
    """Gather the (L, 3) landmark vertex positions for the given indices."""
    idx = np.asarray(indices)
    require(idx.ndim == 1 and idx.size > 0, "indices must be a non-empty 1-D sequence")
    require(np.issubdtype(idx.dtype, np.integer), "indices must be integers")
    require(bool(np.all(idx >= 0)) and bool(np.all(idx < shape.n)),
            f"landmark indices must lie in [0, {shape.n})")
    return np.array(shape.points[idx], dtype=np.float64)


def project_landmarks(points3d: np.ndarray, pose: PoseParams) -> LandmarkSet2D:
    """Weak-perspective projection u_i = f * P @ (R @ (p_i + t)) of (L, 3) points."""
    pts = np.asarray(points3d, dtype=np.float64)
    require(pts.ndim == 2 and pts.shape[1] == 3,
            f"points3d must be (L, 3), got {pts.shape}")
    rotated = (pts + pose.translation) @ pose.rotation.T
    return LandmarkSet2D((pose.scale * rotated[:, :2]).ravel())


def procrustes_align(source: np.ndarray, target: np.ndarray) -> SimilarityTransform:
    """Closed-form similarity alignment of source onto target point lists.

    Minimizes sum_i || s * R @ p_i + t - q_i ||^2 over scale s > 0, proper
    rotation R and translation t, via the SVD of the centered cross-covariance
    with determinant sign correction. Both inputs are (L, 3) with L >= 4.
    """
    src, tgt = np.asarray(source), np.asarray(target)
    require(src.ndim == 2, f"source must be (L, 3), got {src.shape}")
    scale, rotation, translation = procrustes_align_stack(src[None], tgt[None])
    return SimilarityTransform(scale[0], rotation[0], translation[0])


def apply_transform(shape: Shape, transform: SimilarityTransform) -> Shape:
    """Apply q_i = s * R @ p_i + t to every vertex."""
    pts = shape.points @ (transform.scale * transform.rotation).T + transform.translation
    return Shape(pts.ravel())


def estimate_pose(points3d: np.ndarray, landmarks2d: LandmarkSet2D) -> PoseParams:
    """Closed-form scaled-orthographic pose from 3D-2D correspondences.

    Fits the least-squares 2x4 affine map from homogeneous 3D points to the
    2D landmarks, projects its two 3-vector rows onto the nearest scaled pair
    of orthonormal rows via the SVD, takes f as the mean of the two affine row
    norms, completes the rotation with the cross product of the orthonormal
    rows (det +1 by construction), and re-solves the translation so that
    u ~ f * P @ (R @ (p + t)) holds in the least-squares sense. The recovered
    t is the minimum-norm solution; its component along the viewing axis is
    unobservable under weak perspective.
    """
    pts = np.asarray(points3d, dtype=np.float64)
    require(pts.ndim == 2 and pts.shape[1] == 3,
            f"points3d must be (L, 3), got {pts.shape}")
    u = landmarks2d.points
    require(pts.shape[0] == u.shape[0],
            f"{pts.shape[0]} 3D points vs {u.shape[0]} 2D landmarks")
    require(pts.shape[0] >= 4, f"need at least 4 correspondences, got {pts.shape[0]}")
    require(bool(np.all(np.isfinite(pts))), "3D points must be finite")
    return PoseParams(*(part[0] for part in _estimate_poses(pts[None], u[None])))


def _check_landmarks(model: MorphableModel, landmarks: LandmarkSet2D) -> None:
    require(landmarks.count == model.n_landmarks,
            f"{landmarks.count} landmarks given, model has {model.n_landmarks}")


def objective(model: MorphableModel, alpha_id: np.ndarray,
              per_image: list[tuple[np.ndarray, PoseParams, LandmarkSet2D]]) -> float:
    """Pure data term: sum over images of the squared landmark residual norm.

    Regularizer contributions are never included here; callers that need the
    damped objective add them separately.
    """
    alpha_id = np.ravel(np.asarray(alpha_id, dtype=np.float64))
    require(alpha_id.size == model.k_id, "alpha_id length must match the model")
    flat, _ = _landmark_components(model)
    total = 0.0
    for alpha_exp, pose, landmarks in per_image:
        _check_landmarks(model, landmarks)
        alpha_exp = np.ravel(np.asarray(alpha_exp, dtype=np.float64))
        require(alpha_exp.size == model.k_exp, "alpha_exp length must match the model")
        total += _image_data_term(_landmark_points(flat, alpha_id, alpha_exp),
                                  pose.scale, pose.rotation, pose.translation,
                                  landmarks.coords)
    return total


def solve_expression(model: MorphableModel, alpha_id: np.ndarray, pose: PoseParams,
                     landmarks: LandmarkSet2D, reg_exp: float = 0.0) -> np.ndarray:
    """Exact least-squares residual coefficients for one image at fixed pose.

    Solves the stacked 2L x k_exp system for alpha_exp, optionally damped by
    reg_exp * ||alpha_exp / sigma_exp||^2, through an orthogonal
    decomposition (numpy lstsq) rather than normal equations.
    """
    alpha_id = np.ravel(np.asarray(alpha_id, dtype=np.float64))
    require(alpha_id.size == model.k_id, "alpha_id length must match the model")
    require(np.isfinite(reg_exp) and reg_exp >= 0, "reg_exp must be >= 0")
    _check_landmarks(model, landmarks)
    mean_u, basis_id_u, basis_exp_u = _landmark_components(model)[1]
    return _solve_block("k_exp", mean_u, basis_id_u, basis_exp_u, model.sigma_exp,
                        [(alpha_id, pose.scale, pose.rotation, pose.translation,
                          landmarks.points)], reg_exp)


def solve_identity_shared(model: MorphableModel,
                          per_image: list[tuple[np.ndarray, PoseParams, LandmarkSet2D]],
                          reg_id: float = 0.0) -> np.ndarray:
    """Exact least-squares identity coefficients shared across all images.

    per_image lists (alpha_exp, pose, landmarks) triples; their residual
    contributions are folded into the right-hand side and the stacked
    2*L*M x k_id system is solved in one shot, optionally damped by
    reg_id * ||alpha_id / sigma_id||^2.
    """
    require(len(per_image) >= 1, "need at least one image")
    require(np.isfinite(reg_id) and reg_id >= 0, "reg_id must be >= 0")
    for alpha_exp, _pose, landmarks in per_image:
        require(np.size(alpha_exp) == model.k_exp, "alpha_exp length must match the model")
        _check_landmarks(model, landmarks)
    mean_u, basis_id_u, basis_exp_u = _landmark_components(model)[1]
    return _solve_block("k_id", mean_u, basis_exp_u, basis_id_u, model.sigma_id,
                        [(alpha_exp, pose.scale, pose.rotation, pose.translation,
                          landmarks.points) for alpha_exp, pose, landmarks in per_image],
                        reg_id)


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


def render_landmarks(model: MorphableModel, coeffs: CoeffPair, pose: PoseParams,
                     noise_sigma: float, rng: np.random.Generator) -> LandmarkSet2D:
    """Project the model landmarks and add i.i.d. Gaussian coordinate noise.

    The noise draw happens even for sigma 0 (where it adds exact zeros), so
    downstream rng state does not depend on the noise level.
    """
    require(np.isfinite(noise_sigma) and noise_sigma >= 0,
            "noise_sigma must be finite and non-negative")
    shape = compose_shape(model, coeffs)
    pts = select_landmarks(shape, model.landmark_indices)
    clean = project_landmarks(pts, pose)
    noise = rng.normal(0.0, 1.0, size=clean.coords.size) * noise_sigma
    return LandmarkSet2D(clean.coords + noise)


def rasterize_depth(model: MorphableModel, coeffs: CoeffPair, pose: PoseParams,
                    resolution: int) -> np.ndarray:
    """Render a (resolution, resolution) depth image in [-1, 1].

    All vertices are posed and projected; the bounding square of the projected
    points (centered, side = larger bbox extent) maps onto the pixel grid with
    row 0 at the smallest v. Each point lands in one pixel and each pixel
    keeps the maximum rotated z over the points in it (nearest to the viewer).
    The depth range of the projected cloud maps linearly onto [-1, 1], so the
    nearest point always reads +1; empty pixels read -1. A constant-depth
    cloud (including a single vertex) maps to a +1 pixel.
    """
    require(resolution >= 1, "resolution must be positive")
    shape = compose_shape(model, coeffs)
    rotated = (shape.points + pose.translation) @ pose.rotation.T
    u = pose.scale * rotated[:, 0]
    v = pose.scale * rotated[:, 1]
    depth = rotated[:, 2]

    side = max(float(u.max() - u.min()), float(v.max() - v.min()))
    if side > 0.0:
        ox = (u.max() + u.min()) / 2.0 - side / 2.0
        oy = (v.max() + v.min()) / 2.0 - side / 2.0
        cols = np.clip((u - ox) / side * resolution, 0, resolution - 1).astype(np.int64)
        rows = np.clip((v - oy) / side * resolution, 0, resolution - 1).astype(np.int64)
    else:
        cols = np.zeros(u.size, dtype=np.int64)
        rows = np.zeros(v.size, dtype=np.int64)

    image = np.full((resolution, resolution), -np.inf)
    np.maximum.at(image, (rows, cols), depth)
    occupied = image > -np.inf
    z_min, z_max = float(depth.min()), float(depth.max())
    if z_max - z_min > 0.0:
        image[occupied] = 2.0 * (image[occupied] - z_min) / (z_max - z_min) - 1.0
    else:
        image[occupied] = 1.0
    image[~occupied] = -1.0
    return image


def dilate_max(image: np.ndarray) -> np.ndarray:
    """Max-dilate a 2D image by one pixel (3x3 neighborhood, edges clamped)."""
    require(image.ndim == 2 and image.size > 0, "image must be 2D and non-empty")
    n_rows, n_cols = image.shape
    padded = np.pad(image, 1, mode="edge")
    out = image.copy()
    for dr in range(3):
        for dc in range(3):
            np.maximum(out, padded[dr:dr + n_rows, dc:dc + n_cols], out=out)
    return out


def build_dataset_columns(model: MorphableModel, spec) -> dict:
    """The columns of `build_dataset`, rendered one sample at a time with
    `render_landmarks`, `rasterize_depth` and `dilate_max` as it once did."""
    root = np.random.SeedSequence(spec.seed)
    subject_seeds = root.spawn(spec.n_subjects)
    samples = []
    for label in range(spec.n_subjects):
        subject_rng = np.random.default_rng(subject_seeds[label])
        alpha_id = sample_subject(model, subject_rng)
        image_seeds = subject_seeds[label].spawn(spec.images_per_subject)
        for j in range(spec.images_per_subject):
            image_rng = np.random.default_rng(image_seeds[j])
            alpha_exp, *pose = sample_instance(model, spec, image_rng)
            pose = PoseParams(*pose)
            coeffs = CoeffPair(alpha_id, alpha_exp)
            landmarks = render_landmarks(model, coeffs, pose,
                                         spec.landmark_noise_sigma, image_rng)
            depth = dilate_max(
                rasterize_depth(model, coeffs, pose, spec.image_resolution))
            samples.append((label, alpha_id, alpha_exp, pose.scale, pose.rotation,
                            pose.translation, landmarks.coords, depth))
    return {name: np.array(column) for name, column in zip(COLUMNS, zip(*samples))}
