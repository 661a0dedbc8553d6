"""Reference implementations the program no longer calls, kept for the tests.

The program works on stacks and plain arrays: `render_depths` renders a
chunk of rows at a time, `build_dataset` projects a chunk's landmarks in one
product, the fit takes an (m, 2L) landmark array and keeps its poses in
three arrays and solves each sub-step's systems as one stack,
`_compose_rows` composes shapes row by row, and the evaluation aligns every
pair in one stacked alignment and crops them all with one mask. The
per-item value classes (`Shape`, `LandmarkSet2D`, `CoeffPair`,
`PoseParams`), the one-item functions the stacks replaced (`crop_indices`
among them), the public ROC of three arrays (`roc_curve`, which the report
computed inside itself) with the EER, trapezoid AUC and TAR@FAR read from
those arrays (the report now counts them on the two sorted classes), the
per-fold threshold search that counts over each class's sorted runs
replaced, the validated `RocCurve` that the ROC's
three plain arrays replaced, the stratified rearranged copy of the pairs and
the checked score and flag columns that the genuine and impostor score
arrays replaced, the report that sorted the scores once for the
ROC and again for the folds, the report that kept both classes of pair scores
and counted every metric on the two sorted classes (`pair_scores` and
`sorted_class_report`, where the program keeps the genuine class only and counts
the impostors in walks over the pair blocks), the pair record array that the class split
by row block replaced (gathered from the whole score matrix through
`np.triu_indices`), the cosine distances that N x N masks picked from the
whole distance matrix, the reconstruction error that computed its ground-truth
side anew for every prediction stack, the one that scored a whole stack of
predictions at once against a whole ground-truth side computed beforehand
(`reconstruction_truth`) where eval now composes and scores a chunk of rows
at a time, for every prediction stack in one pass, the decode that summed into fresh
arrays, the joint loss and gradients that decoded a whole batch in one product
(`whole_joint_backward`, where the program decodes by row blocks), the disentangling report that encoded the evaluated images
itself, and the OBJ reader only tests use keep their bodies here,
changed only where they call the program's current signatures; the tests
check the program against them, bit for bit where the arithmetic is the
same and within a stated tolerance where it is not.
"""

import bisect
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from morphfit.errors import InvalidArgumentError, ParseError, require
from morphfit.evaluation import (DisentanglingReport, ReconstructionReport, VerificationReport,
                                 _pair_blocks, _pair_rows)
from morphfit.fitting import (_data_terms, _estimate_poses, _landmark_components,
                              _landmark_points, _solve_block)
from morphfit.geometry import (MIN_POINTS, ROTATION_TOL, MorphableModel, _align_centred,
                               _centred, _fail, _readonly, _rotation_errors)
from morphfit.network import (LossReport, _affine_grads, _encoder_backprop, _forward_trace,
                              decode)
from morphfit.synthetic import COLUMNS, render_depths, sample_instance, sample_subject


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


def procrustes_align_stack(source: np.ndarray, target: np.ndarray) -> tuple:
    """The checked stacked alignment of an (N, L, 3) source and target stack,
    as the evaluation ran it before it kept the ground truth's side: both
    stacks checked, then centred, then aligned pair by pair."""
    src = np.asarray(source, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    require(src.ndim == 3 and src.shape[2] == 3 and tgt.shape == src.shape,
            f"need equal (N, L, 3) source and target, got {src.shape} and {tgt.shape}")
    require(src.shape[1] >= MIN_POINTS,
            f"need at least {MIN_POINTS} points, got {src.shape[1]}")
    _fail(~(np.isfinite(src).all(axis=(1, 2)) & np.isfinite(tgt).all(axis=(1, 2))),
          "points must be finite", InvalidArgumentError)
    return _align_centred(_centred(src), _centred(tgt))


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


def _stacked(*poses: PoseParams) -> tuple:
    """The fit's pose arrays (scale (m,), rotation (m, 3, 3), translation
    (m, 3)) of the given poses."""
    return (np.array([p.scale for p in poses]), np.array([p.rotation for p in poses]),
            np.array([p.translation for p in poses]))


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
    flat = _landmark_components(model)
    total = 0.0
    for alpha_exp, pose, landmarks in per_image:
        _check_landmarks(model, landmarks)
        alpha_exp = np.ravel(np.asarray(alpha_exp, dtype=np.float64))
        require(alpha_exp.size == model.k_exp, "alpha_exp length must match the model")
        total += float(_data_terms(_landmark_points(flat, alpha_id, alpha_exp[None]),
                                   _stacked(pose), landmarks.points[None])[0])
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
    mean, basis_id, basis_exp = _landmark_components(model)
    return _solve_block("k_exp", mean, basis_id, basis_exp, model.sigma_exp,
                        alpha_id[None], _stacked(pose), landmarks.points[None],
                        reg_exp)[0]


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
    mean, basis_id, basis_exp = _landmark_components(model)
    alpha_exps, poses, landmark_sets = zip(*per_image)
    return _solve_block("k_id", mean, basis_exp, basis_id, model.sigma_id,
                        np.array([np.ravel(a) for a in alpha_exps], dtype=np.float64),
                        _stacked(*poses), np.array([lm.points for lm in landmark_sets]),
                        reg_id, shared=True)


def crop_indices(points: np.ndarray, center_index: int, radius: float) -> np.ndarray:
    """Sorted indices of the (n, 3) points within Euclidean `radius` of the
    center point. The boundary is inclusive, so radius 0 yields the center."""
    require(points.ndim == 2 and points.shape[1] == 3,
            f"points must be (n, 3), got {points.shape}")
    require(0 <= center_index < points.shape[0],
            f"center_index {center_index} out of range [0, {points.shape[0]})")
    require(np.isfinite(radius) and radius >= 0.0,
            f"radius must be finite and non-negative, got {radius}")
    dists = np.linalg.norm(points - points[center_index], axis=1)
    return np.flatnonzero(dists <= radius)


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
    """The columns of `build_dataset` plus each sample's subject label,
    rendered one sample at a time with `render_landmarks`, `rasterize_depth`
    and `dilate_max` as it once did."""
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
    return {name: np.array(column)
            for name, column in zip(("labels", *COLUMNS), zip(*samples))}


def window_of(dataset, rows: range) -> dict:
    """What a load of the rows `rows` alone must give, cut from a whole load:
    each column's and the labels' rows `rows`, and each split's rows in the
    window as positions from `rows.start`, found one row at a time."""
    out = {name: getattr(dataset, name)[rows.start:rows.stop] for name in ("labels", *COLUMNS)}
    for name in ("train_indices", "val_indices", "test_indices"):
        out[name] = np.array([i - rows.start for i in getattr(dataset, name).tolist()
                              if i in rows], dtype=np.int64)
    return out


@dataclass(frozen=True)
class RocCurve:
    """Operating points (threshold, TAR, FAR), thresholds strictly increasing.

    TAR and FAR are non-increasing along the list because raising the
    threshold can only shrink the accepted set. The last point is a sentinel
    threshold above every score, pinning the (TAR, FAR) = (0, 0) end.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _readonly(self.points)
        object.__setattr__(self, "points", pts)
        require(pts.ndim == 2 and pts.shape[1] == 3,
                f"curve points must be (n, 3), got {pts.shape}")
        require(pts.shape[0] >= 2, "curve needs at least two operating points")
        require(bool(np.all(np.isfinite(pts))), "curve entries must be finite")
        rates = pts[:, 1:]
        require(bool(np.all(rates >= 0.0)) and bool(np.all(rates <= 1.0)),
                "TAR and FAR must lie in [0, 1]")
        require(bool(np.all(np.diff(pts[:, 0]) > 0)),
                "thresholds must be strictly increasing")
        require(bool(np.all(np.diff(pts[:, 1]) <= 0)) and
                bool(np.all(np.diff(pts[:, 2]) <= 0)),
                "TAR and FAR must be non-increasing in the threshold")

    @property
    def thresholds(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def tar(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def far(self) -> np.ndarray:
        return self.points[:, 2]


def stratified_folds(genuine, impostor, n_folds: int) -> tuple[np.ndarray, np.ndarray]:
    """The two classes rearranged into equal contiguous folds, each with both
    classes, as the scores and genuine flags of the folds in order.

    Genuine and impostor scores are each cut, in incoming order, into n_folds
    equal runs (the remainder trimmed); fold k is the k-th genuine run then
    the k-th impostor run, so the contiguous fold protocol sees the same
    class balance everywhere. Needs at least n_folds pairs of each class.
    """
    require(int(n_folds) >= 2, "need at least two folds")
    n_folds = int(n_folds)
    genuine, impostor = (np.asarray(c, dtype=np.float64) for c in (genuine, impostor))
    require(genuine.size >= n_folds and impostor.size >= n_folds,
            f"need at least {n_folds} pairs of each class, got "
            f"{genuine.size} genuine / {impostor.size} impostor")
    g_per, i_per = genuine.size // n_folds, impostor.size // n_folds
    scores = np.hstack([genuine[:n_folds * g_per].reshape(n_folds, g_per),
                        impostor[:n_folds * i_per].reshape(n_folds, i_per)])
    flags = np.tile(np.arange(g_per + i_per) < g_per, n_folds)
    return scores.ravel(), flags


def cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cosine scores of a's rows against b's as one whole product of unit rows,
    clipped to [-1, 1], where the program takes a block of rows at a time. A
    self-product (b is a) multiplies one unit array by its own transpose, as the
    program's one block does when N <= 32: numpy sends that product through another
    BLAS routine than a product of two equal arrays, which has other bits."""
    require(bool(np.all(np.isfinite(a))) and bool(np.all(np.isfinite(b))),
            "codes must be finite")
    norms_a, norms_b = (np.linalg.norm(c, axis=1, keepdims=True) for c in (a, b))
    require(bool(np.all(norms_a > 0)) and bool(np.all(norms_b > 0)),
            "cosine similarity needs non-zero vectors")
    require(bool(np.all(np.isfinite(norms_a))) and bool(np.all(np.isfinite(norms_b))),
            "pair scores must be finite")
    unit_a = a / norms_a
    unit_b = unit_a if b is a else b / norms_b
    return np.clip(unit_a @ unit_b.T, -1.0, 1.0)


def verification_pairs(codes: np.ndarray, labels: np.ndarray) -> np.recarray:
    """`pair_scores` as the record array of every pair i < j in row-major
    order, with fields ``score`` (float64) and ``is_genuine`` (bool), gathered
    from the whole score matrix through `np.triu_indices`."""
    codes = np.asarray(codes, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    require(codes.ndim == 2 and codes.shape[0] == labels.size,
            "codes must be (n, q) row-aligned with labels")
    require(codes.shape[0] >= 2, "need at least two codes")
    rows, cols = np.triu_indices(codes.shape[0], k=1)
    scores = cosine_matrix(codes, codes)[rows, cols]
    return np.rec.fromarrays([scores, labels[rows] == labels[cols]],
                             names="score,is_genuine")


def argsorted_rank_n(gallery: np.ndarray, g_labels: np.ndarray, probes: np.ndarray,
                     p_labels: np.ndarray, n: int) -> float:
    """`rank_n_identification` as it ranked every probe's whole row of the whole
    score matrix by a stable argsort, given checked inputs."""
    sims = cosine_matrix(probes, gallery)
    top = np.argsort(-sims, axis=1, kind="stable")[:, :n]
    hits = np.count_nonzero(np.any(g_labels[top] == p_labels[:, None], axis=1))
    return float(hits / probes.shape[0])


def masked_cosine_distances(codes: np.ndarray, labels: np.ndarray) -> tuple:
    """The cosine distances of the code pairs i < j of equal and of other labels,
    as `disentangling_report` took them from the whole N x N distance matrix
    through N x N label and upper-triangle masks (`_cosine_distances` now sums
    them by blocks of rows)."""
    norms = np.linalg.norm(codes, axis=1, keepdims=True)
    unit = codes / np.maximum(norms, 1e-300)
    dist = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    same = labels[:, None] == labels[None, :]
    upper = np.triu(np.ones_like(same, dtype=bool), k=1)
    return dist[same & upper], dist[~same & upper]


def pair_scores(codes: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosine similarity of every code pair i < j: the genuine (same label)
    and the impostor scores, each in row-major pair order, gathered from the
    program's blocks after its pair checks."""
    unit, labels = _pair_rows(codes, labels)
    counts, n = np.unique(labels, return_counts=True)[1], labels.size
    n_same = int(np.sum(counts * (counts - 1) // 2))
    classes, filled = (np.empty(n_same), np.empty(n * (n - 1) // 2 - n_same)), [0, 0]
    for picked_pair in _pair_blocks(unit, labels, True, False):
        for k, picked in enumerate(picked_pair):
            classes[k][filled[k]:filled[k] + picked.size] = picked
            filled[k] += picked.size
    return classes


def sorted_rates(genuine: np.ndarray, impostor: np.ndarray, threshold) -> tuple[float, float]:
    """TAR and FAR at a threshold: the shares of the sorted classes at or above it."""
    g, i = genuine.size, impostor.size
    return ((g - int(np.searchsorted(genuine, threshold))) / g,
            (i - int(np.searchsorted(impostor, threshold))) / i)


def sorted_crossing(genuine: np.ndarray, impostor: np.ndarray, holds) -> tuple:
    """(TAR, FAR) at the first ROC vertex (a distinct score, or inf above all) where
    ``holds(tar, far)``, which must stay true as the threshold rises, found by bisecting
    each class; and at the vertex before it, None if there is none."""
    def key(threshold) -> bool:
        return holds(*sorted_rates(genuine, impostor, threshold))
    classes = (genuine, impostor)
    top = min((s[k] for s in classes if (k := bisect.bisect_left(s, True, key=key)) < s.size),
              default=np.inf)
    below = [s[k - 1] for s in classes if (k := int(np.searchsorted(s, top)))]
    return (sorted_rates(genuine, impostor, top),
            sorted_rates(genuine, impostor, max(below)) if below else None)


def sorted_auc(genuine: np.ndarray, impostor: np.ndarray) -> float:
    """Area under the ROC of the sorted, non-empty genuine and impostor scores:
    the exact Mann-Whitney statistic 2U / (2 G I), ties counted one half, with
    2U summed as integers and divided once (correctly rounded)."""
    twice_u = sum(int(np.searchsorted(impostor, genuine, side).sum())
                  for side in ("left", "right"))
    return twice_u / (2 * genuine.size * impostor.size)


def sorted_eer(genuine: np.ndarray, impostor: np.ndarray) -> float:
    """Rate where FAR crosses 1 - TAR, linearly interpolated on the ROC polyline
    of the sorted, non-empty genuine and impostor scores."""
    # f = FAR - (1 - TAR) never rises, from +1 at the smallest score to -1 above all
    (tar_hi, far_hi), (tar_lo, far_lo) = sorted_crossing(
        genuine, impostor, lambda tar, far: far + tar - 1.0 <= 0.0)
    f_lo, f_hi = far_lo + tar_lo - 1.0, far_hi + tar_hi - 1.0
    return far_lo + f_lo / (f_lo - f_hi) * (far_hi - far_lo)


def sorted_tar_at_far(genuine: np.ndarray, impostor: np.ndarray, far_target: float) -> float:
    """TAR linearly interpolated at the requested FAR on the upper envelope of
    the ROC of the sorted, non-empty genuine and impostor scores: of the vertices
    with one FAR, the first (lowest threshold) has the largest TAR."""
    require(np.isfinite(far_target) and 0.0 < far_target <= 1.0,
            f"far_target must lie in (0, 1], got {far_target}")
    top, below = sorted_crossing(genuine, impostor, lambda tar, far: far <= far_target)
    # the envelope point at the next larger FAR is the first vertex of its run
    points = [top] if below is None else [
        top, sorted_crossing(genuine, impostor, lambda tar, far: far <= below[1])[0]]
    tars, fars = zip(*points)
    return float(np.interp(far_target, fars, tars))


def sorted_fold_accuracy(genuine: np.ndarray, impostor: np.ndarray,
                         n_folds: int) -> tuple[float, float]:
    """Mean and population std over folds of each fold's accuracy at the
    threshold that scores best on the other folds: fold k is the k-th of n_folds
    equal runs of each class (a remainder is in no fold), sorted in place. Of the
    distinct training scores and a sentinel above them, the first with the most
    accepted genuine plus rejected impostor training pairs wins."""
    g_runs, i_runs = (scores[:n_folds * (scores.size // n_folds)].reshape(n_folds, -1)
                      for scores in (genuine, impostor))
    g_runs.sort(axis=1)
    i_runs.sort(axis=1)
    g_per, i_per = g_runs.shape[1], i_runs.shape[1]
    # per run and genuine score: impostors minus genuine pairs under it (the
    # run's correct count there, up to a constant), and genuine pairs at it
    values = np.unique(g_runs)
    counts = np.empty((n_folds, 2, values.size), dtype=np.int64)
    for k in range(n_folds):
        under = np.searchsorted(g_runs[k], values)
        counts[k] = (np.searchsorted(i_runs[k], values) - under,
                     np.searchsorted(g_runs[k], values, "right") - under)
    total, tops = counts.sum(axis=0), np.maximum(g_runs[:, -1], i_runs[:, -1])
    accuracies = np.empty(n_folds)
    for k in range(n_folds):
        gain, holds = total - counts[k]
        # a score that only the held-out fold holds is no training candidate
        candidates = np.flatnonzero(holds)
        best = candidates[int(np.argmax(gain[candidates]))]
        if (n_folds - 1) * g_per + int(gain[best]) >= (n_folds - 1) * i_per:
            threshold = values[best]
        else:  # a sentinel above the largest training score rejects them all
            top = np.delete(tops, k).max()  # top + 1.0 is top once |top| >= 2**53
            threshold = max(top + 1.0, np.nextafter(top, np.inf))
        hits = (g_per - int(np.searchsorted(g_runs[k], threshold))
                + int(np.searchsorted(i_runs[k], threshold)))
        accuracies[k] = hits / (g_per + i_per)
    return float(accuracies.mean()), float(accuracies.std())


def sorted_class_report(genuine: np.ndarray, impostor: np.ndarray, n_folds: int = 10,
                        rank1: float | None = None,
                        rank5: float | None = None) -> VerificationReport:
    """`verification_report` as it took the genuine and the impostor scores in
    index order, such as `pair_scores` returns, and sorted them in place: the
    threshold-free metrics count every pair on the sorted classes and the fold
    accuracy runs on the stratified folds (a few pairs may be in no fold)."""
    require(genuine.size + impostor.size > 0, "need at least one scored pair")
    require(bool(np.all(np.isfinite(genuine))) and bool(np.all(np.isfinite(impostor))),
            "pair scores must be finite")
    require(genuine.size and impostor.size, "need at least one genuine and one impostor pair")
    require(int(n_folds) >= 2, "need at least two folds")
    n_folds = int(n_folds)
    require(min(genuine.size, impostor.size) >= n_folds,
            f"need at least {n_folds} pairs of each class, got "
            f"{genuine.size} genuine / {impostor.size} impostor")
    mean, std = sorted_fold_accuracy(genuine, impostor, n_folds)
    genuine.sort()
    impostor.sort()
    return VerificationReport(accuracy_mean=mean, accuracy_std=std,
                              eer=sorted_eer(genuine, impostor),
                              auc=sorted_auc(genuine, impostor),
                              tar_far10=sorted_tar_at_far(genuine, impostor, 0.10),
                              tar_far1=sorted_tar_at_far(genuine, impostor, 0.01),
                              rank1=rank1, rank5=rank5)


def unique_tar_at_far(curve: RocCurve, far_target: float) -> float:
    """`_tar_at_far` as it took the distinct FARs from `np.unique`."""
    require(np.isfinite(far_target) and 0.0 < far_target <= 1.0,
            f"far_target must lie in (0, 1], got {far_target}")
    fars, first = np.unique(curve.far, return_index=True)
    return float(np.interp(far_target, fars, curve.tar[first]))


def searched_verification_report(genuine, impostor, n_folds: int = 10,
                                 rank1: float | None = None,
                                 rank5: float | None = None) -> VerificationReport:
    """`verification_report` as it built the ROC, then rearranged the pairs
    into stratified folds and sorted them again for the fold search; the AUC
    as the exact rational `mann_whitney_auc`."""
    curve = searched_roc_curve(genuine, impostor)
    mean, std = searched_accuracy_folds(stratified_folds(genuine, impostor, n_folds),
                                        n_folds)
    return VerificationReport(accuracy_mean=mean, accuracy_std=std,
                              eer=curve_eer((curve.thresholds, curve.tar, curve.far)),
                              auc=mann_whitney_auc(genuine, impostor),
                              tar_far10=unique_tar_at_far(curve, 0.10),
                              tar_far1=unique_tar_at_far(curve, 0.01),
                              rank1=rank1, rank5=rank5)


def mann_whitney_auc(genuine, impostor) -> float:
    """The AUC as the exact rational 2U / (2 G I), correctly rounded: U counts,
    pair by pair, each genuine score above an impostor score once and each tie
    one half."""
    g, i = (np.asarray(c, dtype=np.float64).reshape(-1, 1) for c in (genuine, impostor))
    twice_u = 2 * np.count_nonzero(g > i.T) + np.count_nonzero(g == i.T)
    return float(Fraction(int(twice_u), 2 * g.size * i.size))


def sorted_roc(genuine: np.ndarray, impostor: np.ndarray) -> tuple:
    """The ROC (thresholds, TAR, FAR) of the sorted genuine and impostor scores:
    the distinct scores, then a sentinel; both rates fall from 1 to 0."""
    ranked = np.concatenate([genuine, impostor])
    ranked.sort(kind="stable")  # a merge of two sorted runs
    # below[j] scores lie under threshold j: its run of equal scores starts there
    below = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1], True])
    top = ranked[-1]  # top + 1.0 is top once |top| >= 2**53
    thresholds = np.append(ranked[below[:-1]], max(top + 1.0, np.nextafter(top, np.inf)))
    del ranked
    genuine_below = np.searchsorted(genuine, thresholds)
    tar = (genuine.size - genuine_below) / genuine.size
    far = (impostor.size - (below - genuine_below)) / impostor.size
    return thresholds, tar, far


def trapezoid_auc(curve: tuple) -> float:
    """Trapezoidal area under TAR(FAR) of an ROC (thresholds, TAR, FAR).

    Equals the Mann-Whitney statistic with ties counted one half, up to the
    rounding of the trapezoid sum, because a tie block appears as a single
    diagonal segment of the polyline. The polyline is walked in
    decreasing-threshold order; re-sorting by FAR would scramble the
    neighbors of vertical (tied-FAR) runs.
    """
    _, tar, far = curve
    return float(np.trapezoid(tar[::-1], far[::-1]))


def curve_eer(curve: tuple) -> float:
    """Rate where FAR crosses 1 - TAR, linearly interpolated on the polyline."""
    _, tar, far = curve
    # f = FAR - (1 - TAR) runs from +1 at the smallest score to -1 at the
    # sentinel and never rises: it crosses zero after its last positive point
    f = far + tar - 1.0
    i = int(np.argmax(f <= 0.0)) - 1
    u = f[i] / (f[i] - f[i + 1])
    return float(far[i] + u * (far[i + 1] - far[i]))


def curve_tar_at_far(curve: tuple, far_target: float) -> float:
    """TAR linearly interpolated at the requested FAR (upper envelope)."""
    require(np.isfinite(far_target) and 0.0 < far_target <= 1.0,
            f"far_target must lie in (0, 1], got {far_target}")
    _, tar, far = curve
    # collapse vertical runs (same FAR, several TARs) to the best TAR: both
    # rates are non-increasing in the threshold, so a FAR's first point has it
    first = np.flatnonzero(np.r_[True, far[1:] != far[:-1]])[::-1]
    return float(np.interp(far_target, far[first], tar[first]))


def _thresholds(scores: np.ndarray) -> np.ndarray:
    """The distinct scores in increasing order plus a sentinel above them all.

    max + 1.0 rounds back to max once |max| >= 2**53, hence nextafter there.
    """
    distinct = np.unique(scores)
    top = distinct[-1]
    return np.append(distinct, max(top + 1.0, np.nextafter(top, np.inf)))


def _accepted(sorted_scores: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many of the sorted scores satisfy score >= t, for each threshold t."""
    return sorted_scores.size - np.searchsorted(sorted_scores, thresholds,
                                                side="left")


def roc_curve(genuine, impostor) -> tuple:
    """The ROC of `verification_report` as (thresholds, TAR, FAR) arrays, from
    sorted copies of the genuine and the impostor scores."""
    scores, flags = scores_and_flags(genuine, impostor)
    return sorted_roc(np.sort(scores[flags]), np.sort(scores[~flags]))


def scores_and_flags(genuine, impostor) -> tuple[np.ndarray, np.ndarray]:
    """The genuine then the impostor scores as one array, with their genuine
    flags, checked as `verification_report` checks them."""
    genuine, impostor = (np.asarray(c, dtype=np.float64) for c in (genuine, impostor))
    require(genuine.size + impostor.size > 0, "need at least one scored pair")
    scores = np.concatenate([genuine, impostor])
    require(bool(np.all(np.isfinite(scores))), "pair scores must be finite")
    require(genuine.size > 0 and impostor.size > 0,
            "need at least one genuine and one impostor pair")
    return scores, np.arange(scores.size) < genuine.size


def searched_roc_curve(genuine, impostor) -> RocCurve:
    """`roc_curve` as it sorted each class and binary-searched every threshold."""
    scores, genuine = scores_and_flags(genuine, impostor)
    g_sorted = np.sort(scores[genuine])
    i_sorted = np.sort(scores[~genuine])
    thresholds = _thresholds(scores)
    tar = _accepted(g_sorted, thresholds) / g_sorted.size
    far = _accepted(i_sorted, thresholds) / i_sorted.size
    return RocCurve(np.column_stack([thresholds, tar, far]))


def searched_accuracy_folds(folds: tuple, n_folds: int = 10) -> tuple[float, float]:
    """Cross-fold accuracy over the contiguous folds of `stratified_folds`'
    (scores, genuine flags), re-sorting and searching the training scores of
    every fold."""
    require(int(n_folds) >= 2, "need at least two folds")
    n_folds = int(n_folds)
    scores, genuine = folds
    require(scores.size % n_folds == 0,
            f"{scores.size} pairs do not divide into {n_folds} folds")
    fold_of = np.arange(scores.size) // (scores.size // n_folds)
    accuracies = np.empty(n_folds)
    for k in range(n_folds):
        held = fold_of == k
        for part, what in ((held, "held-out"), (~held, "training")):
            flags = genuine[part]
            require(bool(flags.any()) and bool((~flags).any()),
                    f"{what} fold {k} contains a single class")
        s_train, g_train = scores[~held], genuine[~held]
        candidates = _thresholds(s_train)
        # accepted genuine plus rejected impostor pairs, per candidate
        correct = (_accepted(np.sort(s_train[g_train]), candidates)
                   + np.searchsorted(np.sort(s_train[~g_train]), candidates,
                                     side="left"))
        threshold = candidates[int(np.argmax(correct))]
        s_held, g_held = scores[held], genuine[held]
        hits = (np.count_nonzero(g_held & (s_held >= threshold))
                + np.count_nonzero(~g_held & (s_held < threshold)))
        accuracies[k] = hits / s_held.size
    return float(accuracies.mean()), float(accuracies.std())


def summed_decode(dec, c_id: np.ndarray, c_res: np.ndarray) -> np.ndarray:
    """`network.decode` as one expression, each sum into a fresh array."""
    return (c_id @ dec.weight_id.T + dec.bias_id
            + c_res @ dec.weight_res.T + dec.bias_res)


def whole_joint_backward(net, dec, head, batch, lambda_r: float) -> tuple:
    """`network.backward`'s (grads, report) of a finite, checked batch, every row
    decoded in one product and the difference and its square taken over the whole
    batch at once."""
    images, labels, target = batch
    lambda_r = float(lambda_r)
    codes, activations = _forward_trace(net, images)
    c_id, c_res = codes[:, :net.q_id], codes[:, net.q_id:]
    diff = decode(dec, c_id, c_res) - target
    recon = float(np.mean(np.sum(diff * diff, axis=1))) / dec.out_dim
    logits = c_id @ head.weight.T + head.bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp_shifted = np.exp(shifted)
    z = exp_shifted.sum(axis=1)
    prob = exp_shifted / z[:, None]
    ident = float(np.mean(np.log(z) - shifted[np.arange(labels.size), labels]))
    accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
    report = LossReport(lambda_r * recon + ident, recon, ident, accuracy, lambda_r)

    b, grads = labels.size, {}
    g_delta = (2.0 / (b * dec.out_dim)) * diff * lambda_r
    _affine_grads(grads, "dec.weight_id", "dec.bias_id", g_delta, c_id)
    _affine_grads(grads, "dec.weight_res", "dec.bias_res", g_delta, c_res)
    g_logits = prob
    g_logits[np.arange(b), labels] -= 1.0
    g_logits /= b
    _affine_grads(grads, "head.weight", "head.bias", g_logits, c_id)
    grad_codes = np.concatenate([g_delta @ dec.weight_id + g_logits @ head.weight,
                                 g_delta @ dec.weight_res], axis=1)
    _encoder_backprop(net, activations, grad_codes, grads)
    return grads, report


def reconstruction_truth(ground_truth: np.ndarray, landmark_indices: np.ndarray,
                         nose_tip_index: int, crop_radius: float) -> tuple:
    """`whole_stack_reconstruction`'s checked ground-truth side of (N, 3n) shape rows:
    the (N, n, 3) points, landmark indices, the landmarks' `_centred` form, the
    (N, n) mask of the vertices within crop_radius of each nose tip (boundary
    included), its row counts and crop_radius."""
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    require(ground_truth.ndim == 2 and ground_truth.shape[0] >= 1
            and ground_truth.shape[1] % 3 == 0,
            f"need a non-empty (N, 3n) ground-truth array, got {ground_truth.shape}")
    require(bool(np.all(np.isfinite(ground_truth))), "ground-truth shapes must be finite")
    points = ground_truth.reshape(ground_truth.shape[0], -1, 3)
    indices, n = np.asarray(landmark_indices, dtype=np.int64).ravel(), points.shape[1]
    require(bool(np.all((indices >= 0) & (indices < n))),
            f"landmark indices must lie in [0, {n})")
    require(0 <= nose_tip_index < n, f"nose_tip_index {nose_tip_index} out of range [0, {n})")
    require(np.isfinite(crop_radius) and crop_radius >= 0.0,
            f"crop_radius must be finite and non-negative, got {crop_radius}")
    require(indices.size >= MIN_POINTS,
            f"need at least {MIN_POINTS} points, got {indices.size}")
    dist, scratch = np.zeros(points.shape[:2]), np.empty(points.shape[:2])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow falls outside the crop
        for c in range(3):
            np.subtract(points[..., c], points[:, nose_tip_index, c, None], out=scratch)
            dist += np.square(scratch, out=scratch)
        landmarks = _centred(points[:, indices])  # the alignment checks what it reads
    crop = np.sqrt(dist, out=dist) <= crop_radius
    return (points, indices, landmarks, crop, np.count_nonzero(crop, axis=1),
            float(crop_radius))


def whole_stack_reconstruction(predicted: np.ndarray, truth: tuple) -> ReconstructionReport:
    """`evaluate_reconstruction` as it scored an (N, 3n) stack of predictions
    all at once against the ground-truth rows whose `reconstruction_truth` is
    `truth`."""
    points, indices, landmarks, crop, size, crop_radius = truth
    predicted = np.asarray(predicted, dtype=np.float64)
    require(predicted.shape == (len(points), points[0].size),
            f"need predictions shaped like the ground truth, got {predicted.shape}")
    pred_pts = predicted.reshape(points.shape)
    source = pred_pts[:, indices]
    _fail(~np.isfinite(source).all(axis=(1, 2)), "points must be finite", InvalidArgumentError)
    with np.errstate(over="ignore", invalid="ignore"):  # each step checks its pairs
        scale, rotation, translation = _align_centred(_centred(source), landmarks)
        aligned = pred_pts @ np.swapaxes(scale[:, None, None] * rotation, 1, 2)
        aligned += translation[:, None]
        bad = ~np.isfinite(aligned).all(axis=(1, 2))
        require(not bad.any(), f"aligned shape of pair {int(np.argmax(bad))} is not finite")

        # squared residuals per vertex, summed in `aligned`: no new (N, n) floats
        aligned -= points
        aligned *= aligned
        squared = aligned[..., 0]
        squared += aligned[..., 1]
        squared += aligned[..., 2]
        squared *= crop
        paper = np.sqrt(squared.sum(axis=1)) / size
    _fail(~np.isfinite(paper), "reconstruction error is not finite", InvalidArgumentError)
    n_pairs = points.shape[0]
    return ReconstructionReport(
        rmse_paper=float(np.sum(paper)) / n_pairs,
        mean_vertex_dist=float(np.sum(np.sqrt(squared, out=squared).sum(axis=1) / size))
        / n_pairs, n_pairs=n_pairs, crop_radius=crop_radius)


def unshared_reconstruction(predicted: np.ndarray, ground_truth: np.ndarray,
                            landmark_indices: np.ndarray, nose_tip_index: int,
                            crop_radius: float) -> ReconstructionReport:
    """`evaluate_reconstruction` as it checked, gathered, centred and cropped
    the ground truth again for every prediction stack."""
    predicted = np.asarray(predicted, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    require(predicted.ndim == 2 and predicted.shape == ground_truth.shape
            and predicted.shape[0] >= 1 and predicted.shape[1] % 3 == 0,
            f"need equal non-empty (N, 3n) arrays, got {predicted.shape} and "
            f"{ground_truth.shape}")
    require(bool(np.all(np.isfinite(ground_truth))), "ground-truth shapes must be finite")
    n_pairs = predicted.shape[0]
    pred_pts, truth_pts = (a.reshape(n_pairs, -1, 3) for a in (predicted, ground_truth))
    indices, n = np.asarray(landmark_indices, dtype=np.int64).ravel(), pred_pts.shape[1]
    require(bool(np.all((indices >= 0) & (indices < n))),
            f"landmark indices must lie in [0, {n})")
    require(0 <= nose_tip_index < n, f"nose_tip_index {nose_tip_index} out of range [0, {n})")
    require(np.isfinite(crop_radius) and crop_radius >= 0.0,
            f"crop_radius must be finite and non-negative, got {crop_radius}")

    scale, rotation, translation = procrustes_align_stack(pred_pts[:, indices],
                                                          truth_pts[:, indices])
    aligned = pred_pts @ np.swapaxes(scale[:, None, None] * rotation, 1, 2)
    aligned += translation[:, None]
    bad = ~np.isfinite(aligned).all(axis=(1, 2))
    require(not bad.any(), f"aligned shape of pair {int(np.argmax(bad))} is not finite")

    # squared residuals, then nose-tip distances, in `aligned`: no new (N, n) floats
    aligned -= truth_pts
    aligned *= aligned
    squared, dist, scratch = (aligned[..., c] for c in range(3))
    squared += dist
    squared += scratch
    dist.fill(0.0)
    for c in range(3):
        np.subtract(truth_pts[..., c], truth_pts[:, nose_tip_index, c, None], out=scratch)
        dist += np.square(scratch, out=scratch)
    crop = np.sqrt(dist, out=dist) <= crop_radius
    squared *= crop
    size = np.count_nonzero(crop, axis=1)
    return ReconstructionReport(
        rmse_paper=float(np.sum(np.sqrt(squared.sum(axis=1)) / size)) / n_pairs,
        mean_vertex_dist=float(np.sum(np.sqrt(squared, out=squared).sum(axis=1) / size))
        / n_pairs, n_pairs=n_pairs, crop_radius=float(crop_radius))


def self_encoding_disentangling_report(embed, dataset) -> DisentanglingReport:
    """`disentangling_report` as it encoded the held-out rows' images itself,
    then their re-renders."""
    require(callable(embed), "embed must be callable")

    model: MorphableModel = dataset.model
    rows = dataset.test_indices
    labels = dataset.labels[rows]
    require(np.unique(labels).size >= 2, "need at least two subjects")
    require(len(rows) >= np.unique(labels).size * 2,
            "need at least two expressions per subject")

    images = dataset.images(rows)
    c_id, c_res = embed(images)

    same, other = masked_cosine_distances(c_id, labels)
    intra, inter = float(same.mean()), float(other.mean())

    rng = np.random.default_rng(np.random.SeedSequence([dataset.spec.seed, 0x1d]))
    perturbation = rng.normal(0.0, 1.0, size=(len(rows), model.k_exp)) * model.sigma_exp
    moved_images = render_depths(model, dataset.alpha_id[rows],
                                 dataset.alpha_exp[rows] + perturbation,
                                 dataset.pose_scale[rows], dataset.pose_rotation[rows],
                                 dataset.pose_translation[rows],
                                 dataset.spec.image_resolution)
    moved_id, moved_res = embed(moved_images)
    den, ratios = 0.0, []
    for k in range(len(rows)):
        d_res = float(np.linalg.norm(moved_res[k] - c_res[k]))
        d_id = float(np.linalg.norm(moved_id[k] - c_id[k]))
        den = den + d_res + d_id
        if d_res + d_id > 0:
            ratios.append(d_res / (d_res + d_id))

    # constant encoder: no pair moved, no identity spread to attribute
    degenerate = den <= 0.0 or not (np.any(same > 0) or np.any(other > 0))
    ratio = float(np.mean(ratios)) if ratios else float("nan")

    grand = c_id.mean(axis=0)
    total_var = float(np.sum((c_id - grand) ** 2))
    between = 0.0
    for label in np.unique(labels):
        group = c_id[labels == label]
        between += group.shape[0] * float(np.sum((group.mean(axis=0) - grand) ** 2))
    # variance at rounding level relative to the code energy means the codes
    # are numerically constant; the ratio would be noise over noise
    energy = float(np.sum(c_id * c_id))
    explained = (between / total_var if total_var > 1e-12 * max(energy, 1e-300)
                 else float("nan"))
    if not np.isfinite(explained):
        degenerate = True
        explained = float("nan")
    require(degenerate or bool(np.isfinite(ratio)),
            "displacement_ratio must be finite unless degenerate")

    return DisentanglingReport(intra_distance=intra, inter_distance=inter,
                               displacement_ratio=ratio,
                               variance_explained=explained,
                               degenerate=degenerate)
