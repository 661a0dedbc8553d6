"""The morphable model and core geometric operations.

Shapes are dense 3D point clouds stored as flat float64 vectors with
interleaved coordinates (x1, y1, z1, ..., xn, yn, zn). 2D landmark sets use
the same flat layout in the plane. All rotation matrices are proper rotations
(R^T R = I, det R = +1), and everything is computed in double precision.

The camera model is weak perspective: a point p maps to the image as
u = f * P @ (R @ (p + t)), where P is the orthographic projector that drops
the third row. The projector is never exposed as data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidArgumentError, require

# Tolerance for accepting a matrix as a proper rotation.
ROTATION_TOL = 1e-10

# Minimum point count for pose estimation and Procrustes alignment.
MIN_POINTS = 4


def _readonly(values, dtype=np.float64) -> np.ndarray:
    out = np.array(values, dtype=dtype, order="C", copy=True)
    out.setflags(write=False)
    return out


def _rotation_errors(rotation: np.ndarray) -> tuple:
    """max |R^T R - I| and |det R - 1| of each matrix of a (..., 3, 3) stack."""
    gram = np.swapaxes(rotation, -1, -2) @ rotation - np.eye(3)
    return np.max(np.abs(gram), axis=(-2, -1)), np.abs(np.linalg.det(rotation) - 1.0)


@dataclass(frozen=True)
class MorphableModel:
    """Linear shape model: mean plus identity and residual basis matrices.

    A shape instance is mean + basis_id @ alpha_id + basis_exp @ alpha_exp.
    Columns of the generated synthetic bases are orthonormal, but that is a
    property of the generator, not a requirement of this container; fitted or
    loaded models only need consistent dimensions and positive sigmas.
    """

    mean: np.ndarray            # (3n,), n >= 4
    basis_id: np.ndarray        # (3n, k_id)
    basis_exp: np.ndarray       # (3n, k_exp)
    sigma_id: np.ndarray        # (k_id,), per-dimension sampling std, > 0
    sigma_exp: np.ndarray       # (k_exp,)
    landmark_indices: np.ndarray  # (L,) distinct vertex indices, L >= 4
    nose_tip_index: int

    def __post_init__(self):
        mean = _readonly(np.ravel(self.mean))
        basis_id = _readonly(self.basis_id)
        basis_exp = _readonly(self.basis_exp)
        sigma_id = _readonly(np.ravel(self.sigma_id))
        sigma_exp = _readonly(np.ravel(self.sigma_exp))
        landmarks = _readonly(np.ravel(self.landmark_indices), dtype=np.int64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis_id", basis_id)
        object.__setattr__(self, "basis_exp", basis_exp)
        object.__setattr__(self, "sigma_id", sigma_id)
        object.__setattr__(self, "sigma_exp", sigma_exp)
        object.__setattr__(self, "landmark_indices", landmarks)
        object.__setattr__(self, "nose_tip_index", int(self.nose_tip_index))

        dim = mean.size
        require(dim % 3 == 0, f"mean length {dim} is not a multiple of 3")
        require(dim >= 3 * MIN_POINTS,
                f"mean needs at least {MIN_POINTS} vertices, got {dim // 3}")
        require(bool(np.all(np.isfinite(mean))), "mean must be finite")
        require(basis_id.ndim == 2 and basis_id.shape[0] == dim,
                f"basis_id must be ({dim}, k_id), got {basis_id.shape}")
        require(basis_exp.ndim == 2 and basis_exp.shape[0] == dim,
                f"basis_exp must be ({dim}, k_exp), got {basis_exp.shape}")
        require(basis_id.shape[1] >= 1, "basis_id needs at least one column")
        require(basis_exp.shape[1] >= 1, "basis_exp needs at least one column")
        require(bool(np.all(np.isfinite(basis_id))), "basis_id must be finite")
        require(bool(np.all(np.isfinite(basis_exp))), "basis_exp must be finite")
        require(sigma_id.shape == (basis_id.shape[1],),
                "sigma_id length must match basis_id columns")
        require(sigma_exp.shape == (basis_exp.shape[1],),
                "sigma_exp length must match basis_exp columns")
        require(bool(np.all(np.isfinite(sigma_id))) and bool(np.all(sigma_id > 0)),
                "sigma_id entries must be finite and positive")
        require(bool(np.all(np.isfinite(sigma_exp))) and bool(np.all(sigma_exp > 0)),
                "sigma_exp entries must be finite and positive")
        n = self.n
        require(landmarks.size >= MIN_POINTS,
                f"need at least {MIN_POINTS} landmark indices, got {landmarks.size}")
        require(bool(np.all(landmarks >= 0)) and bool(np.all(landmarks < n)),
                "landmark indices out of vertex range")
        require(np.unique(landmarks).size == landmarks.size,
                "landmark indices must be distinct")
        require(0 <= self.nose_tip_index < n, "nose_tip_index out of vertex range")

    @property
    def n(self) -> int:
        return self.mean.size // 3

    @property
    def k_id(self) -> int:
        return self.basis_id.shape[1]

    @property
    def k_exp(self) -> int:
        return self.basis_exp.shape[1]

    @property
    def n_landmarks(self) -> int:
        return self.landmark_indices.size


def coord_rows(indices: np.ndarray) -> np.ndarray:
    """Flat coordinate-row indices (3i, 3i+1, 3i+2) for the given vertex indices."""
    idx = np.asarray(indices, dtype=np.int64)
    return (3 * idx[:, None] + np.arange(3)).ravel()


def procrustes_align_stack(source: np.ndarray, target: np.ndarray) -> tuple:
    """Similarity alignment of each pair of an (N, L, 3) source and target stack.

    Returns (scale (N,), rotation (N, 3, 3), translation (N, 3)), pair k's
    transform equal bit for bit to aligning that pair alone (Umeyama, TPAMI
    1991). A degenerate pair raises DegenerateGeometryError naming it.
    """
    src = np.asarray(source, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    require(src.ndim == 3 and src.shape[2] == 3 and tgt.shape == src.shape,
            f"need equal (N, L, 3) source and target, got {src.shape} and {tgt.shape}")
    require(src.shape[1] >= MIN_POINTS,
            f"need at least {MIN_POINTS} points, got {src.shape[1]}")

    def fail(bad: np.ndarray, message: str, error=DegenerateGeometryError) -> None:
        if np.any(bad):
            raise error(f"pair {int(np.argmax(bad))}: {message}")

    fail(~(np.isfinite(src).all(axis=(1, 2)) & np.isfinite(tgt).all(axis=(1, 2))),
         "points must be finite", InvalidArgumentError)
    mu_src, mu_tgt = src.mean(axis=1), tgt.mean(axis=1)
    x, y = src - mu_src[:, None], tgt - mu_tgt[:, None]
    # one mean per row: a mean along axis 1 of the stack sums in another order
    var_src = np.array([np.mean(row) for row in np.sum(x * x, axis=2)])
    fail(var_src <= 0.0, "source points are coincident")
    u, s, vt = np.linalg.svd(np.swapaxes(y, 1, 2) @ x / src.shape[1])
    fail((s[:, 0] <= 0.0) | (s[:, 1] <= 1e-12 * s[:, 0]),
         "cross-covariance is rank deficient; points are collinear or coincident")

    d = np.ones((src.shape[0], 3))
    d[np.linalg.det(u) * np.linalg.det(vt) < 0.0, 2] = -1.0
    rotation = (u * d[:, None]) @ vt
    scale = np.sum(s * d, axis=1) / var_src
    fail(scale <= 0.0, "alignment collapsed to non-positive scale")
    fail(~(np.maximum(*_rotation_errors(rotation)) <= ROTATION_TOL),
         "rotation is not orthonormal and proper", InvalidArgumentError)
    return scale, rotation, mu_tgt - scale[:, None] * (rotation @ mu_src[:, :, None])[:, :, 0]


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


def rotation_zyx(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Rotation from intrinsic Z-Y-X Euler angles: R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    cz, sz = np.cos(yaw), np.sin(yaw)
    cy, sy = np.cos(pitch), np.sin(pitch)
    cx, sx = np.cos(roll), np.sin(roll)
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    return rz @ ry @ rx
