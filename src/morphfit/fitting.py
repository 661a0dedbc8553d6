"""Multi-image landmark fitting by alternating linear least squares.

Given 2D landmark sets from several images of one subject, the fitter
recovers a shared identity coefficient vector together with per-image
residual coefficients and weak-perspective poses by minimizing

    sum_j || u_j - f_j * P @ (R_j @ (s_U(alpha_id, alpha_exp_j) + t_j)) ||^2

plus optional Tikhonov terms reg_id * ||alpha_id / sigma_id||^2 and
reg_exp * ||alpha_exp_j / sigma_exp||^2 per image. Coefficients start at
zero; each pass re-estimates poses, then per-image residual coefficients,
then the shared identity block, each as an exact least-squares minimizer of
its own subproblem. The regularized objective is checked to be non-increasing
across sub-steps (the pose sub-step is a projection, not an exact minimizer,
so the guarantee is asserted rather than proven); a violation beyond slack
aborts loudly instead of being silently accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateGeometryError, InvalidArgumentError,
                     NumericalFailureError, UnderdeterminedError, require)
from .geometry import ROTATION_TOL, MorphableModel, _rotation_errors, coord_rows

# Absolute slack allowed on the objective monotonicity guarantee.
MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class FitConfig:
    """Alternation controls. reg defaults are 0 for exact recovery; use
    ~1e-3 on noisy landmarks."""

    max_iterations: int = 20
    rel_tol: float = 1e-6
    reg_id: float = 0.0
    reg_exp: float = 0.0

    def __post_init__(self):
        require(self.max_iterations >= 1, "max_iterations must be >= 1")
        require(np.isfinite(self.rel_tol) and self.rel_tol > 0,
                "rel_tol must be finite and positive")
        require(np.isfinite(self.reg_id) and self.reg_id >= 0,
                "reg_id must be finite and non-negative")
        require(np.isfinite(self.reg_exp) and self.reg_exp >= 0,
                "reg_exp must be finite and non-negative")


@dataclass(frozen=True)
class FitResult:
    """Shared identity coefficients, per-image residual coefficients (m, k_exp)
    and per-image weak-perspective poses: scale (m,), rotation (m, 3, 3) and
    translation (m, 3). objective_trace holds the regularized objective after
    each full pass (the pure data term when both reg weights are 0) and is
    non-increasing within slack by construction.
    """

    alpha_id: np.ndarray
    alpha_exp: np.ndarray
    scale: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    objective_trace: list[float]
    iterations_used: int
    converged: bool

    def __post_init__(self):
        trace = [float(v) for v in self.objective_trace]
        object.__setattr__(self, "objective_trace", trace)
        require(all(np.isfinite(v) for v in trace), "objective trace must be finite")
        for earlier, later in zip(trace, trace[1:]):
            require(later <= earlier + MONOTONE_SLACK,
                    "objective trace must be non-increasing")
        require(self.iterations_used == len(trace),
                "iterations_used must match the trace length")


def _estimate_poses(points: np.ndarray, targets: np.ndarray) -> tuple:
    """Closed-form scaled-orthographic poses from (M, L, 3) points and their
    (M, L, 2) landmarks: (scale (M,), rotation (M, 3, 3), translation (M, 3)).

    Per image, fits the least-squares 2x4 affine map from homogeneous 3D
    points to the 2D landmarks, projects its two 3-vector rows onto the
    nearest scaled pair of orthonormal rows via the SVD, takes f as the mean
    of the two affine row norms, completes the rotation with the cross
    product of the orthonormal rows (det +1 by construction), and re-solves
    the translation so that u ~ f * P @ (R @ (p + t)) holds in the
    least-squares sense. The recovered t is the minimum-norm solution; its
    component along the viewing axis is unobservable under weak perspective.

    The affine solve and the translation run per image, the rest stacked;
    LAPACK factors each matrix of a stack on its own, so every pose equals
    the one-image result bit for bit.
    """
    sv = np.linalg.svd(points - points.mean(axis=1, keepdims=True), compute_uv=False)
    if np.any(sv[:, 1] <= 1e-9 * np.maximum(sv[:, 0], np.finfo(float).tiny)):
        raise DegenerateGeometryError("3D points are collinear or coincident")

    design = np.concatenate([points, np.ones((*points.shape[:2], 1))], axis=2)
    linear = np.array([np.linalg.lstsq(a, u, rcond=None)[0][:3].T  # (2, 3) linear parts
                       for a, u in zip(design, targets)])
    scale = np.array([(float(np.linalg.norm(rows[0])) + float(np.linalg.norm(rows[1]))) / 2.0
                      for rows in linear])
    if np.any(scale <= 1e-12):
        raise DegenerateGeometryError("projected landmarks carry no scale")
    uu, _, vt = np.linalg.svd(linear, full_matrices=False)
    ortho = uu @ vt  # nearest pairs of orthonormal rows
    rotation = np.concatenate([ortho, np.cross(ortho[:, 0], ortho[:, 1])[:, None]], axis=1)

    proj = scale[:, None, None] * rotation[:, :2]
    residual_mean = (targets - points @ proj.transpose(0, 2, 1)).mean(axis=1)
    translation = np.array([p @ m for p, m in zip(np.linalg.pinv(proj), residual_mean)])
    return scale, rotation, translation


def _check_poses(scale: np.ndarray, rotation: np.ndarray, translation: np.ndarray) -> None:
    """InvalidArgumentError naming the first image whose pose is not a
    finite positive scale, a proper rotation and a finite translation."""
    gram_err, det_err = _rotation_errors(rotation)
    good = (np.isfinite(scale) & (scale > 0.0) & (gram_err <= ROTATION_TOL)
            & (det_err <= ROTATION_TOL) & np.isfinite(translation).all(axis=1))
    if not good.all():
        j = int(np.argmin(good))
        raise InvalidArgumentError(
            f"image {j}: pose is not a finite positive scale, a proper rotation and "
            f"a finite translation: scale {float(scale[j])!r}, max |R^T R - I| "
            f"{gram_err[j]:.3e}, |det R - 1| {det_err[j]:.3e}, translation "
            f"{translation[j].tolist()}")


def _landmark_components(model: MorphableModel):
    """Landmark-row slices of the mean and both bases, flat ((3L,), (3L, k))
    and as vertex-major ((L, 3), (L, 3, k)) views of the same rows."""
    rows = coord_rows(model.landmark_indices)
    flat = (model.mean[rows], model.basis_id[rows], model.basis_exp[rows])
    return flat, tuple(c.reshape(-1, 3, *c.shape[1:]) for c in flat)


def _landmark_points(flat, alpha_id: np.ndarray, alpha_exp: np.ndarray) -> np.ndarray:
    """(L, 3) landmark points: the composed shape on the landmark rows only,
    bit for bit wherever the BLAS computes each row of a product alike
    (OpenBLAS does not for the last rows when their count is not a multiple
    of 4)."""
    mean, basis_id, basis_exp = flat
    points = (mean + basis_id @ alpha_id + basis_exp @ alpha_exp).reshape(-1, 3)
    require(bool(np.all(np.isfinite(points))), "landmark points must be finite")
    return points


def _solve_block(name: str, mean_u, fixed_basis, basis, sigma, per_image, reg):
    """Least-squares coefficients of the vertex-major `basis` shared by all
    images, each with its own (coefficients of `fixed_basis`, scale,
    rotation, translation, (L, 2) landmarks) in the list `per_image`, damped
    by reg * ||x / sigma||^2."""
    k, equations = basis.shape[2], 2 * mean_u.shape[0] * len(per_image)
    if reg == 0.0 and k > equations:
        raise UnderdeterminedError(
            f"{name}={k} exceeds the {equations} equations with no regularizer")
    blocks, rhs_parts = [], []
    for coeffs, scale, rotation, translation, target in per_image:
        proj = scale * rotation[:2]
        base = (mean_u + fixed_basis @ np.ravel(coeffs) + translation) @ proj.T
        blocks.append(np.einsum("rc,lck->lrk", proj, basis).reshape(-1, k))
        rhs_parts.append((target - base).ravel())
    system = np.vstack(blocks)
    rhs = np.concatenate(rhs_parts)
    if reg > 0.0:
        system = np.vstack([system, np.sqrt(reg) * np.diag(1.0 / sigma)])
        rhs = np.concatenate([rhs, np.zeros(k)])
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return solution


def _image_data_term(points: np.ndarray, scale, rotation: np.ndarray,
                     translation: np.ndarray, target: np.ndarray) -> float:
    """Squared norm of the flat (2L,) `target` minus the weak-perspective
    projection f * P @ (R @ (p + t)) of the (L, 3) points."""
    rotated = (points + translation) @ rotation.T
    diff = target - (scale * rotated[:, :2]).ravel()
    return float(diff @ diff)


def multi_image_fit(model: MorphableModel, landmarks: np.ndarray,
                    config: FitConfig = FitConfig()) -> FitResult:
    """Alternating fit of shared identity, per-image residuals and poses to
    an (m, 2L) array of landmark rows (u1, v1, ..., uL, vL), one per image.

    Starts from zero coefficients. Each pass runs pose re-estimation, then
    the per-image residual solves, then the shared identity solve, and
    records the regularized objective. The closed-form pose update is not a
    guaranteed descent step (orthonormalization projects the affine
    solution), so a re-estimated pose is kept only when it does not increase
    that image's data term; otherwise the previous pose stands. The
    objective must still not increase beyond slack at any sub-step: a
    violation raises NumericalFailureError naming the image whose data term
    rose most. Convergence is declared when the change between consecutive
    passes drops below rel_tol relative to the previous value, with the
    comparison floored at machine epsilon times the total landmark energy so
    that fits sitting at the numerical noise floor terminate.

    Every step reads only the model's landmark rows, sliced once per fit,
    and the pose step runs stacked SVDs over all images at once.
    """
    landmarks = np.asarray(landmarks, dtype=np.float64)
    require(landmarks.ndim == 2,
            f"landmarks must be an (m, 2L) array, got shape {landmarks.shape}")
    n_images, width = landmarks.shape
    require(n_images >= 1, "need at least one landmark set")
    require(width == 2 * model.n_landmarks,
            f"{width} landmark coordinates per image given, model has "
            f"{model.n_landmarks} landmarks")
    finite = np.isfinite(landmarks).all(axis=1)
    require(finite.all(),
            f"image {int(np.argmin(finite))}: landmark coordinates must be finite")

    rows, (mean_u, basis_id_u, basis_exp_u) = _landmark_components(model)
    targets = landmarks.reshape(n_images, -1, 2)
    alpha_id = np.zeros(model.k_id)
    alpha_exps = [np.zeros(model.k_exp) for _ in range(n_images)]

    energy = sum(float(row @ row) for row in landmarks)
    floor = np.finfo(float).eps * max(energy, 1.0)

    def landmark_points() -> np.ndarray:
        return np.stack([_landmark_points(rows, alpha_id, e) for e in alpha_exps])

    def data_terms(points: np.ndarray, poses: tuple) -> list[float]:
        return [_image_data_term(p, *pose, target)
                for p, *pose, target in zip(points, *poses, landmarks)]

    current: float | None = None
    terms: list[float] = []

    def check_step(step_name: str, iteration: int, new_terms: list[float]) -> None:
        # the regularized objective, the data terms summed in image order
        nonlocal current, terms
        after = 0.0
        for term in new_terms:
            after += term
        if config.reg_id > 0.0:
            scaled = alpha_id / model.sigma_id
            after += config.reg_id * float(scaled @ scaled)
        if config.reg_exp > 0.0:
            for alpha_exp in alpha_exps:
                scaled = alpha_exp / model.sigma_exp
                after += config.reg_exp * float(scaled @ scaled)
        if not np.isfinite(after):
            raise NumericalFailureError(
                f"objective became non-finite after {step_name} in pass {iteration}")
        if current is not None and after > current + MONOTONE_SLACK:
            j = int(np.argmax(np.subtract(new_terms, terms)))
            raise NumericalFailureError(
                f"objective increased after {step_name} in pass {iteration}: "
                f"{current!r} -> {after!r}; image {j}'s data term rose most: "
                f"{terms[j]!r} -> {new_terms[j]!r}")
        current, terms = after, new_terms

    trace: list[float] = []
    converged = False
    iterations = 0
    points = landmark_points()
    for iteration in range(1, config.max_iterations + 1):
        iterations = iteration
        candidates = _estimate_poses(points, targets)
        _check_poses(*candidates)
        new = data_terms(points, candidates)
        if iteration == 1:
            poses, kept = candidates, new
        else:  # an image keeps its previous pose where the new one fits it worse
            kept = data_terms(points, poses)
        take = np.less_equal(new, kept)
        for part, candidate in zip(poses, candidates):
            part[take] = candidate[take]
        check_step("pose estimation", iteration, np.where(take, new, kept).tolist())

        alpha_exps = [_solve_block("k_exp", mean_u, basis_id_u, basis_exp_u,
                                   model.sigma_exp, [(alpha_id, *image)], config.reg_exp)
                      for image in zip(*poses, targets)]
        check_step("residual solve", iteration, data_terms(landmark_points(), poses))

        alpha_id = _solve_block("k_id", mean_u, basis_exp_u, basis_id_u, model.sigma_id,
                                list(zip(alpha_exps, *poses, targets)), config.reg_id)
        points = landmark_points()  # also the next pass's pose input
        check_step("identity solve", iteration, data_terms(points, poses))

        trace.append(current)
        if len(trace) >= 2:
            previous = trace[-2]
            if abs(previous - trace[-1]) <= config.rel_tol * max(previous, floor):
                converged = True
                break

    return FitResult(alpha_id, np.array(alpha_exps), *poses, trace, iterations, converged)
