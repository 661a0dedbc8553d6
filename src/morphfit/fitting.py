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
from typing import NamedTuple

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


class FitResult(NamedTuple):
    """Shared identity coefficients, per-image residual coefficients (m, k_exp)
    and per-image weak-perspective poses: scale (m,), rotation (m, 3, 3) and
    translation (m, 3). objective_trace holds the regularized objective after
    each full pass (the pure data term when both reg weights are 0); the fit
    checks every sub-step, so the trace is finite and non-increasing within
    slack, and iterations_used is its length.
    """

    alpha_id: np.ndarray
    alpha_exp: np.ndarray
    scale: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    objective_trace: list[float]
    iterations_used: int
    converged: bool


def _lstsq_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions (m, k, c) of an (m, p, k) stack of
    systems with (m, p, c) right-hand sides, through the SVD with the cutoff
    of np.linalg.lstsq(rcond=None): singular values at or below eps * max(p, k)
    times the largest count as zero, so rank-deficient systems agree too."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > np.finfo(float).eps * max(a.shape[1:]) * s[:, :1]
    inverse = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return np.swapaxes(vt, 1, 2) @ (inverse[..., None] * (np.swapaxes(u, 1, 2) @ b))


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
    Every step runs on the whole stack.
    """
    sv = np.linalg.svd(points - points.mean(axis=1, keepdims=True), compute_uv=False)
    if np.any(sv[:, 1] <= 1e-9 * np.maximum(sv[:, 0], np.finfo(float).tiny)):
        raise DegenerateGeometryError("3D points are collinear or coincident")

    design = np.concatenate([points, np.ones((*points.shape[:2], 1))], axis=2)
    linear = np.swapaxes(_lstsq_stack(design, targets)[:, :3], 1, 2)  # (M, 2, 3)
    scale = np.linalg.norm(linear, axis=2).sum(axis=1) / 2.0
    if np.any(scale <= 1e-12):
        raise DegenerateGeometryError("projected landmarks carry no scale")
    uu, _, vt = np.linalg.svd(linear, full_matrices=False)
    ortho = uu @ vt  # nearest pairs of orthonormal rows
    rotation = np.concatenate([ortho, np.cross(ortho[:, 0], ortho[:, 1])[:, None]], axis=1)

    proj = scale[:, None, None] * rotation[:, :2]
    residual_mean = (targets - points @ proj.transpose(0, 2, 1)).mean(axis=1)
    translation = (np.linalg.pinv(proj) @ residual_mean[..., None])[..., 0]
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


def _landmark_components(model: MorphableModel) -> tuple:
    """Landmark rows of the mean (3L,) and bases (3L, k_id) and (3L, k_exp)."""
    rows = coord_rows(model.landmark_indices)
    return model.mean[rows], model.basis_id[rows], model.basis_exp[rows]


def _landmark_points(flat, alpha_id: np.ndarray, alpha_exps: np.ndarray) -> np.ndarray:
    """(m, L, 3) landmark points of the shared identity with each (m, k_exp)
    residual row: the composed shapes' landmark rows only, from one product."""
    mean, basis_id, basis_exp = flat
    points = (mean + basis_id @ alpha_id) + alpha_exps @ basis_exp.T
    require(bool(np.all(np.isfinite(points))), "landmark points must be finite")
    return points.reshape(len(alpha_exps), -1, 3)


def _solve_block(name: str, mean, fixed_basis, basis, sigma, coeffs, poses, targets,
                 reg: float, shared: bool = False) -> np.ndarray:
    """Least-squares coefficients of the flat (3L, k) `basis` for m images with
    (m or 1, k_fixed) coefficients of `fixed_basis`, poses (scale, rotation,
    translation) and (m, L, 2) landmarks, damped by reg * ||x / sigma||^2: an
    (m, k) stack of per-image solutions, or if `shared` one (k,) for all."""
    scale, rotation, translation = poses
    m, k = len(targets), basis.shape[1]
    proj = scale[:, None, None] * rotation[:, :2]  # (m, 2, 3)
    fixed = (mean + coeffs @ fixed_basis.T).reshape(len(coeffs), -1, 3)
    rhs = (targets - (fixed + translation[:, None]) @ np.swapaxes(proj, 1, 2)).reshape(m, -1)
    # image j's rows (l, r) are proj_j[r] @ basis[3l:3l+3], from one product
    system = proj.reshape(-1, 3) @ basis.reshape(-1, 3, k).transpose(1, 0, 2).reshape(3, -1)
    system = system.reshape(m, 2, -1, k).transpose(0, 2, 1, 3).reshape(m, -1, k)
    if shared:
        system, rhs = system.reshape(1, -1, k), rhs.reshape(1, -1)
    if reg == 0.0 and k > system.shape[1]:
        raise UnderdeterminedError(
            f"{name}={k} exceeds the {system.shape[1]} equations with no regularizer")
    if reg > 0.0:
        damping = np.broadcast_to(np.sqrt(reg) * np.diag(1.0 / sigma), (len(system), k, k))
        system = np.concatenate([system, damping], axis=1)
        rhs = np.concatenate([rhs, np.zeros((len(rhs), k))], axis=1)
    solution = _lstsq_stack(system, rhs[..., None])[..., 0]
    return solution[0] if shared else solution


def _data_terms(points: np.ndarray, poses: tuple, targets: np.ndarray) -> np.ndarray:
    """(m,) squared norms of each image's (L, 2) landmarks minus the
    weak-perspective projection f * P @ (R @ (p + t)) of its (L, 3) points."""
    scale, rotation, translation = poses
    projected = (points + translation[:, None]) @ np.swapaxes(rotation[:, :2], 1, 2)
    diff = (targets - scale[:, None, None] * projected).reshape(len(points), -1)
    return np.einsum("ij,ij->i", diff, diff)


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
    and works on all images at once: one product for their landmark points,
    one stack of SVD least-squares solves for each sub-step, one stack of
    data terms.
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

    flat = mean, basis_id, basis_exp = _landmark_components(model)
    targets = landmarks.reshape(n_images, -1, 2)
    alpha_id = np.zeros(model.k_id)
    alpha_exps = np.zeros((n_images, model.k_exp))

    energy = sum(float(row @ row) for row in landmarks)
    floor = np.finfo(float).eps * max(energy, 1.0)

    current: float | None = None

    def check_step(step_name: str, iteration: int, new_terms: np.ndarray) -> None:
        nonlocal current, terms
        after = float(np.sum(new_terms))  # the regularized objective
        for reg, alpha, sigma in ((config.reg_id, alpha_id, model.sigma_id),
                                  (config.reg_exp, alpha_exps, model.sigma_exp)):
            if reg > 0.0:
                after += reg * float(np.sum(np.square(alpha / sigma)))
        if not np.isfinite(after):
            raise NumericalFailureError(
                f"objective became non-finite after {step_name} in pass {iteration}")
        if current is not None and after > current + MONOTONE_SLACK:
            j = int(np.argmax(new_terms - terms))
            raise NumericalFailureError(
                f"objective increased after {step_name} in pass {iteration}: "
                f"{current!r} -> {after!r}; image {j}'s data term rose most: "
                f"{float(terms[j])!r} -> {float(new_terms[j])!r}")
        current, terms = after, new_terms

    trace: list[float] = []
    converged = False
    points = _landmark_points(flat, alpha_id, alpha_exps)
    for iteration in range(1, config.max_iterations + 1):
        candidates = _estimate_poses(points, targets)
        _check_poses(*candidates)
        new = _data_terms(points, candidates, targets)
        if iteration == 1:
            poses, terms = candidates, new
        # an image keeps its previous pose where the new one fits it worse; from
        # pass 2 on, `terms` are the identity step's, at the same points and poses
        take = new <= terms
        for part, candidate in zip(poses, candidates):
            part[take] = candidate[take]
        check_step("pose estimation", iteration, np.where(take, new, terms))

        alpha_exps = _solve_block("k_exp", mean, basis_id, basis_exp, model.sigma_exp,
                                  alpha_id[None], poses, targets, config.reg_exp)
        check_step("residual solve", iteration,
                   _data_terms(_landmark_points(flat, alpha_id, alpha_exps), poses, targets))

        alpha_id = _solve_block("k_id", mean, basis_exp, basis_id, model.sigma_id,
                                alpha_exps, poses, targets, config.reg_id, shared=True)
        points = _landmark_points(flat, alpha_id, alpha_exps)  # also the next pose input
        check_step("identity solve", iteration, _data_terms(points, poses, targets))

        trace.append(current)
        if len(trace) >= 2:
            previous = trace[-2]
            if abs(previous - trace[-1]) <= config.rel_tol * max(previous, floor):
                converged = True
                break

    return FitResult(alpha_id, alpha_exps, *poses, trace, len(trace), converged)
