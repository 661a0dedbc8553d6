"""Tests for pose estimation, coefficient solves, and the alternating fit."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morphfit import fitting
from morphfit.errors import (
    DegenerateGeometryError,
    InvalidArgumentError,
    MorphfitError,
    NumericalFailureError,
    UnderdeterminedError,
)
from morphfit.fitting import MONOTONE_SLACK, FitConfig, FitResult, multi_image_fit
from morphfit.geometry import MorphableModel, coord_rows, rotation_zyx

from conftest import assert_plain_fields
from oracles import (CoeffPair, LandmarkSet2D, PoseParams, compose_shape,
                     estimate_pose, objective, project_landmarks,
                     render_landmarks, select_landmarks, solve_expression,
                     solve_identity_shared)


def wide_pose(rng: np.random.Generator) -> PoseParams:
    rotation = rotation_zyx(rng.uniform(-0.15, 0.15), rng.uniform(-0.25, 0.25),
                            rng.uniform(-0.15, 0.15))
    return PoseParams(rng.uniform(0.9, 1.1), rotation, rng.uniform(-0.1, 0.1, size=3))


def draw_coeffs(model: MorphableModel, rng: np.random.Generator) -> CoeffPair:
    return CoeffPair(rng.normal(size=model.k_id) * model.sigma_id,
                     rng.normal(size=model.k_exp) * model.sigma_exp)


def exact_landmarks(model: MorphableModel, coeffs: CoeffPair,
                    pose: PoseParams) -> LandmarkSet2D:
    return render_landmarks(model, coeffs, pose, 0.0, np.random.default_rng(0))


def stack_sets(landmark_sets: list[LandmarkSet2D]) -> np.ndarray:
    """The (m, 2L) landmark array that `multi_image_fit` takes."""
    return np.array([lm.coords for lm in landmark_sets])


def predicted_coords(model: MorphableModel, alpha_id: np.ndarray,
                     alpha_exp: np.ndarray, pose: PoseParams) -> np.ndarray:
    shape = compose_shape(model, CoeffPair(alpha_id, alpha_exp))
    pts = select_landmarks(shape, model.landmark_indices)
    return project_landmarks(pts, pose).coords


def tiny_wide_model(k_id: int = 1, k_exp: int = 9) -> MorphableModel:
    """Hand-built 6-vertex model with only 4 landmarks (2L = 8 equations)."""
    rng = np.random.default_rng(99)
    return MorphableModel(mean=rng.normal(size=18),
                          basis_id=rng.normal(size=(18, k_id)) * 0.1,
                          basis_exp=rng.normal(size=(18, k_exp)) * 0.1,
                          sigma_id=np.ones(k_id),
                          sigma_exp=np.ones(k_exp),
                          landmark_indices=np.array([0, 1, 2, 3]),
                          nose_tip_index=0)


# ---------------------------------------------------------------------------
# estimate_pose


class TestEstimatePose:
    def test_identity_pose_recovered(self, small_model):
        points = small_model.mean.reshape(-1, 3)[small_model.landmark_indices]
        pose = PoseParams(1.0, np.eye(3), np.zeros(3))
        landmarks = project_landmarks(points, pose)
        est = estimate_pose(points, landmarks)
        assert abs(est.scale - 1.0) < 1e-9
        assert np.max(np.abs(est.rotation - np.eye(3))) < 1e-8
        reproj = project_landmarks(points, est)
        assert np.max(np.abs(reproj.coords - landmarks.coords)) < 1e-9

    def test_known_pose_recovered(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(10, 3))
        pose = PoseParams(1.4, rotation_zyx(0.3, -0.2, 0.5), np.array([0.1, -0.2, 0.3]))
        landmarks = project_landmarks(points, pose)
        est = estimate_pose(points, landmarks)
        assert abs(est.scale - 1.4) < 1e-9
        assert np.max(np.abs(est.rotation - pose.rotation)) < 1e-8
        # translation along the viewing axis is unobservable; compare images
        reproj = project_landmarks(points, est)
        assert np.max(np.abs(reproj.coords - landmarks.coords)) < 1e-9

    def test_collinear_points_rejected(self):
        direction = np.array([1.0, 2.0, 3.0])
        points = np.outer(np.linspace(0.0, 1.0, 8), direction)
        landmarks = LandmarkSet2D(np.arange(16, dtype=np.float64))
        with pytest.raises(DegenerateGeometryError):
            estimate_pose(points, landmarks)

    def test_coincident_points_rejected(self):
        points = np.tile(np.array([1.0, 2.0, 3.0]), (6, 1))
        landmarks = LandmarkSet2D(np.arange(12, dtype=np.float64))
        with pytest.raises(DegenerateGeometryError):
            estimate_pose(points, landmarks)

    def test_too_few_points_rejected(self):
        points = np.random.default_rng(0).normal(size=(3, 3))
        with pytest.raises(InvalidArgumentError):
            estimate_pose(points, LandmarkSet2D(np.arange(6, dtype=np.float64)))

    def test_count_mismatch_rejected(self):
        points = np.random.default_rng(0).normal(size=(6, 3))
        with pytest.raises(InvalidArgumentError):
            estimate_pose(points, LandmarkSet2D(np.arange(8, dtype=np.float64)))


# ---------------------------------------------------------------------------
# linear coefficient solves


class TestSolveExpression:
    def test_zero_residual_data_gives_zero(self, small_model):
        rng = np.random.default_rng(1)
        alpha_id = rng.normal(size=small_model.k_id) * small_model.sigma_id
        pose = wide_pose(rng)
        landmarks = exact_landmarks(
            small_model, CoeffPair(alpha_id, np.zeros(small_model.k_exp)), pose)
        solution = solve_expression(small_model, alpha_id, pose, landmarks,
                                    reg_exp=1e-3)
        assert np.linalg.norm(solution) < 1e-12

    def test_recovers_known_coefficients(self, small_model):
        rng = np.random.default_rng(2)
        coeffs = draw_coeffs(small_model, rng)
        pose = wide_pose(rng)
        landmarks = exact_landmarks(small_model, coeffs, pose)
        solution = solve_expression(small_model, coeffs.alpha_id, pose, landmarks)
        assert np.max(np.abs(solution - coeffs.alpha_exp)) < 1e-8

    def test_matches_normal_equations(self, small_model):
        rng = np.random.default_rng(3)
        alpha_id = rng.normal(size=small_model.k_id) * small_model.sigma_id
        pose = wide_pose(rng)
        target = rng.normal(size=2 * small_model.n_landmarks)
        reg = 0.37

        base = predicted_coords(small_model, alpha_id,
                                np.zeros(small_model.k_exp), pose)
        columns = [predicted_coords(small_model, alpha_id, unit, pose) - base
                   for unit in np.eye(small_model.k_exp)]
        design = np.stack(columns, axis=1)
        damping = reg * np.diag(1.0 / small_model.sigma_exp ** 2)
        expected = np.linalg.solve(design.T @ design + damping,
                                   design.T @ (target - base))

        got = solve_expression(small_model, alpha_id, pose,
                               LandmarkSet2D(target), reg_exp=reg)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_underdetermined_without_regularizer(self):
        model = tiny_wide_model(k_exp=9)
        pose = PoseParams(1.0, np.eye(3), np.zeros(3))
        landmarks = LandmarkSet2D(np.arange(8, dtype=np.float64))
        with pytest.raises(UnderdeterminedError):
            solve_expression(model, np.zeros(1), pose, landmarks)
        damped = solve_expression(model, np.zeros(1), pose, landmarks, reg_exp=1e-3)
        assert damped.shape == (9,) and np.all(np.isfinite(damped))

    def test_alpha_id_length_checked(self, small_model):
        pose = PoseParams(1.0, np.eye(3), np.zeros(3))
        landmarks = LandmarkSet2D(np.zeros(2 * small_model.n_landmarks))
        with pytest.raises(InvalidArgumentError):
            solve_expression(small_model, np.zeros(3), pose, landmarks)


class TestSolveIdentityShared:
    def test_recovers_from_single_image(self, small_model):
        rng = np.random.default_rng(5)
        coeffs = draw_coeffs(small_model, rng)
        pose = wide_pose(rng)
        landmarks = exact_landmarks(small_model, coeffs, pose)
        solution = solve_identity_shared(
            small_model, [(coeffs.alpha_exp, pose, landmarks)])
        assert np.max(np.abs(solution - coeffs.alpha_id)) < 1e-7

    def test_recovers_shared_identity_across_images(self, small_model):
        rng = np.random.default_rng(6)
        alpha_id = rng.normal(size=small_model.k_id) * small_model.sigma_id
        per_image = []
        for _ in range(5):
            alpha_exp = rng.normal(size=small_model.k_exp) * small_model.sigma_exp
            pose = wide_pose(rng)
            landmarks = exact_landmarks(small_model, CoeffPair(alpha_id, alpha_exp),
                                        pose)
            per_image.append((alpha_exp, pose, landmarks))
        solution = solve_identity_shared(small_model, per_image)
        assert np.max(np.abs(solution - alpha_id)) < 1e-7

    def test_mean_shape_gives_zero(self, small_model):
        rng = np.random.default_rng(7)
        zero = CoeffPair(np.zeros(small_model.k_id), np.zeros(small_model.k_exp))
        per_image = []
        for _ in range(2):
            pose = wide_pose(rng)
            per_image.append((zero.alpha_exp, pose,
                              exact_landmarks(small_model, zero, pose)))
        solution = solve_identity_shared(small_model, per_image)
        assert np.linalg.norm(solution) < 1e-8

    def test_matches_normal_equations(self, small_model):
        rng = np.random.default_rng(8)
        reg = 0.61
        per_image, blocks, rhs_parts = [], [], []
        for _ in range(3):
            alpha_exp = rng.normal(size=small_model.k_exp) * small_model.sigma_exp
            pose = wide_pose(rng)
            target = rng.normal(size=2 * small_model.n_landmarks)
            per_image.append((alpha_exp, pose, LandmarkSet2D(target)))
            base = predicted_coords(small_model, np.zeros(small_model.k_id),
                                    alpha_exp, pose)
            columns = [predicted_coords(small_model, unit, alpha_exp, pose) - base
                       for unit in np.eye(small_model.k_id)]
            blocks.append(np.stack(columns, axis=1))
            rhs_parts.append(target - base)
        design = np.vstack(blocks)
        rhs = np.concatenate(rhs_parts)
        damping = reg * np.diag(1.0 / small_model.sigma_id ** 2)
        expected = np.linalg.solve(design.T @ design + damping, design.T @ rhs)

        got = solve_identity_shared(small_model, per_image, reg_id=reg)
        assert np.max(np.abs(got - expected)) < 1e-8

    def test_underdetermined_without_regularizer(self):
        model = tiny_wide_model(k_id=9, k_exp=1)
        pose = PoseParams(1.0, np.eye(3), np.zeros(3))
        landmarks = LandmarkSet2D(np.arange(8, dtype=np.float64))
        with pytest.raises(UnderdeterminedError):
            solve_identity_shared(model, [(np.zeros(1), pose, landmarks)])
        # a second image supplies enough equations
        solution = solve_identity_shared(model, [(np.zeros(1), pose, landmarks),
                                                 (np.zeros(1), pose, landmarks)])
        assert solution.shape == (9,) and np.all(np.isfinite(solution))

    def test_empty_image_list_rejected(self, small_model):
        with pytest.raises(InvalidArgumentError):
            solve_identity_shared(small_model, [])


class TestObjective:
    def test_zero_on_exact_data(self, small_model):
        rng = np.random.default_rng(9)
        coeffs = draw_coeffs(small_model, rng)
        pose = wide_pose(rng)
        landmarks = exact_landmarks(small_model, coeffs, pose)
        value = objective(small_model, coeffs.alpha_id,
                          [(coeffs.alpha_exp, pose, landmarks)])
        assert value < 1e-20

    def test_constant_offset(self, small_model):
        rng = np.random.default_rng(10)
        coeffs = draw_coeffs(small_model, rng)
        pose = wide_pose(rng)
        landmarks = exact_landmarks(small_model, coeffs, pose)
        shifted = LandmarkSet2D(landmarks.coords
                                + np.tile([3.0, 4.0], small_model.n_landmarks))
        value = objective(small_model, coeffs.alpha_id,
                          [(coeffs.alpha_exp, pose, shifted)])
        assert abs(value - 25.0 * small_model.n_landmarks) < 1e-9

    def test_matches_brute_force(self, small_model):
        rng = np.random.default_rng(11)
        alpha_id = rng.normal(size=small_model.k_id) * small_model.sigma_id
        per_image, expected = [], 0.0
        for _ in range(3):
            alpha_exp = rng.normal(size=small_model.k_exp) * small_model.sigma_exp
            pose = wide_pose(rng)
            target = rng.normal(size=2 * small_model.n_landmarks)
            per_image.append((alpha_exp, pose, LandmarkSet2D(target)))
            coords = predicted_coords(small_model, alpha_id, alpha_exp, pose)
            for got, want in zip(coords, target):
                expected += (want - got) ** 2
        value = objective(small_model, alpha_id, per_image)
        assert abs(value - expected) < 1e-9 * max(expected, 1.0)

    def test_alpha_id_length_checked(self, small_model):
        with pytest.raises(InvalidArgumentError):
            objective(small_model, np.zeros(2), [])


# ---------------------------------------------------------------------------
# multi_image_fit


class TestMultiImageFit:
    def test_recovers_noiseless_truth(self, small_model):
        rng = np.random.default_rng(12)
        alpha_id = rng.normal(size=small_model.k_id) * small_model.sigma_id
        truth = []
        landmark_sets = []
        for _ in range(3):
            alpha_exp = rng.normal(size=small_model.k_exp) * small_model.sigma_exp
            pose = wide_pose(rng)
            truth.append((alpha_exp, pose))
            landmark_sets.append(exact_landmarks(
                small_model, CoeffPair(alpha_id, alpha_exp), pose))

        result = multi_image_fit(small_model, stack_sets(landmark_sets))
        assert result.converged
        assert result.iterations_used <= 10
        assert result.iterations_used == len(result.objective_trace)
        for earlier, later in zip(result.objective_trace,
                                  result.objective_trace[1:]):
            assert later <= earlier + 1e-9
        assert result.objective_trace[-1] < 1e-15
        assert np.max(np.abs(result.alpha_id - alpha_id)) < 1e-6
        for exp_got, scale_got, rotation_got, (exp_want, pose_want) in zip(
                result.alpha_exp, result.scale, result.rotation, truth, strict=True):
            assert np.max(np.abs(exp_got - exp_want)) < 1e-6
            assert abs(scale_got - pose_want.scale) < 1e-6
            assert np.max(np.abs(rotation_got - pose_want.rotation)) < 1e-6

    def test_mean_shape_fixed_point(self, small_model):
        rng = np.random.default_rng(13)
        zero = CoeffPair(np.zeros(small_model.k_id), np.zeros(small_model.k_exp))
        landmark_sets = [exact_landmarks(small_model, zero, wide_pose(rng))
                         for _ in range(2)]
        result = multi_image_fit(small_model, stack_sets(landmark_sets))
        assert result.converged
        assert np.linalg.norm(result.alpha_id) < 1e-9
        assert result.alpha_exp.shape == (2, small_model.k_exp)
        for alpha_exp in result.alpha_exp:
            assert np.linalg.norm(alpha_exp) < 1e-9

    def test_identity_invariant_to_image_order(self, small_model):
        rng = np.random.default_rng(14)
        alpha_id = rng.normal(size=small_model.k_id) * small_model.sigma_id
        landmark_sets = []
        for _ in range(4):
            alpha_exp = rng.normal(size=small_model.k_exp) * small_model.sigma_exp
            landmark_sets.append(exact_landmarks(
                small_model, CoeffPair(alpha_id, alpha_exp), wide_pose(rng)))
        forward = multi_image_fit(small_model, stack_sets(landmark_sets))
        backward = multi_image_fit(small_model, stack_sets(landmark_sets[::-1]))
        assert np.max(np.abs(forward.alpha_id - backward.alpha_id)) < 1e-8

    def test_landmark_scaling_moves_into_focal(self, small_model):
        rng = np.random.default_rng(15)
        coeffs = draw_coeffs(small_model, rng)
        pose = wide_pose(rng)
        landmarks = exact_landmarks(small_model, coeffs, pose)
        doubled = LandmarkSet2D(2.0 * landmarks.coords)

        base = multi_image_fit(small_model, stack_sets([landmarks]))
        scaled = multi_image_fit(small_model, stack_sets([doubled]))
        assert abs(scaled.scale[0] - 2.0 * base.scale[0]) < 1e-8
        assert np.max(np.abs(scaled.rotation[0] - base.rotation[0])) < 1e-8
        assert np.max(np.abs(scaled.alpha_id - base.alpha_id)) < 1e-7

    def test_noisy_fit_stays_monotone(self, small_model):
        rng = np.random.default_rng(16)
        alpha_id = rng.normal(size=small_model.k_id) * small_model.sigma_id
        landmark_sets = []
        for _ in range(3):
            alpha_exp = rng.normal(size=small_model.k_exp) * small_model.sigma_exp
            clean = exact_landmarks(small_model,
                                    CoeffPair(alpha_id, alpha_exp), wide_pose(rng))
            extent = clean.coords.max() - clean.coords.min()
            noisy = clean.coords + rng.normal(0.0, 0.01 * extent,
                                              size=clean.coords.size)
            landmark_sets.append(LandmarkSet2D(noisy))
        result = multi_image_fit(small_model, stack_sets(landmark_sets),
                                 FitConfig(reg_id=1e-3, reg_exp=1e-3))
        assert np.all(np.isfinite(result.alpha_id))
        for earlier, later in zip(result.objective_trace,
                                  result.objective_trace[1:]):
            assert later <= earlier + 1e-9

    def test_single_pass_budget_never_converges(self, small_model):
        rng = np.random.default_rng(17)
        coeffs = draw_coeffs(small_model, rng)
        landmarks = exact_landmarks(small_model, coeffs, wide_pose(rng))
        result = multi_image_fit(small_model, stack_sets([landmarks]),
                                 FitConfig(max_iterations=1))
        assert not result.converged
        assert result.iterations_used == 1
        assert len(result.objective_trace) == 1

    def test_empty_input_rejected(self, small_model):
        with pytest.raises(InvalidArgumentError):
            multi_image_fit(small_model, [])

    def test_wrong_landmark_count_rejected(self, small_model):
        with pytest.raises(InvalidArgumentError):
            multi_image_fit(small_model, stack_sets([LandmarkSet2D(np.zeros(8))]))


class TestFitInputChecks:
    """The landmark array is outside input: checked once per fit."""

    def test_one_dimensional_input_rejected(self, small_model):
        with pytest.raises(InvalidArgumentError, match=r"\(m, 2L\) array, got shape"):
            multi_image_fit(small_model, np.zeros(2 * small_model.n_landmarks))

    def test_zero_rows_rejected(self, small_model):
        with pytest.raises(InvalidArgumentError, match="at least one landmark set"):
            multi_image_fit(small_model, np.zeros((0, 2 * small_model.n_landmarks)))

    @pytest.mark.parametrize("delta", [-2, -1, 1, 2])
    def test_wrong_width_rejected(self, small_model, delta):
        width = 2 * small_model.n_landmarks + delta
        with pytest.raises(InvalidArgumentError,
                           match=f"{width} landmark coordinates per image given, "
                                 f"model has {small_model.n_landmarks} landmarks"):
            multi_image_fit(small_model, np.zeros((3, width)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_naming_the_image(self, small_model, bad):
        rng = np.random.default_rng(18)
        landmarks = rng.normal(size=(4, 2 * small_model.n_landmarks))
        landmarks[2, 5] = bad
        with pytest.raises(InvalidArgumentError,
                           match="image 2: landmark coordinates must be finite"):
            multi_image_fit(small_model, landmarks)

    def test_input_not_modified(self, small_model):
        rng = np.random.default_rng(19)
        coeffs = draw_coeffs(small_model, rng)
        landmarks = stack_sets([exact_landmarks(small_model, coeffs, wide_pose(rng))
                                for _ in range(2)])
        before = landmarks.copy()
        multi_image_fit(small_model, landmarks)
        assert np.array_equal(landmarks, before)


class TestPoseChecks:
    """`multi_image_fit` checks every estimated pose of every pass."""

    def fit_with_bad_pose(self, small_model, monkeypatch, part, value):
        rng = np.random.default_rng(20)
        alpha_id = rng.normal(size=small_model.k_id) * small_model.sigma_id
        landmarks = stack_sets([exact_landmarks(small_model, CoeffPair(
            alpha_id, rng.normal(size=small_model.k_exp) * small_model.sigma_exp),
            wide_pose(rng)) for _ in range(3)])
        estimate = fitting._estimate_poses
        calls = []

        def bad_in_pass_2(points, targets):
            poses = estimate(points, targets)
            calls.append(1)
            if len(calls) == 2:
                poses[part][1] = value
            return poses

        monkeypatch.setattr(fitting, "_estimate_poses", bad_in_pass_2)
        multi_image_fit(small_model, landmarks, FitConfig(max_iterations=5))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in det")
    @pytest.mark.parametrize("part, value, shown", [
        (1, np.eye(3) + 1e-6, "max |R^T R - I| 2.000e-06"),
        (1, np.diag([1.0, 1.0, -1.0]), "|det R - 1| 2.000e+00"),
        (1, np.full((3, 3), np.nan), "max |R^T R - I| nan"),
        (0, 0.0, "scale 0.0"),
        (0, -1.0, "scale -1.0"),
        (0, np.nan, "scale nan"),
        (0, np.inf, "scale inf"),
        (2, [0.0, np.inf, 0.0], "translation [0.0, inf, 0.0]"),
    ])
    def test_bad_pose_names_the_image_and_its_values(self, small_model, monkeypatch,
                                                     part, value, shown):
        with pytest.raises(InvalidArgumentError) as info:
            self.fit_with_bad_pose(small_model, monkeypatch, part, value)
        message = str(info.value)
        assert message.startswith("image 1: pose is not a finite positive scale, "
                                  "a proper rotation and a finite translation: ")
        assert shown in message

    def test_rotation_within_tolerance_accepted(self, small_model, monkeypatch):
        # 1e-12 off orthonormal is inside ROTATION_TOL; the fit runs on
        self.fit_with_bad_pose(small_model, monkeypatch, 1, np.eye(3) + 1e-12)


class TestFitConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(InvalidArgumentError):
            FitConfig(max_iterations=0)
        with pytest.raises(InvalidArgumentError):
            FitConfig(rel_tol=0.0)
        with pytest.raises(InvalidArgumentError):
            FitConfig(reg_id=-1.0)
        with pytest.raises(InvalidArgumentError):
            FitConfig(reg_exp=float("nan"))


@st.composite
def fit_inputs(draw):
    """A random model and (m, 2L) landmarks of one subject, noisy or exact."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k_id, k_exp = 4 * draw(st.integers(2, 20)), draw(st.integers(1, 10)), draw(st.integers(1, 8))
    model = random_model(rng, n, min(4 * draw(st.integers(1, 6)), n), k_id, k_exp)
    alpha_id = rng.normal(size=k_id) * model.sigma_id
    noise = draw(st.sampled_from([0.0, 1e-3, 3e-2]))
    return model, stack_sets([
        render_landmarks(model, CoeffPair(alpha_id, rng.normal(size=k_exp) * model.sigma_exp),
                         wide_pose(rng), noise, rng)
        for _ in range(draw(st.integers(1, 4)))])


class TestFitRecord:
    """The fit's record: the fit checks every sub-step, so what it returns
    needs no check of its own."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fit_inputs(), st.sampled_from([0.0, 1e-3, 0.5]), st.sampled_from([0.0, 1e-3, 0.5]))
    def test_trace_is_finite_and_non_increasing(self, inputs, reg_id, reg_exp):
        try:
            result = multi_image_fit(*inputs, FitConfig(reg_id=reg_id, reg_exp=reg_exp))
        except MorphfitError:
            return
        trace = result.objective_trace
        assert type(trace) is list and all(type(value) is float for value in trace)
        assert all(np.isfinite(trace))
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + MONOTONE_SLACK

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fit_inputs(), st.integers(1, 5), st.sampled_from([1e-12, 1e-6, 1e-2]))
    def test_iterations_used_is_the_trace_length(self, inputs, max_iterations, rel_tol):
        config = FitConfig(max_iterations=max_iterations, rel_tol=rel_tol, reg_id=1e-3,
                           reg_exp=1e-3)
        result = multi_image_fit(*inputs, config)
        assert_plain_fields(result, ("iterations_used", "converged"))
        assert result.iterations_used == len(result.objective_trace) <= max_iterations
        # convergence compares two passes; without it the fit ran them all
        assert (result.iterations_used >= 2 if result.converged
                else result.iterations_used == max_iterations)


# ---------------------------------------------------------------------------
# Slow oracles: the fitter as it was before it read only the landmark rows.
# It composes every dense shape and selects its landmarks, estimates one pose
# at a time and runs the two solvers as separate functions.

def estimate_pose_oracle(points3d: np.ndarray, landmarks2d: LandmarkSet2D) -> PoseParams:
    pts = np.asarray(points3d, dtype=np.float64)
    u = landmarks2d.points
    centered_sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
    if centered_sv[1] <= 1e-9 * max(centered_sv[0], np.finfo(float).tiny):
        raise DegenerateGeometryError("3D points are collinear or coincident")
    design = np.hstack([pts, np.ones((pts.shape[0], 1))])
    affine, *_ = np.linalg.lstsq(design, u, rcond=None)
    rows = affine[:3].T
    f = (float(np.linalg.norm(rows[0])) + float(np.linalg.norm(rows[1]))) / 2.0
    if f <= 1e-12:
        raise DegenerateGeometryError("projected landmarks carry no scale")
    uu, _, vt = np.linalg.svd(rows, full_matrices=False)
    ortho = uu @ vt
    rotation = np.vstack([ortho, np.cross(ortho[0], ortho[1])])
    proj = f * rotation[:2]
    residual_mean = (u - pts @ proj.T).mean(axis=0)
    translation = np.linalg.pinv(proj) @ residual_mean
    return PoseParams(f, rotation, translation)


def vertex_major_landmarks(model: MorphableModel):
    rows = coord_rows(model.landmark_indices)
    count = model.n_landmarks
    return (model.mean[rows].reshape(count, 3),
            model.basis_id[rows].reshape(count, 3, model.k_id),
            model.basis_exp[rows].reshape(count, 3, model.k_exp))


def solve_expression_oracle(model, alpha_id, pose, landmarks, reg_exp):
    if reg_exp == 0.0 and model.k_exp > 2 * model.n_landmarks:
        raise UnderdeterminedError("k_exp exceeds 2L with no regularizer")
    mean_u, basis_id_u, basis_exp_u = vertex_major_landmarks(model)
    proj = pose.scale * pose.rotation[:2]
    base = (mean_u + basis_id_u @ alpha_id + pose.translation) @ proj.T
    system = np.einsum("rc,lck->lrk", proj, basis_exp_u).reshape(-1, model.k_exp)
    rhs = (landmarks.points - base).ravel()
    if reg_exp > 0.0:
        system = np.vstack([system, np.sqrt(reg_exp) * np.diag(1.0 / model.sigma_exp)])
        rhs = np.concatenate([rhs, np.zeros(model.k_exp)])
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return solution


def solve_identity_shared_oracle(model, per_image, reg_id):
    if reg_id == 0.0 and 2 * model.n_landmarks * len(per_image) < model.k_id:
        raise UnderdeterminedError("k_id exceeds the equations with no regularizer")
    mean_u, basis_id_u, basis_exp_u = vertex_major_landmarks(model)
    blocks, rhs_parts = [], []
    for alpha_exp, pose, landmarks in per_image:
        proj = pose.scale * pose.rotation[:2]
        base = (mean_u + basis_exp_u @ alpha_exp + pose.translation) @ proj.T
        blocks.append(np.einsum("rc,lck->lrk", proj, basis_id_u).reshape(-1, model.k_id))
        rhs_parts.append((landmarks.points - base).ravel())
    system = np.vstack(blocks)
    rhs = np.concatenate(rhs_parts)
    if reg_id > 0.0:
        system = np.vstack([system, np.sqrt(reg_id) * np.diag(1.0 / model.sigma_id)])
        rhs = np.concatenate([rhs, np.zeros(model.k_id)])
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return solution


def composed_landmarks(model: MorphableModel, alpha_id, alpha_exp) -> np.ndarray:
    shape = compose_shape(model, CoeffPair(alpha_id, alpha_exp))
    return select_landmarks(shape, model.landmark_indices)


def image_term_oracle(points, pose, landmarks) -> float:
    diff = landmarks.coords - project_landmarks(points, pose).coords
    return float(diff @ diff)


def multi_image_fit_oracle(model, landmark_sets, config=FitConfig()) -> FitResult:
    n_images = len(landmark_sets)
    alpha_id = np.zeros(model.k_id)
    alpha_exps = [np.zeros(model.k_exp) for _ in range(n_images)]
    poses = [None] * n_images
    energy = sum(float(lm.coords @ lm.coords) for lm in landmark_sets)
    floor = np.finfo(float).eps * max(energy, 1.0)

    def regularized(current_alpha_id, current_exps, current_poses) -> float:
        value = 0.0
        for j in range(n_images):
            value += image_term_oracle(
                composed_landmarks(model, current_alpha_id, current_exps[j]),
                current_poses[j], landmark_sets[j])
        if config.reg_id > 0.0:
            scaled = current_alpha_id / model.sigma_id
            value += config.reg_id * float(scaled @ scaled)
        if config.reg_exp > 0.0:
            for alpha_exp in current_exps:
                scaled = alpha_exp / model.sigma_exp
                value += config.reg_exp * float(scaled @ scaled)
        return value

    def check_step(before, after) -> float:
        if not np.isfinite(after):
            raise NumericalFailureError("objective became non-finite")
        if before is not None and after > before + MONOTONE_SLACK:
            raise NumericalFailureError("objective increased")
        return after

    current, trace, converged, iterations = None, [], False, 0
    for iteration in range(1, config.max_iterations + 1):
        iterations = iteration
        for j in range(n_images):
            pts = composed_landmarks(model, alpha_id, alpha_exps[j])
            candidate = estimate_pose_oracle(pts, landmark_sets[j])
            if poses[j] is None or (image_term_oracle(pts, candidate, landmark_sets[j])
                                    <= image_term_oracle(pts, poses[j], landmark_sets[j])):
                poses[j] = candidate
        current = check_step(current, regularized(alpha_id, alpha_exps, poses))
        alpha_exps = [solve_expression_oracle(model, alpha_id, poses[j], landmark_sets[j],
                                              config.reg_exp)
                      for j in range(n_images)]
        current = check_step(current, regularized(alpha_id, alpha_exps, poses))
        alpha_id = solve_identity_shared_oracle(
            model, [(alpha_exps[j], poses[j], landmark_sets[j]) for j in range(n_images)],
            config.reg_id)
        current = check_step(current, regularized(alpha_id, alpha_exps, poses))
        trace.append(current)
        if len(trace) >= 2 and abs(trace[-2] - trace[-1]) <= config.rel_tol * max(
                trace[-2], floor):
            converged = True
            break
    return FitResult(alpha_id, np.array(alpha_exps), np.array([p.scale for p in poses]),
                     np.array([p.rotation for p in poses]),
                     np.array([p.translation for p in poses]), trace, iterations,
                     converged)


def random_model(rng: np.random.Generator, n: int, n_landmarks: int,
                 k_id: int, k_exp: int) -> MorphableModel:
    return MorphableModel(
        mean=rng.normal(size=3 * n),
        basis_id=rng.normal(size=(3 * n, k_id)) * 0.1,
        basis_exp=rng.normal(size=(3 * n, k_exp)) * 0.1,
        sigma_id=rng.uniform(0.5, 2.0, size=k_id),
        sigma_exp=rng.uniform(0.5, 2.0, size=k_exp),
        landmark_indices=rng.choice(n, size=n_landmarks, replace=False),
        nose_tip_index=0)


# The fit solves through a stacked SVD where the oracle calls lstsq once per
# system, so the two agree to rounding, not bit for bit. Over 1,300 random
# draws of `test_fit_matches_the_oracle`'s inputs the largest difference of
# a coefficient or pose was 4.2e-13 of its largest magnitude (or of 1), and
# of an objective 2.7e-12 of its value (floored at 1e-6 of the landmark
# energy, for fits at the rounding floor); FIT_RTOL leaves >100x headroom.
FIT_RTOL = 1e-9


def close_fit(got: FitResult, want: FitResult, landmarks: np.ndarray) -> None:
    assert (got.iterations_used, got.converged) == (want.iterations_used,
                                                    want.converged)
    floor = 1e-6 * float(np.sum(np.square(landmarks)))
    trace_got, trace_want = np.array(got.objective_trace), np.array(want.objective_trace)
    assert np.all(np.abs(trace_got - trace_want)
                  <= FIT_RTOL * np.maximum(np.abs(trace_want), floor))
    for name in ("alpha_id", "alpha_exp", "scale", "rotation", "translation"):
        have, expect = getattr(got, name), getattr(want, name)
        assert have.shape == expect.shape, name
        assert np.max(np.abs(have - expect)) <= FIT_RTOL * max(np.max(np.abs(expect)),
                                                               1.0), name


class TestLandmarkRowsMatchComposeThenSelect:
    """The fast fit against the slow oracle, within FIT_RTOL.

    The fit reads the landmark rows only, computes every image's points in
    one product, and solves each sub-step's systems as one stack; the
    oracle composes every dense shape and solves one system at a time with
    lstsq. The properties are derandomized: a near-tie in the convergence
    test or in a pose-keep comparison could go either way under rounding,
    and a fixed set of draws keeps tier-1 from flaking on one.
    """

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n4=st.integers(2, 40),
           l4=st.integers(1, 6), k_id=st.integers(1, 10), k_exp=st.integers(1, 8),
           images=st.integers(1, 4), noise=st.sampled_from([0.0, 1e-3, 3e-2]),
           reg_id=st.sampled_from([0.0, 1e-3, 0.5]),
           reg_exp=st.sampled_from([0.0, 1e-3, 0.5]))
    def test_fit_matches_the_oracle(self, seed, n4, l4, k_id, k_exp, images, noise,
                                    reg_id, reg_exp):
        rng = np.random.default_rng(seed)
        model = random_model(rng, 4 * n4, min(4 * l4, 4 * n4), k_id, k_exp)
        alpha_id = rng.normal(size=k_id) * model.sigma_id
        landmark_sets = [
            render_landmarks(model, CoeffPair(alpha_id, rng.normal(size=k_exp)
                                              * model.sigma_exp),
                             wide_pose(rng), noise, rng)
            for _ in range(images)]
        config = FitConfig(reg_id=reg_id, reg_exp=reg_exp)
        try:
            want = multi_image_fit_oracle(model, landmark_sets, config)
        except MorphfitError as exc:
            with pytest.raises(type(exc)):
                multi_image_fit(model, stack_sets(landmark_sets), config)
            return
        close_fit(multi_image_fit(model, stack_sets(landmark_sets), config), want,
                  stack_sets(landmark_sets))

    def test_default_desk_fit_matches_the_oracle(self, default_dataset):
        rows = default_dataset.labels == 3
        landmark_sets = list(map(LandmarkSet2D, default_dataset.landmarks[rows]))
        config = FitConfig(reg_id=1e-3, reg_exp=1e-3)
        close_fit(multi_image_fit(default_dataset.model, default_dataset.landmarks[rows],
                                  config),
                  multi_image_fit_oracle(default_dataset.model, landmark_sets, config),
                  default_dataset.landmarks[rows])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 90),
           landmarks=st.integers(4, 40), k_id=st.integers(1, 12),
           k_exp=st.integers(1, 8))
    def test_landmark_points_at_any_size(self, seed, n, landmarks, k_id, k_exp):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n, min(landmarks, n), k_id, k_exp)
        alpha_id, alpha_exp = rng.normal(size=k_id), rng.normal(size=k_exp)
        flat = fitting._landmark_components(model)
        got = fitting._landmark_points(flat, alpha_id, alpha_exp[None])[0]
        want = composed_landmarks(model, alpha_id, alpha_exp)
        # summed in another order: a few ulp of the largest term
        terms = np.abs(flat[0]) + np.abs(flat[1]) @ np.abs(alpha_id) \
            + np.abs(flat[2]) @ np.abs(alpha_exp)
        tol = 4 * (k_id + k_exp + 1) * np.finfo(float).eps * terms.reshape(-1, 3)
        assert np.all(np.abs(got - want) <= tol)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), images=st.integers(1, 8),
           points=st.integers(4, 80), spread=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_stacked_poses_are_the_one_image_poses(self, seed, images, points, spread):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(images, points, 3)) * spread
        targets = rng.normal(size=(images, points, 2))
        scale, rotation, translation = fitting._estimate_poses(pts, targets)
        for j in range(images):
            landmarks = LandmarkSet2D(targets[j])
            # a stack of one: LAPACK and BLAS take each matrix on its own
            single = estimate_pose(pts[j], landmarks)
            assert scale[j] == single.scale
            assert np.array_equal(rotation[j], single.rotation)
            assert np.array_equal(translation[j], single.translation)
            # the per-image lstsq oracle, to rounding
            oracle = estimate_pose_oracle(pts[j], landmarks)
            assert abs(scale[j] - oracle.scale) <= FIT_RTOL * oracle.scale
            assert np.max(np.abs(rotation[j] - oracle.rotation)) <= FIT_RTOL
            assert np.max(np.abs(translation[j] - oracle.translation)) <= FIT_RTOL * max(
                np.max(np.abs(oracle.translation)), 1.0)


@st.composite
def least_squares_stacks(draw):
    """1-6 systems of one shape, tall or wide, made rank deficient by a
    repeated or a zero column or not, with or without the fit's
    sqrt(reg) * diag(1 / sigma) damping rows, and 1-2 right-hand sides."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, p, k = draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(1, 8))
    a = rng.normal(size=(m, p, k)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    defect = draw(st.sampled_from(["none", "repeated", "zero"]))
    if defect == "repeated" and k >= 2:
        a[:, :, -1] = a[:, :, 0]
    elif defect == "zero":
        a[:, :, draw(st.integers(0, k - 1))] = 0.0
    reg = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    if reg > 0.0:
        damping = np.sqrt(reg) * np.diag(1.0 / rng.uniform(0.5, 2.0, size=k))
        a = np.concatenate([a, np.broadcast_to(damping, (m, k, k))], axis=1)
    return a, rng.normal(size=(m, a.shape[1], draw(st.integers(1, 2))))


class TestStackedLeastSquares:
    # Over 20,000 random draws of these stacks the largest difference from
    # lstsq was 2.2e-11 of the largest |x| (a wide system of condition
    # 1.2e5); the bound leaves 45x headroom.
    RTOL = 1e-9

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(least_squares_stacks())
    def test_each_system_is_its_lstsq_solution(self, case):
        a, b = case
        got = fitting._lstsq_stack(a, b)
        assert got.shape == (a.shape[0], a.shape[2], b.shape[2])
        for j in range(a.shape[0]):
            want = np.linalg.lstsq(a[j], b[j], rcond=None)[0]
            assert np.max(np.abs(got[j] - want)) <= self.RTOL * np.max(np.abs(want))

    def test_zero_system_gets_zero(self):
        # every singular value is 0, so none is inverted
        got = fitting._lstsq_stack(np.zeros((2, 3, 2)), np.ones((2, 3, 1)))
        assert np.array_equal(got, np.zeros((2, 2, 1)))


class TestMonotonicityFailureContext:
    def test_names_the_image_whose_data_term_rose_most(self, small_model,
                                                       monkeypatch):
        rng = np.random.default_rng(21)
        alpha_id = rng.normal(size=small_model.k_id) * small_model.sigma_id
        landmark_sets = [exact_landmarks(small_model,
                                         CoeffPair(alpha_id, rng.normal(
                                             size=small_model.k_exp)
                                             * small_model.sigma_exp),
                                         wide_pose(rng))
                         for _ in range(3)]
        solve = fitting._lstsq_stack
        calls = []

        def worse_for_image_1(a, b):
            solution = solve(a, b)
            calls.append(a.shape)
            if len(calls) == 2:  # pass 1: the pose stack, then the residual stack
                assert a.shape[0] == 3 and a.shape[2] == small_model.k_exp
                solution[1] += 5.0
            return solution

        monkeypatch.setattr(fitting, "_lstsq_stack", worse_for_image_1)
        with pytest.raises(NumericalFailureError) as info:
            multi_image_fit(small_model, stack_sets(landmark_sets))
        message = str(info.value)
        match = re.fullmatch(
            r"objective increased after residual solve in pass 1: (\S+) -> (\S+); "
            r"image 1's data term rose most: (\S+) -> (\S+)", message)
        assert match, message
        total_before, total_after, before, after = map(float, match.groups())
        assert total_after > total_before + MONOTONE_SLACK
        assert after > before
        # image 1's data term at the first pass's pose, before and after,
        # computed one image at a time
        monkeypatch.setattr(fitting, "_lstsq_stack", solve)
        flat = fitting._landmark_components(small_model)
        zero_id, zero_exp = np.zeros(small_model.k_id), np.zeros((1, small_model.k_exp))
        points = fitting._landmark_points(flat, zero_id, zero_exp)[0]
        pose = estimate_pose(points, landmark_sets[1])
        bad_exp = solve_expression(small_model, zero_id, pose, landmark_sets[1]) + 5.0
        want_before = image_term_oracle(points, pose, landmark_sets[1])
        want_after = image_term_oracle(
            fitting._landmark_points(flat, zero_id, bad_exp[None])[0], pose,
            landmark_sets[1])
        assert abs(before - want_before) <= FIT_RTOL * want_before
        assert abs(after - want_after) <= FIT_RTOL * want_after
