"""Core geometry: composition, projection, alignment, cropping, shape error."""

import numpy as np
import pytest

from morphfit.errors import DegenerateGeometryError, InvalidArgumentError
from morphfit.geometry import MorphableModel, rotation_zyx

from oracles import (CoeffPair, PoseParams, Shape, SimilarityTransform,
                     apply_transform, compose_shape, crop_indices, procrustes_align,
                     project_landmarks, select_landmarks)
from conftest import rmse


def identity_pose(scale=1.0):
    return PoseParams(scale=scale, rotation=np.eye(3), translation=np.zeros(3))


def random_rotation(rng):
    return rotation_zyx(rng.uniform(-np.pi, np.pi),
                        rng.uniform(-1.2, 1.2),
                        rng.uniform(-np.pi, np.pi))


def random_shape(rng, n=12):
    return Shape(rng.normal(size=3 * n))


# ---------------------------------------------------------------- types

def test_shape_rejects_too_few_vertices():
    with pytest.raises(InvalidArgumentError):
        Shape(np.zeros(9))  # 3 vertices


def test_shape_rejects_ragged_length():
    with pytest.raises(InvalidArgumentError):
        Shape(np.zeros(13))


def test_pose_rejects_improper_rotation():
    skewed = np.eye(3)
    skewed = skewed + 0.01
    with pytest.raises(InvalidArgumentError):
        PoseParams(scale=1.0, rotation=skewed, translation=np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(InvalidArgumentError):
        PoseParams(scale=1.0, rotation=reflection, translation=np.zeros(3))


def test_pose_rejects_nonpositive_scale():
    with pytest.raises(InvalidArgumentError):
        PoseParams(scale=0.0, rotation=np.eye(3), translation=np.zeros(3))


def model_with_mean(mean) -> MorphableModel:
    size = np.size(mean)
    return MorphableModel(mean=mean, basis_id=np.ones((size, 1)),
                          basis_exp=np.ones((size, 1)), sigma_id=np.ones(1),
                          sigma_exp=np.ones(1), landmark_indices=np.arange(4),
                          nose_tip_index=0)


def test_model_mean_is_a_read_only_copy():
    coords = np.arange(15, dtype=np.float64)
    model = model_with_mean(coords)
    assert model.mean.shape == (15,) and model.n == 5
    assert np.array_equal(model.mean, coords)
    assert not model.mean.flags.writeable and not np.shares_memory(model.mean, coords)


@pytest.mark.parametrize("mean, message", [
    (np.zeros(13), "mean length 13 is not a multiple of 3"),
    (np.zeros(9), "mean needs at least 4 vertices, got 3"),
    (np.r_[np.zeros(14), np.nan], "mean must be finite"),
    (np.r_[np.zeros(14), np.inf], "mean must be finite"),
])
def test_model_mean_checked(mean, message):
    with pytest.raises(InvalidArgumentError, match=message):
        model_with_mean(mean)


def test_rotation_zyx_is_proper():
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = random_rotation(rng)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


# ---------------------------------------------------------------- compose

def test_compose_zero_coeffs_returns_mean_exactly(small_model):
    out = compose_shape(small_model, CoeffPair(np.zeros(small_model.k_id),
                                               np.zeros(small_model.k_exp)))
    assert np.array_equal(out.coords, small_model.mean)


def test_compose_unit_coeff_adds_basis_column(small_model):
    k = 2
    e_k = np.zeros(small_model.k_id)
    e_k[k] = 1.0
    out = compose_shape(small_model, CoeffPair(e_k, np.zeros(small_model.k_exp)))
    expected = small_model.mean + small_model.basis_id[:, k]
    assert np.allclose(out.coords, expected, rtol=0, atol=1e-15)


def test_compose_matches_naive_triple_loop(small_model):
    rng = np.random.default_rng(7)
    a_id = rng.normal(size=small_model.k_id)
    a_exp = rng.normal(size=small_model.k_exp)
    expected = np.array(small_model.mean)
    for i in range(expected.size):
        for k in range(a_id.size):
            expected[i] += small_model.basis_id[i, k] * a_id[k]
        for k in range(a_exp.size):
            expected[i] += small_model.basis_exp[i, k] * a_exp[k]
    out = compose_shape(small_model, CoeffPair(a_id, a_exp))
    assert np.allclose(out.coords, expected, rtol=0, atol=1e-12)


def test_compose_rejects_wrong_coeff_width(small_model):
    with pytest.raises(InvalidArgumentError):
        compose_shape(small_model, CoeffPair(np.zeros(small_model.k_id + 1),
                                             np.zeros(small_model.k_exp)))


def test_compose_is_affine_in_coefficients(small_model):
    rng = np.random.default_rng(8)
    alpha = rng.normal(size=small_model.k_id)
    beta = rng.normal(size=small_model.k_id)
    a, b = 0.7, -1.3
    zero_exp = np.zeros(small_model.k_exp)
    mean = small_model.mean

    def delta(coeff):
        return compose_shape(small_model, CoeffPair(coeff, zero_exp)).coords - mean

    combined = delta(a * alpha + b * beta)
    assert np.allclose(combined, a * delta(alpha) + b * delta(beta), atol=1e-12)


# ---------------------------------------------------------------- landmarks

def test_select_first_vertex(small_model):
    out = select_landmarks(Shape(small_model.mean), np.array([0]))
    assert np.array_equal(out[0], small_model.mean.reshape(-1, 3)[0])


def test_select_identity_selection(small_model):
    out = select_landmarks(Shape(small_model.mean), np.arange(small_model.n))
    assert np.array_equal(out, small_model.mean.reshape(-1, 3))


def test_select_random_subset_gather_oracle(small_model):
    rng = np.random.default_rng(11)
    idx = rng.choice(small_model.n, size=25, replace=False)
    out = select_landmarks(Shape(small_model.mean), idx)
    for row, i in enumerate(idx):
        assert np.array_equal(out[row], small_model.mean.reshape(-1, 3)[i])


def test_select_rejects_out_of_range(small_model):
    with pytest.raises(InvalidArgumentError):
        select_landmarks(Shape(small_model.mean), np.array([small_model.n]))


def test_project_orthographic_drops_z():
    out = project_landmarks(np.array([[3.0, -2.0, 7.0]]), identity_pose())
    assert np.allclose(out.points, [[3.0, -2.0]], atol=0)


def test_project_scale_and_translation():
    pose = PoseParams(scale=2.0, rotation=np.eye(3),
                      translation=np.array([1.0, 1.0, 0.0]))
    out = project_landmarks(np.array([[0.0, 0.0, 5.0]]), pose)
    assert np.allclose(out.points, [[2.0, 2.0]], atol=0)


def test_project_matches_explicit_matrix_oracle():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(9, 3))
    pose = PoseParams(scale=rng.uniform(0.5, 2.0), rotation=random_rotation(rng),
                      translation=rng.normal(size=3))
    out = project_landmarks(pts, pose).points
    r, f, t = pose.rotation, pose.scale, pose.translation
    for i, p in enumerate(pts):
        q = p + t
        u = f * (r[0, 0] * q[0] + r[0, 1] * q[1] + r[0, 2] * q[2])
        v = f * (r[1, 0] * q[0] + r[1, 1] * q[1] + r[1, 2] * q[2])
        assert abs(out[i, 0] - u) < 1e-12
        assert abs(out[i, 1] - v) < 1e-12


def test_project_commutes_with_decomposition():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(7, 3))
    pose = PoseParams(scale=1.7, rotation=random_rotation(rng),
                      translation=rng.normal(size=3))
    direct = project_landmarks(pts, pose)
    prerotated = (pts + pose.translation) @ pose.rotation.T
    staged = project_landmarks(prerotated, identity_pose(scale=pose.scale))
    assert np.allclose(direct.coords, staged.coords, atol=1e-12)


# ---------------------------------------------------------------- procrustes

def test_procrustes_self_alignment():
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(10, 3))
    xf = procrustes_align(pts, pts)
    assert abs(xf.scale - 1.0) < 1e-12
    assert np.allclose(xf.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(xf.translation, 0.0, atol=1e-12)


def test_procrustes_recovers_known_transform():
    rng = np.random.default_rng(15)
    src = rng.normal(size=(10, 3))
    r_true = random_rotation(rng)
    t_true = rng.normal(size=3)
    tgt = 2.0 * src @ r_true.T + t_true
    xf = procrustes_align(src, tgt)
    assert abs(xf.scale - 2.0) < 1e-9
    assert np.allclose(xf.rotation, r_true, atol=1e-9)
    assert np.allclose(xf.translation, t_true, atol=1e-9)


def test_procrustes_never_returns_a_reflection():
    rng = np.random.default_rng(16)
    src = rng.normal(size=(12, 3))
    mirrored = src * np.array([-1.0, 1.0, 1.0])
    xf = procrustes_align(src, mirrored)
    assert np.linalg.det(xf.rotation) > 0.0
    residual = np.linalg.norm(xf.scale * src @ xf.rotation.T + xf.translation - mirrored)
    assert residual > 1e-3


def test_procrustes_rejects_coincident_points():
    pts = np.ones((6, 3))
    with pytest.raises(DegenerateGeometryError):
        procrustes_align(pts, np.random.default_rng(0).normal(size=(6, 3)))


def test_procrustes_rejects_collinear_points():
    line = np.outer(np.linspace(0.0, 1.0, 8), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateGeometryError):
        procrustes_align(line, np.random.default_rng(1).normal(size=(8, 3)))


def test_procrustes_rejects_too_few_points():
    rng = np.random.default_rng(2)
    with pytest.raises(InvalidArgumentError):
        procrustes_align(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))


def test_procrustes_residual_not_worse_than_unaligned():
    rng = np.random.default_rng(17)
    src = rng.normal(size=(15, 3))
    tgt = rng.normal(size=(15, 3))
    xf = procrustes_align(src, tgt)
    aligned = xf.scale * src @ xf.rotation.T + xf.translation
    assert np.linalg.norm(aligned - tgt) <= np.linalg.norm(src - tgt) + 1e-12


def test_procrustes_realignment_is_identity():
    rng = np.random.default_rng(18)
    src = rng.normal(size=(15, 3))
    tgt = 1.4 * src @ random_rotation(rng).T + rng.normal(size=3)
    tgt = tgt + rng.normal(scale=1e-3, size=tgt.shape)
    xf = procrustes_align(src, tgt)
    aligned = xf.scale * src @ xf.rotation.T + xf.translation
    again = procrustes_align(aligned, tgt)
    assert abs(again.scale - 1.0) < 1e-9
    assert np.allclose(again.rotation, np.eye(3), atol=1e-9)
    assert np.allclose(again.translation, 0.0, atol=1e-9)


# ---------------------------------------------------------------- transforms

def test_apply_identity_transform():
    rng = np.random.default_rng(19)
    shape = random_shape(rng)
    xf = SimilarityTransform(1.0, np.eye(3), np.zeros(3))
    assert np.array_equal(apply_transform(shape, xf).coords, shape.coords)


def test_apply_pure_translation():
    rng = np.random.default_rng(20)
    shape = random_shape(rng)
    t = np.array([0.5, -1.0, 2.0])
    out = apply_transform(shape, SimilarityTransform(1.0, np.eye(3), t))
    assert np.allclose(out.points, shape.points + t, atol=1e-15)


def test_apply_transform_inverse_roundtrip():
    rng = np.random.default_rng(21)
    shape = random_shape(rng)
    xf = SimilarityTransform(rng.uniform(0.5, 2.0), random_rotation(rng),
                             rng.normal(size=3))
    # analytic inverse: scale 1/s, rotation R^T, translation -R^T t / s
    inverse = SimilarityTransform(1.0 / xf.scale, xf.rotation.T,
                                  -(xf.rotation.T @ xf.translation) / xf.scale)
    back = apply_transform(apply_transform(shape, xf), inverse)
    assert np.allclose(back.coords, shape.coords, atol=1e-10)


# ---------------------------------------------------------------- crop

def test_crop_huge_radius_returns_everything():
    rng = np.random.default_rng(22)
    shape = random_shape(rng, n=30)
    diameter = np.linalg.norm(shape.points.max(0) - shape.points.min(0))
    assert np.array_equal(crop_indices(shape.points, 3, diameter + 1.0), np.arange(30))


def test_crop_radius_zero_keeps_only_center():
    rng = np.random.default_rng(23)
    shape = random_shape(rng, n=20)
    assert np.array_equal(crop_indices(shape.points, 11, 0.0), [11])


def test_crop_membership_matches_distance_scan():
    rng = np.random.default_rng(24)
    shape = random_shape(rng, n=40)
    center, radius = 7, 1.2
    got = crop_indices(shape.points, center, radius)
    expected = [i for i in range(shape.n)
                if np.linalg.norm(shape.points[i] - shape.points[center]) <= radius]
    assert np.array_equal(got, expected)
    assert center in got


def test_crop_rejects_bad_center():
    rng = np.random.default_rng(25)
    shape = random_shape(rng)
    with pytest.raises(InvalidArgumentError):
        crop_indices(shape.points, shape.n, 1.0)


def test_crop_invariant_under_rigid_motion():
    rng = np.random.default_rng(26)
    shape = random_shape(rng, n=35)
    moved = apply_transform(shape, SimilarityTransform(1.0, random_rotation(rng),
                                                       rng.normal(size=3)))
    assert np.array_equal(crop_indices(shape.points, 5, 1.5),
                          crop_indices(moved.points, 5, 1.5))


# ---------------------------------------------------------------- rmse

def test_rmse_identical_pairs_is_zero():
    rng = np.random.default_rng(27)
    shape = random_shape(rng)
    assert rmse([(shape, shape)], np.arange(shape.n)) == 0.0


def test_rmse_single_vertex_offset_is_five_over_count():
    rng = np.random.default_rng(28)
    gt = random_shape(rng, n=10)
    coords = np.array(gt.coords)
    coords[3 * 4: 3 * 4 + 3] += np.array([3.0, 4.0, 0.0])
    predicted = Shape(coords)
    value = rmse([(gt, predicted)], np.arange(10))
    assert abs(value - 5.0 / 10.0) < 1e-15


def test_rmse_matches_direct_summation():
    rng = np.random.default_rng(29)
    indices = np.arange(14)
    pairs = [(random_shape(rng, n=14), random_shape(rng, n=14)) for _ in range(6)]
    got = rmse(pairs, indices)
    total = 0.0
    for gt, pred in pairs:
        sq = 0.0
        for i in indices:
            d = gt.points[i] - pred.points[i]
            sq += d[0] ** 2 + d[1] ** 2 + d[2] ** 2
        total += np.sqrt(sq) / indices.size
    assert abs(got - total / len(pairs)) < 1e-12


def test_rmse_rejects_empty_and_mismatched():
    rng = np.random.default_rng(30)
    with pytest.raises(InvalidArgumentError):
        rmse([], np.arange(4))
    with pytest.raises(InvalidArgumentError):
        rmse([(random_shape(rng, n=10), random_shape(rng, n=12))], np.arange(10))


def test_rmse_scales_linearly():
    rng = np.random.default_rng(31)
    gt = random_shape(rng, n=12)
    direction = rng.normal(size=gt.coords.size)
    idx = np.arange(12)
    base = rmse([(gt, Shape(gt.coords + direction))], idx)
    scaled = rmse([(gt, Shape(gt.coords + 3.0 * direction))], idx)
    assert base > 0.0
    assert abs(scaled - 3.0 * base) < 1e-12
