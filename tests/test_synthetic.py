"""Tests for synthetic model generation, sampling, rendering, and datasets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from morphfit.errors import InvalidArgumentError, require
from morphfit.geometry import MorphableModel, coord_rows, rotation_zyx
from morphfit.synthetic import (
    COLUMNS,
    Dataset,
    DatasetSpec,
    PoseRanges,
    SyntheticModelSpec,
    _RENDER_CHUNK,
    _compose_rows,
    _dilate_rows,
    build_dataset,
    generate_model,
    render_depths,
    sample_instance,
    sample_subject,
    split_indices,
)

from oracles import (CoeffPair, LandmarkSet2D, PoseParams, Shape,
                     build_dataset_columns, compose_shape, dilate_max,
                     project_landmarks, rasterize_depth, render_landmarks,
                     select_landmarks)
from conftest import WIDE_RANGES, row_coeffs, row_pose


def flat_square_model(z: float = 0.0, extra_vertex: tuple | None = None) -> MorphableModel:
    """Hand-built model: a unit square at constant depth z, zero bases."""
    verts = [(0.0, 0.0, z), (1.0, 0.0, z), (0.0, 1.0, z), (1.0, 1.0, z)]
    if extra_vertex is not None:
        verts.append(extra_vertex)
    coords = np.array(verts, dtype=np.float64).ravel()
    n = len(verts)
    return MorphableModel(mean=coords,
                          basis_id=np.zeros((3 * n, 1)),
                          basis_exp=np.zeros((3 * n, 1)),
                          sigma_id=np.array([1.0]),
                          sigma_exp=np.array([1.0]),
                          landmark_indices=np.array([0, 1, 2, 3]),
                          nose_tip_index=0)


IDENTITY_POSE = PoseParams(1.0, np.eye(3), np.zeros(3))
ZERO_COEFFS = CoeffPair(np.zeros(1), np.zeros(1))


# ---------------------------------------------------------------------------
# generate_model


class TestGenerateModel:
    def test_deterministic_rebuild(self):
        spec = SyntheticModelSpec(n_vertices=150, k_id=6, k_exp=4, seed=5)
        a, b = generate_model(spec), generate_model(spec)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.basis_id, b.basis_id)
        assert np.array_equal(a.basis_exp, b.basis_exp)
        assert np.array_equal(a.landmark_indices, b.landmark_indices)
        assert a.nose_tip_index == b.nose_tip_index

    def test_combined_basis_orthonormal(self, desk_model):
        combined = np.hstack([desk_model.basis_id, desk_model.basis_exp])
        gram = combined.T @ combined
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_landmark_cross_moments_vanish(self, desk_model):
        # paired identity/residual columns have zero cross-moment matrices
        # over the landmark subset, so their projected blocks decouple
        rows = coord_rows(desk_model.landmark_indices)
        ident = desk_model.basis_id[rows].reshape(-1, 3, desk_model.k_id)
        resid = desk_model.basis_exp[rows].reshape(-1, 3, desk_model.k_exp)
        cross = np.einsum("lre,lcb->recb", resid, ident)
        assert np.max(np.abs(cross)) < 1e-10

    def test_landmark_affine_moments_vanish(self, desk_model):
        rows = coord_rows(desk_model.landmark_indices)
        positions = desk_model.mean.reshape(-1, 3)[desk_model.landmark_indices]
        for basis in (desk_model.basis_id, desk_model.basis_exp):
            per_landmark = basis[rows].reshape(-1, 3, basis.shape[1])
            assert np.max(np.abs(per_landmark.sum(axis=0))) < 1e-8
            moments = np.einsum("lrk,lc->rck", per_landmark, positions)
            assert np.max(np.abs(moments)) < 1e-8

    def test_sigma_decay(self, desk_model):
        assert np.array_equal(desk_model.sigma_id, 0.9 ** np.arange(20))
        assert np.array_equal(desk_model.sigma_exp, 0.9 ** np.arange(8))

    def test_landmarks_distinct_and_seed_independent(self):
        a = generate_model(SyntheticModelSpec(n_vertices=150, k_id=6, k_exp=4, seed=1))
        b = generate_model(SyntheticModelSpec(n_vertices=150, k_id=6, k_exp=4, seed=9))
        assert len(set(a.landmark_indices.tolist())) == 68
        assert np.array_equal(a.landmark_indices, b.landmark_indices)
        assert a.nose_tip_index == b.nose_tip_index

    def test_nose_tip_is_depth_peak(self, desk_model):
        z = desk_model.mean.reshape(-1, 3)[:, 2]
        assert desk_model.nose_tip_index == int(np.argmax(z))
        assert desk_model.landmark_indices[0] == desk_model.nose_tip_index

    def test_too_few_vertices_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticModelSpec(n_vertices=50)

    def test_widths_exceeding_vertices_rejected(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticModelSpec(n_vertices=68, k_id=60, k_exp=9)

    def test_full_scale_spec_accepted(self):
        spec = SyntheticModelSpec(n_vertices=29495, k_id=199, k_exp=29)
        assert spec.n_vertices == 29495


# ---------------------------------------------------------------------------
# coefficient and pose sampling


class TestSampling:
    def test_subject_draws_reproducible(self, small_model):
        a = sample_subject(small_model, np.random.default_rng(7))
        b = sample_subject(small_model, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_subject_draw_scales(self, small_model):
        rng = np.random.default_rng(3)
        draws = np.stack([sample_subject(small_model, rng) for _ in range(4000)])
        observed = draws.std(axis=0, ddof=1)
        assert np.all(np.abs(observed / small_model.sigma_id - 1.0) < 0.05)

    def test_degenerate_ranges_give_exact_pose(self, small_model):
        ranges = PoseRanges(yaw=(0.3, 0.3), pitch=(-0.1, -0.1), roll=(0.05, 0.05),
                            scale=(1.7, 1.7), tx=(0.2, 0.2), ty=(-0.3, -0.3),
                            tz=(0.1, 0.1))
        spec = DatasetSpec(pose_ranges=ranges)
        _, scale, rotation, translation = sample_instance(
            small_model, spec, np.random.default_rng(0))
        assert scale == 1.7
        assert np.array_equal(rotation, rotation_zyx(0.3, -0.1, 0.05))
        assert np.array_equal(translation, np.array([0.2, -0.3, 0.1]))

    def test_instance_draws_stay_in_ranges(self, small_model):
        spec = DatasetSpec(pose_ranges=WIDE_RANGES)
        rng = np.random.default_rng(11)
        scales, translations = [], []
        for _ in range(2000):
            alpha_exp, scale, _, translation = sample_instance(small_model, spec, rng)
            assert alpha_exp.shape == (small_model.k_exp,)
            scales.append(scale)
            translations.append(translation)
        scales = np.array(scales)
        translations = np.array(translations)
        assert scales.min() >= 0.9 and scales.max() <= 1.1
        assert translations.min() >= -0.1 and translations.max() <= 0.1
        # uniform on [0.9, 1.1]: std = 0.2 / sqrt(12)
        assert abs(scales.std() / (0.2 / np.sqrt(12.0)) - 1.0) < 0.05

    def test_residual_draw_scales(self, small_model):
        spec = DatasetSpec()
        rng = np.random.default_rng(13)
        draws = np.stack([sample_instance(small_model, spec, rng)[0]
                          for _ in range(4000)])
        observed = draws.std(axis=0, ddof=1)
        assert np.all(np.abs(observed / small_model.sigma_exp - 1.0) < 0.05)


# ---------------------------------------------------------------------------
# render_landmarks


class TestRenderLandmarks:
    def test_noiseless_matches_projection(self, small_model):
        rng = np.random.default_rng(2)
        coeffs = CoeffPair(sample_subject(small_model, rng),
                           np.zeros(small_model.k_exp))
        pose = PoseParams(1.2, rotation_zyx(0.2, -0.1, 0.3), np.array([0.1, 0.2, 5.0]))
        got = render_landmarks(small_model, coeffs, pose, 0.0, np.random.default_rng(0))
        shape = compose_shape(small_model, coeffs)
        expected = project_landmarks(
            select_landmarks(shape, small_model.landmark_indices), pose)
        assert np.array_equal(got.coords, expected.coords)

    def test_rng_state_independent_of_noise_level(self, small_model):
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        render_landmarks(small_model, ZERO_COEFFS_FOR(small_model), IDENTITY_POSE, 0.0, rng_a)
        render_landmarks(small_model, ZERO_COEFFS_FOR(small_model), IDENTITY_POSE, 1.0, rng_b)
        assert rng_a.random() == rng_b.random()

    def test_noise_scale(self, small_model):
        coeffs = ZERO_COEFFS_FOR(small_model)
        clean = render_landmarks(small_model, coeffs, IDENTITY_POSE, 0.0,
                                 np.random.default_rng(0))
        rng = np.random.default_rng(17)
        deviations = []
        for _ in range(100):
            noisy = render_landmarks(small_model, coeffs, IDENTITY_POSE, 0.25, rng)
            deviations.append(noisy.coords - clean.coords)
        observed = np.concatenate(deviations).std(ddof=1)
        assert abs(observed / 0.25 - 1.0) < 0.05

    def test_negative_sigma_rejected(self, small_model):
        with pytest.raises(InvalidArgumentError):
            render_landmarks(small_model, ZERO_COEFFS_FOR(small_model), IDENTITY_POSE,
                             -1.0, np.random.default_rng(0))


def ZERO_COEFFS_FOR(model: MorphableModel) -> CoeffPair:
    return CoeffPair(np.zeros(model.k_id), np.zeros(model.k_exp))


# ---------------------------------------------------------------------------
# rasterize_depth / dilate_max


class TestRasterizeDepth:
    def test_constant_depth_reads_plus_one(self):
        model = flat_square_model(z=0.37)
        image = rasterize_depth(model, ZERO_COEFFS, IDENTITY_POSE, 2)
        assert np.array_equal(image, np.ones((2, 2)))

    def test_all_points_in_one_pixel(self):
        model = flat_square_model(z=-1.3)
        image = rasterize_depth(model, ZERO_COEFFS, IDENTITY_POSE, 1)
        assert np.array_equal(image, np.ones((1, 1)))

    def test_nearest_point_wins_pixel(self):
        # fifth vertex shares the (0, 0) pixel with a farther square corner
        model = flat_square_model(z=0.0, extra_vertex=(0.01, 0.01, 0.9))
        image = rasterize_depth(model, ZERO_COEFFS, IDENTITY_POSE, 2)
        assert np.array_equal(image, np.array([[1.0, -1.0], [-1.0, -1.0]]))

    def test_range_and_extremes(self, desk_model):
        coeffs = CoeffPair(np.zeros(desk_model.k_id), np.zeros(desk_model.k_exp))
        image = rasterize_depth(desk_model, coeffs, IDENTITY_POSE, 32)
        assert image.shape == (32, 32)
        assert image.min() >= -1.0 and image.max() <= 1.0
        assert np.any(image == 1.0)   # nearest point always lands at +1
        assert np.any(image == -1.0)  # 600 points leave holes on a 32x32 grid

    def test_deterministic(self, small_model):
        coeffs = ZERO_COEFFS_FOR(small_model)
        a = rasterize_depth(small_model, coeffs, IDENTITY_POSE, 16)
        b = rasterize_depth(small_model, coeffs, IDENTITY_POSE, 16)
        assert np.array_equal(a, b)

    def test_matches_pixel_oracle(self, small_model):
        rng = np.random.default_rng(21)
        spec = DatasetSpec(pose_ranges=WIDE_RANGES)
        for _ in range(5):
            alpha_exp, *pose = sample_instance(small_model, spec, rng)
            pose = PoseParams(*pose)
            coeffs = CoeffPair(sample_subject(small_model, rng), alpha_exp)
            resolution = 8
            got = rasterize_depth(small_model, coeffs, pose, resolution)

            points = compose_shape(small_model, coeffs).points
            rotated = (points + pose.translation) @ pose.rotation.T
            u, v, depth = pose.scale * rotated[:, 0], pose.scale * rotated[:, 1], rotated[:, 2]
            side = max(u.max() - u.min(), v.max() - v.min())
            ox = (u.max() + u.min()) / 2.0 - side / 2.0
            oy = (v.max() + v.min()) / 2.0 - side / 2.0
            best: dict[tuple[int, int], float] = {}
            for ui, vi, zi in zip(u, v, depth):
                col = min(max(int((ui - ox) / side * resolution), 0), resolution - 1)
                row = min(max(int((vi - oy) / side * resolution), 0), resolution - 1)
                key = (row, col)
                best[key] = max(best.get(key, -np.inf), zi)
            expected = np.full((resolution, resolution), -1.0)
            z_min, z_max = depth.min(), depth.max()
            for (row, col), z in best.items():
                expected[row, col] = 2.0 * (z - z_min) / (z_max - z_min) - 1.0
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_bad_resolution_rejected(self, small_model):
        with pytest.raises(InvalidArgumentError):
            rasterize_depth(small_model, ZERO_COEFFS_FOR(small_model), IDENTITY_POSE, 0)


def scatter_dilate_oracle(image: np.ndarray) -> np.ndarray:
    """Max-dilation by scattering every pixel into its clamped neighbours."""
    out = np.full_like(image, -np.inf)
    n_rows, n_cols = image.shape
    rows, cols = np.indices(image.shape)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            r = np.clip(rows + dr, 0, n_rows - 1)
            c = np.clip(cols + dc, 0, n_cols - 1)
            np.maximum.at(out, (r, c), image)
    return out


class TestDilateMax:
    @settings(max_examples=150, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats(allow_nan=False)))
    def test_matches_scatter_oracle(self, image):
        assert np.array_equal(dilate_max(image), scatter_dilate_oracle(image))

    def test_rendered_images_match_scatter_oracle(self, desk_model):
        rng = np.random.default_rng(12)
        spec = DatasetSpec(pose_ranges=WIDE_RANGES)
        for _ in range(20):
            alpha_exp, *pose = sample_instance(desk_model, spec, rng)
            pose = PoseParams(*pose)
            coeffs = CoeffPair(sample_subject(desk_model, rng), alpha_exp)
            depth = rasterize_depth(desk_model, coeffs, pose, 32)
            assert (dilate_max(depth).tobytes()
                    == scatter_dilate_oracle(depth).tobytes())

    def test_matches_neighborhood_oracle(self):
        rng = np.random.default_rng(3)
        image = rng.normal(size=(9, 7))
        got = dilate_max(image)
        expected = np.empty_like(image)
        for r in range(9):
            for c in range(7):
                window = image[max(r - 1, 0):r + 2, max(c - 1, 0):c + 2]
                expected[r, c] = window.max()
        assert np.array_equal(got, expected)

    def test_constant_image_unchanged(self):
        image = np.full((4, 4), 0.25)
        assert np.array_equal(dilate_max(image), image)

    def test_requires_2d(self):
        with pytest.raises(InvalidArgumentError):
            dilate_max(np.zeros(5))
        with pytest.raises(InvalidArgumentError):
            dilate_max(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# render_depths: the stacked renderer against the per-image oracle


def render_one(model: MorphableModel, coeffs: CoeffPair, pose: PoseParams,
               resolution: int) -> np.ndarray:
    """`render_depths` on one row, as an (r, r) image."""
    return render_depths(model, coeffs.alpha_id[None], coeffs.alpha_exp[None],
                         np.array([pose.scale]), pose.rotation[None],
                         pose.translation[None], resolution
                         ).reshape(resolution, resolution)


def per_image_oracle(model, alpha_id, alpha_exp, scale, rotation, translation,
                     resolution: int) -> np.ndarray:
    return np.array([dilate_max(rasterize_depth(
        model, CoeffPair(a, e), PoseParams(f, r, t), resolution)).ravel()
        for a, e, f, r, t in zip(alpha_id, alpha_exp, scale, rotation, translation)])


def random_rows(draw, kind: str):
    """A random small model and N pose/coefficient rows for it.

    "coincident" models put every mean vertex on one point, so rows with zero
    coefficients are clouds of coincident points (side 0); "flat" models have
    a constant-depth mean and no depth in their bases, so rows rotated about
    the view axis alone are constant-depth clouds. Such rows are mixed with
    ordinary ones within a chunk.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(4, 45))
    k_id, k_exp = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    chunk = _RENDER_CHUNK
    rows = draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 70]))
    mean = rng.normal(size=(n, 3))
    basis_id, basis_exp = rng.normal(size=(3 * n, k_id)), rng.normal(size=(3 * n, k_exp))
    if kind == "coincident":
        mean[:] = mean[0]
    if kind == "flat":
        mean[:, 2] = mean[0, 2]
        basis_id[2::3], basis_exp[2::3] = 0.0, 0.0
    model = MorphableModel(mean=mean.ravel(), basis_id=basis_id,
                           basis_exp=basis_exp, sigma_id=np.ones(k_id),
                           sigma_exp=np.ones(k_exp), landmark_indices=np.arange(4),
                           nose_tip_index=0)
    special = rng.random(rows) < 0.5
    alpha_id = rng.normal(size=(rows, k_id))
    alpha_exp = rng.normal(size=(rows, k_exp))
    angles = rng.uniform(-np.pi, np.pi, size=(rows, 3))
    if kind == "coincident":
        alpha_id[special], alpha_exp[special] = 0.0, 0.0
    if kind == "flat":
        angles[special, 1:] = 0.0
    rotation = np.array([rotation_zyx(*a) for a in angles])
    scale = rng.uniform(0.2, 3.0, size=rows)
    translation = rng.normal(size=(rows, 3))
    return model, (alpha_id, alpha_exp, scale, rotation, translation)


class TestRenderDepths:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_per_image_oracle_bit_for_bit(self, data):
        kind = data.draw(st.sampled_from(["random", "coincident", "flat"]))
        model, columns = random_rows(data.draw, kind)
        resolution = data.draw(st.integers(1, 40))
        got = render_depths(model, *columns, resolution)
        expected = per_image_oracle(model, *columns, resolution)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_no_rows(self, small_model):
        out = render_depths(small_model, np.zeros((0, small_model.k_id)),
                            np.zeros((0, small_model.k_exp)), np.zeros(0),
                            np.zeros((0, 3, 3)), np.zeros((0, 3)), 8)
        assert out.shape == (0, 64)

    def test_constant_depth_reads_plus_one(self):
        model = flat_square_model(z=0.37)
        image = render_one(model, ZERO_COEFFS, IDENTITY_POSE, 2)
        assert np.array_equal(image, np.ones((2, 2)))

    def test_all_points_in_one_pixel(self):
        model = flat_square_model(z=-1.3)
        image = render_one(model, ZERO_COEFFS, IDENTITY_POSE, 1)
        assert np.array_equal(image, np.ones((1, 1)))

    def test_nearest_point_wins_pixel(self):
        # fifth vertex shares the (0, 0) pixel with a farther square corner;
        # dilation spreads its +1 over the 2x2 corner block only
        model = flat_square_model(z=0.0, extra_vertex=(0.01, 0.01, 0.9))
        image = render_one(model, ZERO_COEFFS, IDENTITY_POSE, 4)
        expected = np.full((4, 4), -1.0)
        expected[:2, :2] = 1.0
        assert np.array_equal(image, expected)

    def test_range_and_extremes(self, desk_model):
        coeffs = CoeffPair(np.zeros(desk_model.k_id), np.zeros(desk_model.k_exp))
        image = render_one(desk_model, coeffs, IDENTITY_POSE, 32)
        assert image.shape == (32, 32)
        assert image.min() >= -1.0 and image.max() <= 1.0
        assert np.any(image == 1.0)   # nearest point always lands at +1
        assert np.any(image == -1.0)  # the square's corners stay empty

    def test_deterministic(self, small_model):
        coeffs = ZERO_COEFFS_FOR(small_model)
        a = render_one(small_model, coeffs, IDENTITY_POSE, 16)
        b = render_one(small_model, coeffs, IDENTITY_POSE, 16)
        assert np.array_equal(a, b)

    def test_dilates_the_pixel_oracle(self, small_model):
        rng = np.random.default_rng(21)
        spec = DatasetSpec(pose_ranges=WIDE_RANGES)
        for _ in range(5):
            alpha_exp, *pose = sample_instance(small_model, spec, rng)
            pose = PoseParams(*pose)
            coeffs = CoeffPair(sample_subject(small_model, rng), alpha_exp)
            undilated = rasterize_depth(small_model, coeffs, pose, 8)
            assert np.array_equal(render_one(small_model, coeffs, pose, 8),
                                  scatter_dilate_oracle(undilated))

    def test_bad_resolution_rejected(self, small_model):
        with pytest.raises(InvalidArgumentError):
            render_one(small_model, ZERO_COEFFS_FOR(small_model), IDENTITY_POSE, 0)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 9)).map(
        lambda shape: (shape[0], shape[1], shape[1])), elements=st.floats(-1.0, 1.0)))
    def test_stacked_dilation_keeps_images_apart(self, images):
        # a raster never holds -0.0 (every value is -1, +1 or x - 1.0 with
        # x >= 0), and max of -0.0 and +0.0 may return either
        images = images + 0.0
        expected = np.array([scatter_dilate_oracle(image) for image in images])
        assert _dilate_rows(images).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# _compose_rows: shared identity parts against the per-row oracle


class TestComposeRows:
    @staticmethod
    def identities(model, rng):
        """Two drawn identities, zeros, and negative zeros: equal to zeros
        as numbers, not as bytes."""
        zeros = np.zeros(model.k_id)
        return [sample_subject(model, rng), sample_subject(model, rng), zeros, -zeros]

    @staticmethod
    def assert_rows_composed_alone(model, alpha_id, alpha_exp):
        shapes = _compose_rows(model, alpha_id, alpha_exp)
        assert shapes.shape == (len(alpha_id), model.mean.size)
        for shape, a, e in zip(shapes, alpha_id, alpha_exp):
            assert shape.tobytes() == compose_shape(model, CoeffPair(a, e)).coords.tobytes()

    @pytest.mark.parametrize("pattern", [[0, 0, 0, 1, 1], [0, 1, 0, 1, 0],
                                         [2, 3, 2, 3], [0], [1, 1, 0, 0, 1]])
    def test_runs_and_alternations(self, small_model, pattern):
        rng = np.random.default_rng(len(pattern))
        pool = self.identities(small_model, rng)
        alpha_exp = rng.normal(size=(len(pattern), small_model.k_exp)) * small_model.sigma_exp
        self.assert_rows_composed_alone(small_model, np.array([pool[i] for i in pattern]),
                                        alpha_exp)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=12), st.integers(0, 2 ** 32 - 1))
    def test_each_row_has_the_bits_of_composing_it_alone(self, small_model, pattern, seed):
        rng = np.random.default_rng(seed)
        pool = self.identities(small_model, rng)
        alpha_exp = rng.normal(size=(len(pattern), small_model.k_exp)) * small_model.sigma_exp
        self.assert_rows_composed_alone(small_model, np.array([pool[i] for i in pattern]),
                                        alpha_exp)


# ---------------------------------------------------------------------------
# splits and dataset assembly


class TestSplitIndices:
    def test_canonical_split(self):
        train, val, test = split_indices(20, 10)
        assert np.array_equal(test, np.arange(150, 200))
        expected_val = np.concatenate([np.arange(s * 10 + 8, s * 10 + 10)
                                       for s in range(15)])
        assert np.array_equal(val, expected_val)
        assert np.array_equal(np.sort(np.concatenate([train, val, test])),
                              np.arange(200))

    @pytest.mark.parametrize("n_subjects,images", [(2, 1), (2, 3), (5, 5),
                                                   (20, 10), (7, 4)])
    def test_partition_properties(self, n_subjects, images):
        train, val, test = split_indices(n_subjects, images)
        combined = np.concatenate([train, val, test])
        assert np.array_equal(np.sort(combined), np.arange(n_subjects * images))
        assert len(test) >= images           # at least one held-out subject
        assert len(train) >= images          # and at least one training subject
        # held-out subjects contribute no train/val samples
        heldout_start = test.min()
        assert np.all(train < heldout_start) and (len(val) == 0 or np.all(val < heldout_start))
        # the held-out rows are one block, the last
        assert np.array_equal(test, np.arange(heldout_start, n_subjects * images))

    def test_too_few_subjects_rejected(self):
        with pytest.raises(InvalidArgumentError):
            split_indices(1, 10)
        with pytest.raises(InvalidArgumentError):
            split_indices(2, 0)


@pytest.fixture(scope="module")
def tiny(small_model) -> Dataset:
    spec = DatasetSpec(n_subjects=2, images_per_subject=3, image_resolution=16,
                       seed=42)
    return build_dataset(small_model, spec)


class TestBuildDataset:
    def test_labels_subject_major(self, tiny):
        assert tiny.labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_identity_shared_within_subject(self, tiny):
        first = tiny.alpha_id[0]
        for i in (1, 2):
            assert np.array_equal(tiny.alpha_id[i], first)
        assert not np.array_equal(tiny.alpha_id[3], first)

    def test_stored_shape_matches_coefficients(self, tiny, small_model):
        shapes = tiny.ground_truth_shapes(np.arange(tiny.labels.size))
        for i, shape in enumerate(shapes):
            expected = compose_shape(small_model, row_coeffs(tiny, i))
            assert np.array_equal(shape, expected.coords)

    def test_stored_raster_is_dilated_render(self, tiny, small_model):
        for i in range(tiny.labels.size):
            expected = dilate_max(rasterize_depth(
                small_model, row_coeffs(tiny, i), row_pose(tiny, i),
                tiny.spec.image_resolution))
            assert np.array_equal(tiny.depth[i], expected)

    def test_noiseless_landmarks_match_projection(self, tiny, small_model):
        for i in range(tiny.labels.size):
            shape = compose_shape(small_model, row_coeffs(tiny, i))
            expected = project_landmarks(
                select_landmarks(shape, small_model.landmark_indices),
                row_pose(tiny, i))
            assert np.array_equal(tiny.landmarks[i], expected.coords)

    def test_rebuild_bit_identical(self, tiny, small_model):
        again = build_dataset(small_model, tiny.spec)
        for name in COLUMNS:
            assert np.array_equal(getattr(tiny, name), getattr(again, name))

    def test_tiny_split(self, tiny):
        assert np.array_equal(tiny.train_indices, np.arange(0, 3))
        assert len(tiny.val_indices) == 0
        assert np.array_equal(tiny.test_indices, np.arange(3, 6))

    @pytest.mark.parametrize("subjects", [1, 2, 4, 5, 9])
    def test_first_subjects_are_a_window_of_the_whole(self, desk_model, subjects):
        # 5 subjects of 7 images: windows that end inside and at the end of a
        # 16-row render chunk; every subject's seed is spawned as for all
        spec = DatasetSpec(n_subjects=5, images_per_subject=7, pose_ranges=WIDE_RANGES,
                           landmark_noise_sigma=0.01, seed=8)
        whole = build_dataset(desk_model, spec)
        window = build_dataset(desk_model, spec, subjects)
        rows = range(7 * min(subjects, 5))
        assert window.rows == rows and window.spec == spec
        for name in ("labels", *COLUMNS):
            want = getattr(whole, name)[:len(rows)]
            assert getattr(window, name).tobytes() == want.tobytes(), name
        assert window.n_train_subjects == whole.n_train_subjects == 4

    @pytest.mark.parametrize("subjects", [0, -1])
    def test_no_subjects_is_refused(self, small_model, subjects):
        with pytest.raises(InvalidArgumentError, match="subjects must be at least 1"):
            build_dataset(small_model, DatasetSpec(), subjects)

    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    @pytest.mark.parametrize("resolution", [8, 16, 32])
    def test_matches_per_sample_loop(self, desk_model, sigma, resolution):
        # 45 rows: full chunks of the renderer and a partial one
        spec = DatasetSpec(n_subjects=5, images_per_subject=9,
                           landmark_noise_sigma=sigma, pose_ranges=WIDE_RANGES,
                           image_resolution=resolution, seed=3)
        dataset = build_dataset(desk_model, spec)
        expected = build_dataset_columns(desk_model, spec)
        for name in ("labels", *COLUMNS):
            column = getattr(dataset, name)
            assert column.dtype == expected[name].dtype, name
            assert column.shape == expected[name].shape, name
            assert column.tobytes() == expected[name].tobytes(), name

    def test_default_dataset_layout(self, default_dataset):
        assert default_dataset.labels.size == 200
        assert default_dataset.n_train_subjects == 15
        assert np.array_equal(default_dataset.labels[default_dataset.test_indices],
                              np.repeat(np.arange(15, 20), 10))
        assert np.array_equal(default_dataset.labels,
                              np.repeat(np.arange(20), 10))
        image = default_dataset.depth[0]
        assert image.shape == (32, 32)
        assert image.min() >= -1.0 and image.max() <= 1.0


def rebuilt(dataset: Dataset, **columns) -> Dataset:
    """`dataset` with some columns replaced."""
    return Dataset(model=dataset.model, spec=dataset.spec,
                   **{name: columns.get(name, getattr(dataset, name))
                      for name in COLUMNS})


def row_rejected(model, spec, columns: dict, i: int) -> bool:
    """Slow oracle: whether the per-sample constructors reject row i."""
    try:
        compose_shape(model, CoeffPair(columns["alpha_id"][i],
                                       columns["alpha_exp"][i]))
        PoseParams(columns["pose_scale"][i], columns["pose_rotation"][i],
                   columns["pose_translation"][i])
        landmarks = LandmarkSet2D(columns["landmarks"][i])
        require(landmarks.count == model.n_landmarks, "landmark count")
        depth = columns["depth"][i]
        r = spec.image_resolution
        require(depth.shape == (r, r), "depth shape")
        require(bool(np.all(np.isfinite(depth))), "depth finite")
        require(bool(np.all((depth >= -1.0) & (depth <= 1.0))), "depth range")
    except InvalidArgumentError:
        return True
    return False


def poison(columns: dict, row: int, data) -> str | None:
    """Apply one drawn defect to row `row` (or, for a width defect, to a
    whole column, whose name is returned)."""
    kind = data.draw(st.sampled_from(
        ["nan", "depth", "scale", "rotation", "width"]))
    if kind == "nan":
        name = data.draw(st.sampled_from(COLUMNS))
        flat = columns[name].reshape(columns[name].shape[0], -1)
        flat[row, data.draw(st.integers(0, flat.shape[1] - 1))] = np.nan
    elif kind == "depth":
        flat = columns["depth"].reshape(columns["depth"].shape[0], -1)
        flat[row, data.draw(st.integers(0, flat.shape[1] - 1))] = data.draw(
            st.floats(-3.0, 3.0))
    elif kind == "scale":
        columns["pose_scale"][row] = data.draw(st.floats(-2.0, 2.0))
    elif kind == "rotation":
        # every defect moves the Gram matrix or det by >= 1e-6, far beyond
        # ROTATION_TOL, so rounding cannot decide the outcome
        how = data.draw(st.sampled_from(["skew", "improper", "proper"]))
        rotation = columns["pose_rotation"][row]
        if how == "skew":
            a, b = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
            rotation[a, b] += data.draw(st.sampled_from([1e-6, -1e-3, 0.5]))
        elif how == "improper":
            rotation[:, 2] *= -1.0
        else:
            rotation[...] = rotation_zyx(*(data.draw(st.floats(-3.0, 3.0))
                                           for _ in range(3)))
    else:
        name = data.draw(st.sampled_from(
            ["alpha_id", "alpha_exp", "landmarks", "depth"]))
        column = columns[name]
        columns[name] = (column[..., :-1] if data.draw(st.booleans())
                         else np.concatenate([column, column[..., :1]], axis=-1))
        return name
    return None


class TestDatasetColumns:
    def test_columns_are_read_only_c_ordered_copies(self, tiny):
        depth = np.asfortranarray(tiny.depth)
        again = rebuilt(tiny, depth=depth)
        for name in COLUMNS:
            column = getattr(again, name)
            assert column.flags.c_contiguous and not column.flags.writeable
        assert again.labels.dtype == np.int64 and not again.labels.flags.writeable
        assert again.depth is not depth and depth.flags.writeable

    def test_ground_truth_shapes_only_rows_asked(self, tiny, small_model):
        shapes = tiny.ground_truth_shapes([4, 1])
        assert shapes.shape == (2, small_model.mean.size)
        for shape, i in zip(shapes, (4, 1)):
            assert np.array_equal(
                shape, compose_shape(small_model, row_coeffs(tiny, i)).coords)

    def test_images_flatten_rows_asked(self, tiny):
        images = tiny.images(np.array([2, 0]))
        assert images.shape == (2, 16 * 16)
        assert np.array_equal(images[0], tiny.depth[2].ravel())
        assert np.array_equal(images[1], tiny.depth[0].ravel())

    def test_images_of_a_slice_are_a_view(self, tiny):
        images = tiny.images(slice(3, 6))
        assert images.shape == (3, 16 * 16) and np.shares_memory(images, tiny.depth)
        assert images.tobytes() == tiny.images(np.arange(3, 6)).tobytes()

    @pytest.mark.parametrize("rows", [np.arange(5), np.r_[0:6, 0]],
                             ids=["one-row-too-few", "one-row-too-many"])
    def test_row_count_follows_the_spec(self, tiny, rows):
        # the first column, alpha_id, names the count
        with pytest.raises(InvalidArgumentError) as info:
            rebuilt(tiny, **{name: getattr(tiny, name)[rows] for name in COLUMNS})
        k_id = tiny.model.k_id
        assert str(info.value) == (
            f"alpha_id must be (6, {k_id}), got ({rows.size}, {k_id})")

    def test_split_is_not_an_argument(self, tiny):
        with pytest.raises(TypeError, match="test_indices"):
            Dataset(model=tiny.model, spec=tiny.spec, test_indices=np.arange(6),
                    **{name: getattr(tiny, name) for name in COLUMNS})

    def test_labels_are_not_an_argument(self, tiny):
        # the spec gives every row's subject, so no second copy is taken
        with pytest.raises(TypeError, match="labels"):
            Dataset(model=tiny.model, spec=tiny.spec, labels=tiny.labels,
                    **{name: getattr(tiny, name) for name in COLUMNS})

    def test_error_names_first_failing_row(self, tiny):
        scale = np.array(tiny.pose_scale)
        landmarks = np.array(tiny.landmarks)
        scale[4], landmarks[2, 7] = -1.0, np.nan
        with pytest.raises(InvalidArgumentError, match="^sample 2 landmarks"):
            rebuilt(tiny, pose_scale=scale, landmarks=landmarks)

    @pytest.mark.parametrize("values, message", [
        ([np.nan], "values must be finite"),
        ([np.inf], "values must be finite"),
        ([-np.inf], "values must be finite"),
        ([1.5], "values must lie in [-1, 1]"),
        ([-1.5], "values must lie in [-1, 1]"),
        # a non-finite value names finiteness, ahead of the range
        ([1.5, np.nan], "values must be finite"),
        ([-1.5, np.inf], "values must be finite"),
    ])
    def test_depth_row_verdicts(self, tiny, values, message):
        depth = np.array(tiny.depth)
        depth[3, 5, 2:2 + len(values)] = values
        with pytest.raises(InvalidArgumentError) as info:
            rebuilt(tiny, depth=depth)
        assert str(info.value) == f"sample 3 depth: {message}"

    def test_depth_at_the_range_ends_loads(self, tiny):
        depth = np.array(tiny.depth)
        depth[3, 0, :2] = -1.0, 1.0
        assert rebuilt(tiny, depth=depth).depth[3, 0, 1] == 1.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_vectorised_check_matches_per_row_constructors(self, tiny, data):
        columns = {name: np.array(getattr(tiny, name)) for name in COLUMNS}
        row = data.draw(st.integers(0, tiny.labels.size - 1))
        widened = poison(columns, row, data)
        rejected = [i for i in range(tiny.labels.size)
                    if row_rejected(tiny.model, tiny.spec, columns, i)]
        if not rejected:
            rebuilt(tiny, **columns)
            return
        with pytest.raises(InvalidArgumentError) as info:
            rebuilt(tiny, **columns)
        if widened:
            assert str(info.value).startswith(f"{widened} must be")
        else:
            assert rejected == [row]
            assert str(info.value).startswith(f"sample {row} ")
