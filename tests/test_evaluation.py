"""Tests for verification metrics, reconstruction scoring, and code diagnostics."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from morphfit import evaluation
from morphfit.errors import (DegenerateGeometryError, InvalidArgumentError, MorphfitError,
                             require)
from morphfit.evaluation import (
    _PAIR_BLOCK,
    _RECONSTRUCTION_CHUNK,
    ReconstructionReport,
    VerificationReport,
    disentangling_report,
    evaluate_reconstruction,
    rank_n_identification,
    verification_report,
)
from morphfit.geometry import rotation_zyx
from morphfit.network import EncoderNet, decode, encode_images, init_decoder, init_encoder
from morphfit.synthetic import (
    Dataset,
    DatasetSpec,
    build_dataset,
)

from oracles import (CoeffPair, PoseParams, RocCurve, Shape, SimilarityTransform,
                     apply_transform, argsorted_rank_n, crop_indices, curve_eer, curve_tar_at_far,
                     dilate_max, mann_whitney_auc, procrustes_align,
                     procrustes_align_stack,
                     masked_cosine_distances, masked_distance_means, pair_scores,
                     rasterize_depth,
                     reconstruction_truth, roc_curve, searched_accuracy_folds,
                     searched_roc_curve, searched_verification_report, select_landmarks,
                     self_encoding_disentangling_report, sorted_auc, sorted_class_report,
                     sorted_eer, sorted_rates, sorted_roc, sorted_tar_at_far,
                     stratified_folds, trapezoid_auc, unshared_reconstruction,
                     verification_pairs, whole_stack_reconstruction)
from conftest import (assert_plain_fields, copied_rows, disentangle, reconstruct, rmse,
                      row_pose, truth_rows)


def by_class(scores, is_genuine) -> tuple[np.ndarray, np.ndarray]:
    """The genuine and the impostor scores of pairs in index order, each in
    that order, as `pair_scores` returns them."""
    scores = np.asarray(scores, dtype=np.float64)
    is_genuine = np.asarray(is_genuine, dtype=bool)
    return scores[is_genuine], scores[~is_genuine]


def copied_report(genuine, impostor, *args) -> VerificationReport:
    """The sorted-class oracle report of float64 copies of the two classes, which
    it sorts in place."""
    return sorted_class_report(np.array(genuine, dtype=np.float64),
                               np.array(impostor, dtype=np.float64), *args)


# ---------------------------------------------------------------------------
# cosine similarity: the per-pair oracle for the matrix scoring


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """a.b / (|a||b|), guarding both norms."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    require(a.size == b.size, f"length mismatch: {a.size} vs {b.size}")
    require(bool(np.all(np.isfinite(a))) and bool(np.all(np.isfinite(b))),
            "inputs must be finite")
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    require(na > 0 and nb > 0, "cosine similarity needs non-zero vectors")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


class TestCosineSimilarity:
    def test_parallel(self):
        assert abs(cosine_similarity([1.0, 2.0], [2.0, 4.0]) - 1.0) < 1e-15

    def test_antiparallel(self):
        assert cosine_similarity([1.0, 0.0], [-3.0, 0.0]) == -1.0

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 5.0]) == 0.0

    def test_scale_invariant(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert abs(cosine_similarity(a, b)
                   - cosine_similarity(17.0 * a, 0.01 * b)) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cosine_similarity(np.zeros(3), np.ones(3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            cosine_similarity(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# ROC curve and derived metrics


def checked_curve(genuine, impostor) -> RocCurve:
    """roc_curve's three arrays, through the invariants of the curve class
    they replaced."""
    return RocCurve(np.column_stack(roc_curve(genuine, impostor)))


def ranked(genuine, impostor) -> tuple[np.ndarray, np.ndarray]:
    """Sorted float64 copies of the two classes, as the sorted-class oracle report
    hands them to `sorted_eer`, `sorted_auc` and `sorted_tar_at_far`."""
    return np.sort(np.asarray(genuine, dtype=np.float64)), np.sort(
        np.asarray(impostor, dtype=np.float64))


class TestRocCurve:
    """The rates that `sorted_eer` and `sorted_tar_at_far` count at a threshold,
    against the ROC oracle's vertices and against counting."""

    def test_perfect_separation_hits_corner(self):
        curve = checked_curve([2.0, 3.0], [0.0, 1.0])
        corner = (curve.tar == 1.0) & (curve.far == 0.0)
        assert np.any(corner)
        classes = ranked([2.0, 3.0], [0.0, 1.0])
        assert sorted_rates(*classes, curve.thresholds[corner][0]) == (1.0, 0.0)

    def test_all_equal_scores_degenerate_line(self):
        curve = checked_curve([0.5, 0.5], [0.5, 0.5, 0.5])
        assert np.array_equal(curve.tar, [1.0, 0.0])
        assert np.array_equal(curve.far, [1.0, 0.0])
        classes = ranked([0.5, 0.5], [0.5, 0.5, 0.5])
        assert [sorted_rates(*classes, t) for t in curve.thresholds] == [(1.0, 1.0), (0.0, 0.0)]

    def test_matches_counting_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        genuine = rng.integers(0, 10, size=60) / 10.0
        impostor = rng.integers(0, 10, size=40) / 10.0
        curve = checked_curve(genuine, impostor)
        classes = ranked(genuine, impostor)
        for threshold, tar, far in curve.points:
            assert tar == np.count_nonzero(genuine >= threshold) / 60
            assert far == np.count_nonzero(impostor >= threshold) / 40
            assert sorted_rates(*classes, threshold) == (tar, far)

    def test_sentinel_above_scores_past_two_to_the_53(self):
        curve = roc_curve([1e17], [0.0])  # 1e17 + 1.0 == 1e17
        thresholds, tar, far = curve
        assert thresholds[-1] > 1e17
        assert tar[-1] == 0.0 and far[-1] == 0.0
        assert sorted_rates(*ranked([1e17], [0.0]), thresholds[-1]) == (0.0, 0.0)
        assert sorted_auc(*ranked([1e17], [0.0])) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(InvalidArgumentError):
            roc_curve([1.0, 0.5], [])
        with pytest.raises(InvalidArgumentError):
            roc_curve([], [])
        with pytest.raises(InvalidArgumentError):
            copied_report([1.0, 0.5], [], 2)
        with pytest.raises(InvalidArgumentError):
            copied_report([], [], 2)

    def test_curve_validation(self):
        with pytest.raises(InvalidArgumentError):
            RocCurve(np.array([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))  # flat thresholds
        with pytest.raises(InvalidArgumentError):
            RocCurve(np.array([[0.0, 1.5, 1.0], [1.0, 0.0, 0.0]]))  # TAR > 1
        with pytest.raises(InvalidArgumentError):
            RocCurve(np.array([[0.0, 0.5, 1.0], [1.0, 1.0, 0.0]]))  # TAR rising


class TestAuc:
    def test_perfect_is_one(self):
        assert sorted_auc(*ranked([2.0, 3.0], [0.0, 1.0])) == 1.0

    def test_inverted_is_zero(self):
        assert sorted_auc(*ranked([0.0, 1.0], [2.0, 3.0])) == 0.0

    def test_hand_case(self):
        value = sorted_auc(*ranked([0.8, 0.6], [0.7, 0.1]))
        assert abs(value - 0.75) < 1e-12

    def test_matches_mann_whitney_with_half_ties(self):
        rng = np.random.default_rng(2)
        genuine = rng.integers(0, 8, size=50) / 8.0 + 0.1
        impostor = rng.integers(0, 8, size=70) / 8.0
        value = sorted_auc(*ranked(genuine, impostor))
        wins = sum(1.0 if g > i else (0.5 if g == i else 0.0)
                   for g in genuine for i in impostor)
        assert abs(value - wins / (50 * 70)) < 1e-10

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(3)
        genuine = rng.normal(0.5, 0.3, size=40)
        impostor = rng.normal(0.0, 0.3, size=40)
        raw = sorted_auc(*ranked(genuine, impostor))
        warped = sorted_auc(*ranked(np.exp(genuine), np.exp(impostor)))
        assert abs(raw - warped) < 1e-12


class TestEer:
    def test_perfect_is_zero(self):
        assert sorted_eer(*ranked([2.0, 3.0], [0.0, 1.0])) == 0.0

    def test_inverted_is_one(self):
        assert sorted_eer(*ranked([0.0, 1.0], [2.0, 3.0])) == 1.0

    def test_hand_crossing(self):
        assert sorted_eer(*ranked([0.8, 0.6], [0.7, 0.1])) == 0.5

    def test_crossing_point_property(self):
        # the returned value must sit where the FAR and FRR polylines meet
        rng = np.random.default_rng(4)
        genuine = rng.integers(0, 12, size=45) / 12.0 + 0.2
        impostor = rng.integers(0, 12, size=55) / 12.0
        curve = roc_curve(genuine, impostor)
        value = sorted_eer(*ranked(genuine, impostor))
        assert 0.0 <= value <= 1.0
        found = False
        _, tar, far = curve
        frr = 1.0 - tar
        for i in range(len(far) - 1):
            lo, hi = far[i] - frr[i], far[i + 1] - frr[i + 1]
            if lo >= 0.0 >= hi and lo != hi:
                u = lo / (lo - hi)
                crossing = far[i] + u * (far[i + 1] - far[i])
                if abs(crossing - value) < 1e-12:
                    found = True
        assert found

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(5)
        genuine = rng.normal(0.6, 0.4, size=30)
        impostor = rng.normal(0.0, 0.4, size=30)
        raw = sorted_eer(*ranked(genuine, impostor))
        warped = sorted_eer(*ranked(3.0 * genuine + 2.0, 3.0 * impostor + 2.0))
        assert abs(raw - warped) < 1e-12


class TestTarAtFar:
    def test_perfect_is_one_everywhere(self):
        classes = ranked([2.0, 3.0], [0.0, 1.0])
        assert sorted_tar_at_far(*classes, 0.10) == 1.0
        assert sorted_tar_at_far(*classes, 0.01) == 1.0

    def test_interpolated_hand_case(self):
        classes = ranked([1.0, 3.0], [0.0, 2.0])
        # envelope points: (FAR 0, TAR 0.5), (0.5, 1), (1, 1)
        assert abs(sorted_tar_at_far(*classes, 0.25) - 0.75) < 1e-12
        assert sorted_tar_at_far(*classes, 0.5) == 1.0

    def test_target_validation(self):
        classes = ranked([1.0], [0.0])
        with pytest.raises(InvalidArgumentError):
            sorted_tar_at_far(*classes, 0.0)
        with pytest.raises(InvalidArgumentError):
            sorted_tar_at_far(*classes, 1.5)


# ---------------------------------------------------------------------------
# fold accuracy protocol


def report_folds(genuine, impostor, n_folds) -> tuple[float, float]:
    """The sorted-class oracle report's fold mean and std."""
    report = copied_report(genuine, impostor, n_folds)
    return report.accuracy_mean, report.accuracy_std


class TestVerificationAccuracyFolds:
    """The fold accuracy of the sorted-class oracle report, over its stratified folds."""

    def test_perfect_scores(self):
        # two folds of one genuine and one impostor pair
        assert report_folds([1.0, 1.0], [0.0, 0.0], 2) == (1.0, 0.0)

    def test_matches_threshold_search_oracle(self):
        rng = np.random.default_rng(6)
        # four blocks of 5 genuine then 5 impostor pairs
        blocks = [(rng.integers(0, 6, size=5) / 6.0 + 0.15,
                   rng.integers(0, 6, size=5) / 6.0) for _ in range(4)]
        classes = [np.concatenate(c) for c in zip(*blocks)]
        mean, std = report_folds(*classes, 4)

        # stratifying cuts each class into four equal runs: fold k is block k
        scores, genuine = stratified_folds(*classes, 4)
        assert scores.tobytes() == np.concatenate([np.r_[g, i] for g, i in blocks]).tobytes()
        fold_size = scores.size // 4
        accuracies = []
        for k in range(4):
            held = np.zeros(scores.size, dtype=bool)
            held[k * fold_size:(k + 1) * fold_size] = True
            s_tr, g_tr = scores[~held], genuine[~held]
            best_acc, best_t = -1.0, None
            for t in np.append(np.unique(s_tr), s_tr.max() + 1.0):
                acc = np.mean(np.where(s_tr >= t, g_tr, ~g_tr))
                if acc > best_acc:  # ties keep the smallest threshold
                    best_acc, best_t = acc, t
            s_h, g_h = scores[held], genuine[held]
            accuracies.append(float(np.mean(np.where(s_h >= best_t, g_h, ~g_h))))
        assert abs(mean - np.mean(accuracies)) < 1e-12
        assert abs(std - np.std(accuracies)) < 1e-12

    def test_canonical_ten_by_six_hundred(self):
        rng = np.random.default_rng(7)
        classes = (rng.integers(30, 101, size=3000) / 100.0,
                   rng.integers(0, 71, size=3000) / 100.0)
        mean, std = report_folds(*classes, 10)
        assert 0.5 < mean <= 1.0
        assert std >= 0.0
        assert (mean, std) == searched_accuracy_folds(stratified_folds(*classes, 10), 10)


class TestStratifiedFolds:
    """The report's folds against the oracle's stratified copy of the pairs."""

    def test_round_robin_layout(self):
        """Fold k is the k-th run of each class in index order; the genuine
        remainder 4.0 is in no fold. Every impostor outscores every genuine
        pair, so each fold's threshold is the sentinel above its training
        scores: fold 0 rejects its five held-out pairs (3 right), while fold 1
        accepts its impostors, which lie above fold 0's sentinel 13.0, and
        rejects its genuine pairs (none right)."""
        classes = np.arange(5.0), 10.0 + np.arange(6.0)
        folds = stratified_folds(*classes, 2)
        assert folds[0].tolist() == [0.0, 1.0, 10.0, 11.0, 12.0,
                                     2.0, 3.0, 13.0, 14.0, 15.0]
        assert report_folds(*classes, 2) == searched_accuracy_folds(folds, 2) == (0.3, 0.3)

    def test_every_fold_mixed(self):
        rng = np.random.default_rng(8)
        classes = by_class(rng.normal(size=97), rng.integers(0, 2, size=97))
        folds = stratified_folds(*classes, 5)
        fold_size = folds[0].size // 5
        assert folds[0].size % 5 == 0
        for k in range(5):
            flags = folds[1][k * fold_size:(k + 1) * fold_size]
            assert flags.any() and not flags.all()
        assert report_folds(*classes, 5) == searched_accuracy_folds(folds, 5)

    def test_too_few_of_one_class_rejected(self):
        classes = [1.0], [0.0, 0.1, 0.2]
        message = "need at least 2 pairs of each class, got 1 genuine / 3 impostor"
        assert outcome(copied_report, *classes, 2) == (InvalidArgumentError, message)
        assert outcome(stratified_folds, *classes, 2) == (InvalidArgumentError, message)


# ---------------------------------------------------------------------------
# identification


@st.composite
def rank_inputs(draw):
    """A gallery of 1-12 codes whose subjects repeat, 1-70 probes of those
    subjects and n from 1 to the gallery size + 2. The codes are rows drawn from
    a pool of 1-6 small-integer rows times a power of two, with signed zeros
    among their entries: scores tie often, and every product sums exactly, so a
    block of probes has the whole score matrix's bits."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    width, g = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    p = draw(st.one_of(st.sampled_from([1, _PAIR_BLOCK, _PAIR_BLOCK + 1]), st.integers(1, 70)))
    pool = rng.integers(-2, 3, size=(draw(st.integers(1, 6)), width)).astype(np.float64)
    pool[pool == 0] = rng.choice([0.0, -0.0], size=np.count_nonzero(pool == 0))
    pool[~pool.any(axis=1), 0] = 1.0
    codes = pool[rng.integers(0, len(pool), size=g + p)] * draw(
        st.sampled_from([1.0, 0.25, 2.0 ** -30]))
    g_labels = rng.integers(0, draw(st.integers(1, g)), size=g)
    return (codes[:g], g_labels, codes[g:], rng.choice(g_labels, size=p),
            draw(st.integers(1, g + 2)))


class TestRankNIdentification:
    def test_identical_codes_rank1(self):
        codes = np.eye(4)
        labels = np.arange(4)
        assert rank_n_identification(codes, labels, codes, labels, (1,)) == [1.0]

    def test_rank_covering_gallery_is_one(self):
        rng = np.random.default_rng(10)
        gallery = rng.normal(size=(5, 3))
        probes = rng.normal(size=(7, 3))
        g_labels = np.arange(5)
        p_labels = rng.integers(0, 5, size=7)
        assert rank_n_identification(gallery, g_labels, probes, p_labels, (5,)) == [1.0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        gallery = rng.normal(size=(6, 4))
        probes = rng.normal(size=(9, 4))
        g_labels = np.array([0, 1, 2, 0, 1, 2])
        p_labels = rng.integers(0, 3, size=9)
        got = rank_n_identification(gallery, g_labels, probes, p_labels, (1, 2, 4))
        assert got == [rank_n_loop_oracle(gallery, g_labels, probes, p_labels, n)
                       for n in (1, 2, 4)]

    def test_ties_resolved_by_gallery_order(self):
        same = np.array([[1.0, 0.0]])
        gallery = np.vstack([same, same])
        value, = rank_n_identification(gallery, np.array([5, 7]),
                                       same, np.array([7]), (1,))
        assert value == 0.0  # the earlier gallery row (label 5) wins the tie

    def test_missing_probe_subject_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rank_n_identification(np.eye(2), np.array([0, 1]),
                                  np.eye(2), np.array([0, 3]), (1,))

    def test_empty_gallery_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rank_n_identification(np.zeros((0, 2)), np.array([]),
                                  np.eye(2), np.array([0, 1]), (1,))

    def test_each_n_is_checked(self):
        with pytest.raises(InvalidArgumentError, match="^n must be at least 1$"):
            rank_n_identification(np.eye(2), np.arange(2), np.eye(2), np.arange(2), (1, 0))

    @pytest.mark.parametrize("side", ["gallery", "probes"])
    def test_infinite_norm_rejected_on_either_side(self, side):
        """A finite row of 1e160 has an infinite norm, which no cosine score can
        divide by, whether or not the row is ever scored against itself."""
        codes = {"gallery": np.eye(3), "probes": np.eye(3)}
        codes[side][1] = 1e160
        with (np.errstate(over="ignore"),
              pytest.raises(InvalidArgumentError, match="^pair scores must be finite$")):
            rank_n_identification(codes["gallery"], np.arange(3),
                                  codes["probes"], np.arange(3), (1,))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rank_inputs())
    @example((np.array([[1.0, 0.0], [0.0, 1.0], [-0.0, 1.0]]), np.array([4, 9, 4]),
              np.array([[1.0, -0.0]]), np.array([9]), 1))
    def test_counts_match_argsort_oracle(self, case):
        """Each probe's count of gallery entries ranked above its best same-subject
        entry, by blocks of probes, against the stable argsort of the whole score
        matrix: the same fraction for each n of one call, by repr."""
        *inputs, n = case
        assert (repr(rank_n_identification(*inputs, (n, 1)))
                == repr([argsorted_rank_n(*inputs, n), argsorted_rank_n(*inputs, 1)]))

    def test_peak_memory_per_block(self):
        """2,000 probes against 500 gallery codes hold the scores, the masks and the
        counts of one block of probes at a time: at most 40 bytes per score of a
        block of `_PAIR_BLOCK` probes (36.3 read), where the argsort of the whole
        score matrix held 24 bytes per score of every probe, 62 times as much."""
        rng = np.random.default_rng(12)
        gallery, probes = rng.normal(size=(500, 8)), rng.normal(size=(2000, 8))
        g_labels = np.arange(500)
        p_labels = rng.integers(0, 500, size=2000)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            rank_n_identification(gallery, g_labels, probes, p_labels, (1, 5))
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        block = _PAIR_BLOCK * g_labels.size
        assert peak <= 40 * block, f"{peak / block:.1f} B per score of a block"


# ---------------------------------------------------------------------------
# reconstruction scoring


def random_clouds(rng: np.random.Generator, pairs: int, n: int = 40) -> np.ndarray:
    return rng.normal(size=(pairs, 3 * n))


def moved_rows(shapes: np.ndarray, transform: SimilarityTransform) -> np.ndarray:
    return np.array([apply_transform(Shape(row), transform).coords for row in shapes])


def procrustes_loop_oracle(source: np.ndarray, target: np.ndarray) -> SimilarityTransform:
    """One-pair Umeyama alignment as procrustes_align computed it alone."""
    mu_src, mu_tgt = source.mean(axis=0), target.mean(axis=0)
    x, y = source - mu_src, target - mu_tgt
    var_src = float(np.mean(np.sum(x * x, axis=1)))
    u, s, vt = np.linalg.svd((y.T @ x) / source.shape[0])
    d = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        d[2] = -1.0
    rotation = u @ np.diag(d) @ vt
    scale = float(np.sum(s * d)) / var_src
    return SimilarityTransform(scale, rotation, mu_tgt - scale * (rotation @ mu_src))


def reconstruction_loop_oracle(predicted, ground_truth, landmark_indices,
                               nose_tip_index, crop_radius) -> ReconstructionReport:
    """The per-pair loop that evaluate_reconstruction stacks: one alignment,
    transform, crop and pair of norms per Shape pair."""
    indices = np.asarray(landmark_indices, dtype=np.int64)
    total_rmse = total_dist = 0.0
    for pred, truth in zip(map(Shape, predicted), map(Shape, ground_truth)):
        transform = procrustes_loop_oracle(select_landmarks(pred, indices),
                                           select_landmarks(truth, indices))
        aligned = apply_transform(pred, transform)
        crop = crop_indices(truth.points, nose_tip_index, crop_radius)
        total_rmse += rmse([(truth, aligned)], crop)
        diff = truth.points[crop] - aligned.points[crop]
        total_dist += float(np.mean(np.linalg.norm(diff, axis=1)))
    n_pairs = len(predicted)
    return ReconstructionReport(rmse_paper=total_rmse / n_pairs,
                                mean_vertex_dist=total_dist / n_pairs,
                                n_pairs=n_pairs, crop_radius=crop_radius)


@st.composite
def shape_pairs(draw):
    """1-6 random cloud pairs, each prediction a similarity motion of its
    ground truth plus noise, with a landmark subset, nose tip and radius."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs, n = draw(st.integers(1, 6)), draw(st.integers(6, 30))
    truth = rng.normal(size=(pairs, 3 * n))
    noise = draw(st.sampled_from([0.0, 1e-6, 0.05, 1.0]))
    predicted = np.array([apply_transform(Shape(row), SimilarityTransform(
        rng.uniform(0.3, 3.0), rotation_zyx(*rng.uniform(-np.pi, np.pi, size=3)),
        rng.normal(scale=5.0, size=3))).coords for row in truth])
    predicted += noise * rng.normal(size=predicted.shape)
    landmarks = np.sort(rng.choice(n, size=draw(st.integers(4, n)), replace=False))
    radius = draw(st.sampled_from([0.0, 0.7, 1.5, 100.0]))
    return predicted, truth, landmarks, int(rng.integers(n)), radius


class TestEvaluateReconstruction:
    def test_zero_for_identical(self):
        shapes = random_clouds(np.random.default_rng(12), 3)
        report = reconstruct(shapes, shapes, np.arange(8), 0, 100.0)
        assert report.rmse_paper < 1e-12
        assert report.mean_vertex_dist < 1e-12
        assert report.n_pairs == 3

    def test_rigid_copies_align_to_zero(self):
        truth = random_clouds(np.random.default_rng(13), 2)
        transform = SimilarityTransform(1.7, rotation_zyx(0.4, -0.3, 0.2),
                                        np.array([1.0, -2.0, 0.5]))
        predicted = moved_rows(truth, transform)
        report = reconstruct(predicted, truth, np.arange(10), 0, 100.0)
        assert report.rmse_paper < 1e-9
        assert report.mean_vertex_dist < 1e-9

    def test_matches_primitive_pipeline(self):
        rng = np.random.default_rng(14)
        truth = random_clouds(rng, 3)
        predicted = truth + 0.05 * rng.normal(size=truth.shape)
        indices = np.arange(12)
        assert (reconstruct(predicted, truth, indices, 4, 1.5)
                == reconstruction_loop_oracle(predicted, truth, indices, 4, 1.5))

    @pytest.mark.parametrize("nose_tip_index, crop_radius, message", [
        (40, 1.0, "nose_tip_index 40 out of range"),
        (-1, 1.0, "nose_tip_index -1 out of range"),
        (0, -0.5, "crop_radius must be finite and non-negative"),
        (0, float("nan"), "crop_radius must be finite and non-negative"),
    ])
    def test_crop_arguments_checked(self, nose_tip_index, crop_radius, message):
        shapes = random_clouds(np.random.default_rng(15), 2)
        with pytest.raises(InvalidArgumentError, match=message):
            reconstruct(shapes, shapes, np.arange(8), nose_tip_index,
                                    crop_radius)

    # The stacked crop sums each pair's squared residuals per vertex, then
    # over the crop, where the loop took one norm of the cropped block: the
    # same non-negative terms in another order. Over 3,000 draws of
    # `shape_pairs` the largest relative difference was 4.3e-16.
    @settings(max_examples=150, deadline=None)
    @given(shape_pairs())
    def test_stacked_pairs_match_per_pair_loop(self, case):
        got, want = reconstruct(*case), reconstruction_loop_oracle(*case)
        assert (got.n_pairs, got.crop_radius) == (want.n_pairs, want.crop_radius)
        assert got.rmse_paper == pytest.approx(want.rmse_paper, rel=1e-12, abs=0.0)
        assert got.mean_vertex_dist == pytest.approx(want.mean_vertex_dist, rel=1e-12,
                                                     abs=0.0)

    # One pass scores every prediction stack against one ground-truth side,
    # with the bits of computing that side afresh for each, and leaves the
    # ground-truth rows it reads unchanged.
    @settings(max_examples=150, deadline=None)
    @given(shape_pairs(), st.integers(0, 2 ** 32 - 1), st.integers(2, 3))
    def test_shared_truth_matches_unshared_oracle(self, case, seed, n_stacks):
        predicted, truth, landmarks, nose_tip_index, radius = case
        other = predicted + np.random.default_rng(seed).normal(size=predicted.shape)
        stacks, kept = (predicted, other, predicted)[:n_stacks], truth.copy()
        got = evaluate_reconstruction([copied_rows(stack) for stack in stacks],
                                      lambda rows: truth[rows], len(truth), landmarks,
                                      nose_tip_index, radius)
        want = [unshared_reconstruction(stack, truth, landmarks, nose_tip_index, radius)
                for stack in stacks]
        assert repr(got) == repr(want)
        assert truth.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("vertex, coord, message", [
        (2, 0, "pair 1: points must be finite"),
        (8, 2, "aligned shape of pair 1 is not finite"),
    ])
    def test_non_finite_prediction_named_as_unshared(self, vertex, coord, message):
        rng = np.random.default_rng(18)
        truth = random_clouds(rng, 3, n=10)
        predicted = truth + 0.1 * rng.normal(size=truth.shape)
        predicted[1, 3 * vertex + coord] = np.inf
        for score in (lambda: reconstruct(predicted, truth, np.arange(6), 0, 1.0),
                      lambda: unshared_reconstruction(predicted, truth, np.arange(6), 0, 1.0)):
            with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
                score()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(shape_pairs(), st.booleans())
    def test_report_validation(self, case, integral_radius):
        """The report's producer hands over Python scalars: non-negative
        errors, one pair or more, and the crop radius as a float."""
        predicted, truth, landmarks, nose_tip_index, radius = case
        radius = int(radius) if integral_radius else radius
        report = reconstruct(predicted, truth, landmarks, nose_tip_index, radius)
        assert_plain_fields(report)
        assert report.rmse_paper >= 0.0 and report.mean_vertex_dist >= 0.0
        assert report.n_pairs == len(predicted) >= 1
        assert type(report.crop_radius) is float and report.crop_radius == radius

    @pytest.mark.parametrize("k", [0, 2])
    def test_overflowing_error_names_its_pair(self, k):
        # a finite ground-truth vertex so far out that its squared residual
        # overflows: outside the crop, inf * 0 is NaN
        rng = np.random.default_rng(22)
        truth = random_clouds(rng, 3, n=10)
        predicted = truth + 0.1 * rng.normal(size=truth.shape)
        truth[k, 3 * 8] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError,
                               match=f"^pair {k}: reconstruction error is not finite$"):
                reconstruct(predicted, truth, np.arange(6), 0, 1.0)

    @pytest.mark.parametrize("k", [0, 2])
    def test_overflowing_landmarks_name_their_pair(self, k):
        # two finite landmark coordinates whose mean overflows: the alignment's
        # cross-covariance is not finite, and its SVD would not return
        rng = np.random.default_rng(23)
        truth = random_clouds(rng, 3, n=10)
        predicted = truth + 0.1 * rng.normal(size=truth.shape)
        truth[k, [3, 6]] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError,
                               match=f"^pair {k}: cross-covariance is not finite$"):
                reconstruct(predicted, truth, np.arange(6), 0, 1.0)

    def test_too_few_landmarks_named_as_unshared(self):
        shapes = random_clouds(np.random.default_rng(19), 2, n=10)
        for score in (reconstruct, unshared_reconstruction):
            with pytest.raises(InvalidArgumentError, match="^need at least 4 points, got 3$"):
                score(shapes, shapes, np.arange(3), 0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(shape_pairs())
    def test_stacked_transforms_match_procrustes_align(self, case):
        predicted, truth, landmarks = case[:3]
        source = predicted.reshape(len(predicted), -1, 3)[:, landmarks]
        target = truth.reshape(len(truth), -1, 3)[:, landmarks]
        scale, rotation, translation = procrustes_align_stack(source, target)
        for k in range(len(source)):
            for want in (procrustes_align(source[k], target[k]),
                         procrustes_loop_oracle(source[k], target[k])):
                assert scale[k] == want.scale
                assert np.array_equal(rotation[k], want.rotation)
                assert np.array_equal(translation[k], want.translation)

    @pytest.mark.parametrize("k", [0, 2, 4])
    @pytest.mark.parametrize("degenerate", ["coincident", "collinear"])
    def test_degenerate_pair_is_named(self, k, degenerate):
        rng = np.random.default_rng(17)
        truth = random_clouds(rng, 5, n=10)
        predicted = truth + 0.1 * rng.normal(size=truth.shape)
        points = predicted[k].reshape(-1, 3)
        if degenerate == "coincident":
            points[:] = points[0]
        else:
            points[:] = np.outer(np.linspace(-1.0, 1.0, 10), [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateGeometryError, match=f"pair {k}:"):
            reconstruct(predicted, truth, np.arange(6), 0, 1.0)

    def test_invariant_to_common_rigid_motion(self):
        rng = np.random.default_rng(15)
        truth = random_clouds(rng, 2)
        predicted = truth + 0.1 * rng.normal(size=truth.shape)
        base = reconstruct(predicted, truth, np.arange(10), 0, 2.0)
        motion = SimilarityTransform(1.0, rotation_zyx(-0.2, 0.3, 0.5),
                                     np.array([0.4, 0.1, -0.7]))
        moved = reconstruct(moved_rows(predicted, motion),
                                        moved_rows(truth, motion),
                                        np.arange(10), 0, 2.0)
        assert abs(base.rmse_paper - moved.rmse_paper) < 1e-9
        assert abs(base.mean_vertex_dist - moved.mean_vertex_dist) < 1e-9

    def test_input_validation(self):
        rng = np.random.default_rng(16)
        shape = random_clouds(rng, 1)
        with pytest.raises(InvalidArgumentError):
            reconstruct(np.empty((0, 120)), np.empty((0, 120)),
                                    np.arange(4), 0, 1.0)
        with pytest.raises(InvalidArgumentError):
            reconstruct(shape, shape, np.array([0, 1, 2, 40]), 0, 1.0)
        bad = shape.copy()
        bad[0, 5] = np.nan
        for predicted, truth in ((bad, shape), (shape, bad)):
            with pytest.raises(InvalidArgumentError):
                reconstruct(predicted, truth, np.arange(4), 0, 1.0)


CHUNK = _RECONSTRUCTION_CHUNK
# Held-out row counts around the chunk size: one row, a short and a full chunk,
# a chunk and one row, and two chunks and a tail.
CHUNKED_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]


def scored(predictors, ground_truth, landmark_indices, nose_tip_index, crop_radius):
    """`evaluate_reconstruction` of the predictors against a ground-truth stack."""
    return evaluate_reconstruction(predictors, truth_rows(ground_truth), len(ground_truth),
                                   landmark_indices, nose_tip_index, crop_radius)


def decoded_case(n_pairs: int, seed: int, n: int = 30) -> tuple:
    """Two (decoder, (c_id, c_res) codes of n_pairs rows) pairs, a mean shape
    and, near the first decoder's shapes, a ground truth with its landmarks,
    nose tip and crop radius."""
    rng = np.random.default_rng(seed)
    decoders = [(init_decoder(3 * n, 5, 3, seed=seed + k),
                 (rng.normal(size=(n_pairs, 5)), rng.normal(size=(n_pairs, 3))))
                for k in range(2)]
    mean = rng.normal(size=3 * n)
    truth = mean + 0.1 * rng.normal(size=(n_pairs, 3 * n))
    return decoders, mean, (truth, np.arange(0, n, 3), 0, 1.5)


def decoded_rows(dec, codes, mean):
    """eval's `predict`: the asked rows decoded into `out`, plus the mean."""
    def predict(rows, out):
        decode(dec, codes[0][rows], codes[1][rows], out=out)
        out += mean
    return predict


def whole_stack(dec, codes, mean, case) -> ReconstructionReport:
    """eval's reconstruction as it decoded and scored all rows at once."""
    shapes = decode(dec, *codes)
    shapes += mean
    return whole_stack_reconstruction(shapes, reconstruction_truth(*case))


# Each defect, in the order that scoring the whole ground truth, then a whole
# prediction stack, checks for it, as an edit of pair k's prediction or ground
# truth (10 vertices, the first 6 of them landmarks, a crop radius of 1 around
# vertex 0).
def _non_finite_truth(predicted, truth, k):
    truth[k, 3 * 7 + 1] = np.nan


def _non_finite_landmark(predicted, truth, k):
    predicted[k, 3 * 2] = np.inf


def _coincident(predicted, truth, k):
    predicted[k] = np.tile([0.5, -1.0, 2.0], 10)  # their mean is exact


def _collinear(predicted, truth, k):
    predicted[k] = np.outer(np.linspace(-1.0, 1.0, 10), [1.0, 2.0, 3.0]).ravel()


def _non_finite_vertex(predicted, truth, k):
    predicted[k, 3 * 8 + 2] = np.inf


def _overflowing_error(predicted, truth, k):
    truth[k, 3 * 8] = 1e300


DEFECTS = {"truth": (_non_finite_truth, InvalidArgumentError,
                     "ground-truth shapes must be finite"),
           "points": (_non_finite_landmark, InvalidArgumentError,
                      "pair {k}: points must be finite"),
           "coincident": (_coincident, DegenerateGeometryError,
                          "pair {k}: source points are coincident"),
           "collinear": (_collinear, DegenerateGeometryError,
                         "pair {k}: cross-covariance is rank deficient; "
                         "points are collinear or coincident"),
           "aligned": (_non_finite_vertex, InvalidArgumentError,
                       "aligned shape of pair {k} is not finite"),
           "error": (_overflowing_error, InvalidArgumentError,
                     "pair {k}: reconstruction error is not finite")}


def defective_case(defects: dict) -> tuple:
    """2 * CHUNK + 3 prediction and ground-truth rows of 10 vertices, pair k
    with the defect named by defects[k]."""
    rng = np.random.default_rng(24)
    truth = random_clouds(rng, 2 * CHUNK + 3, n=10)
    predicted = truth + 0.1 * rng.normal(size=truth.shape)
    for k, name in defects.items():
        DEFECTS[name][0](predicted, truth, k)
    return predicted, truth, np.arange(6), 0, 1.0


def raised(score, case) -> tuple:
    with pytest.raises(MorphfitError) as info:
        score(*case)
    return type(info.value), str(info.value)


def whole_stack_of(predicted, ground_truth, landmarks, nose_tip_index, radius):
    return whole_stack_reconstruction(predicted, reconstruction_truth(
        ground_truth, landmarks, nose_tip_index, radius))


class TestChunkedReconstruction:
    """`evaluate_reconstruction` composes the ground truth and scores every
    prediction stack a chunk of rows at a time; the whole-stack oracle scored
    each stack's rows at once against the whole ground truth."""

    @pytest.mark.parametrize("n_pairs", CHUNKED_SIZES)
    def test_decoded_chunks_match_whole_stack(self, n_pairs):
        decoders, mean, case = decoded_case(n_pairs, seed=n_pairs)
        got = scored([decoded_rows(dec, codes, mean) for dec, codes in decoders], *case)
        assert repr(got) == repr([whole_stack(dec, codes, mean, case)
                                  for dec, codes in decoders])
        assert [report.n_pairs for report in got] == [n_pairs, n_pairs]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 3 * CHUNK + 2), st.integers(0, 2 ** 32 - 1),
           st.integers(12, 40))
    def test_decoded_chunks_match_whole_stack_property(self, n_pairs, seed, n):
        decoders, mean, case = decoded_case(n_pairs, seed, n)
        got = scored([decoded_rows(dec, codes, mean) for dec, codes in decoders], *case)
        assert repr(got) == repr([whole_stack(dec, codes, mean, case)
                                  for dec, codes in decoders])

    @pytest.mark.parametrize("n_pairs", CHUNKED_SIZES)
    def test_copied_chunks_match_whole_stack(self, n_pairs):
        rng = np.random.default_rng(n_pairs)
        truth = random_clouds(rng, n_pairs, n=12)
        predicted = truth + 0.05 * rng.normal(size=truth.shape)
        case = predicted, truth, np.arange(8), 3, 1.2
        assert repr(reconstruct(*case)) == repr(whole_stack_of(*case))

    def test_holds_one_chunk_of_predictions(self):
        """Two prediction stacks and the ground truth, each from a function
        of the rows, cost a chunk of rows at a time."""
        rng = np.random.default_rng(25)
        truth = random_clouds(rng, 60 * CHUNK)
        predictors = [copied_rows(truth + 0.05 * rng.normal(size=truth.shape))
                      for _ in range(2)]
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            scored(predictors, truth, np.arange(10), 0, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= truth.nbytes / 8, f"{peak} B against a {truth.nbytes} B stack"

    def test_numerical_error_in_a_chunk_defers_to_the_whole_stack(self):
        """Under np.errstate(over="raise"), as `cli` runs, a prediction that
        overflows in the first chunk does not hide a ground truth that is not
        finite in the third: checking the whole ground truth first meets that."""
        predicted, truth, *args = defective_case({2 * CHUNK + 1: "truth"})
        predicted[0, 0] = 1e300

        def predict(rows, out):
            np.multiply(predicted[rows], 1e10, out=out)
        with np.errstate(over="raise"):
            with pytest.raises(InvalidArgumentError,
                               match="^ground-truth shapes must be finite$"):
                scored([predict], truth, *args)
            with pytest.raises(FloatingPointError):  # what the whole ground truth passes
                scored([predict], truth[:CHUNK], *args)

    @pytest.mark.parametrize("name", list(DEFECTS))
    @pytest.mark.parametrize("k", [0, CHUNK - 1, CHUNK + 5, 2 * CHUNK + 2])
    def test_failure_names_the_global_pair(self, name, k):
        case = defective_case({k: name})
        _, kind, message = DEFECTS[name]
        assert raised(reconstruct, case) == (kind, message.format(k=k))
        assert raised(whole_stack_of, case) == (kind, message.format(k=k))

    @pytest.mark.parametrize("early, late", [
        (early, late) for i, early in enumerate(DEFECTS) for late in list(DEFECTS)[i:]])
    def test_earlier_check_in_a_later_chunk_wins(self, early, late):
        """A pair in the third chunk failing a check that a pair in the first
        chunk passes is named, as when every pair is checked at each step;
        for one check in both, the first chunk's pair is. A ground truth that
        is not finite in the third chunk wins over any prediction, and the
        first stack's error over a second stack's that fails in pair 1."""
        first, last = 3, 2 * CHUNK + 1
        case = defective_case({first: late, last: early})
        _, kind, message = DEFECTS[early]
        want = (kind, message.format(k=first if early == late else last))
        assert raised(reconstruct, case) == raised(whole_stack_of, case) == want
        predicted, truth = case[:2]
        second = predicted.copy()
        _non_finite_landmark(second, truth, 1)

        def both(*case):
            return scored([copied_rows(predicted), copied_rows(second)], *case[1:])
        assert raised(both, case) == want


# ---------------------------------------------------------------------------
# disentangling diagnostics


@pytest.fixture(scope="module")
def heldout_dataset(small_model) -> Dataset:
    """Six subjects of three images; the last two subjects' six samples are
    held out, and the report scores them."""
    spec = DatasetSpec(n_subjects=6, images_per_subject=3, image_resolution=16,
                       seed=42)
    return build_dataset(small_model, spec)


def constant_encoder(input_dim: int) -> EncoderNet:
    bias = np.array([0.5, -0.25, 0.75, 0.1, -0.4])
    return EncoderNet((input_dim, 5), ("tanh",), 3, 2,
                      {"enc.0.weight": np.zeros((5, input_dim)), "enc.0.bias": bias})


def embedding(net: EncoderNet):
    """The embedding callable `disentangling_report` takes, for `net`."""
    return lambda images: encode_images(net, images)


def displacement_loop_oracle(embed, dataset) -> tuple[float, float]:
    """(displacement_ratio, summed displacement) as disentangling_report
    computed them one image at a time: each held-out image encoded alone,
    then its perturbed re-render encoded alone."""
    model = dataset.model
    rows = dataset.test_indices
    rng = np.random.default_rng(np.random.SeedSequence([dataset.spec.seed, 0x1d]))
    den, ratios = 0.0, []
    for i, image in zip(rows, dataset.images(rows)):
        base = embed(image[None, :])
        perturbation = rng.normal(0.0, 1.0, size=model.k_exp) * model.sigma_exp
        coeffs = CoeffPair(dataset.alpha_id[i], dataset.alpha_exp[i] + perturbation)
        other = dilate_max(rasterize_depth(model, coeffs, row_pose(dataset, i),
                                           dataset.spec.image_resolution))
        moved = embed(other.ravel()[None, :])
        d_res = float(np.linalg.norm(moved[1][0] - base[1][0]))
        d_id = float(np.linalg.norm(moved[0][0] - base[0][0]))
        den = den + d_res + d_id
        if d_res + d_id > 0:
            ratios.append(d_res / (d_res + d_id))
    return float(np.mean(ratios)) if ratios else float("nan"), den


def rowwise_encoder(input_dim: int, q_id: int = 3, q_res: int = 2):
    """A callable encoder that codes each row on its own, so its codes do not
    depend on how the rows are batched."""
    rng = np.random.default_rng(31)
    w_id, w_res = rng.normal(size=(q_id, input_dim)), rng.normal(size=(q_res, input_dim))

    def embed(batch: np.ndarray):
        return (np.array([np.tanh(w_id @ row) for row in batch]),
                np.array([np.tanh(w_res @ row) for row in batch]))
    return embed


def assert_matches_self_encoding_oracle(report, embed, dataset) -> None:
    """The report against the oracle that encodes all re-renders at once and takes
    the distance means over whole classes: the displacement ratio, the explained
    variance and the flag by repr, the two distance means within 1e-13 relative
    (they are summed by blocks of rows)."""
    want = self_encoding_disentangling_report(embed, dataset)
    for name in ("displacement_ratio", "variance_explained", "degenerate"):
        assert repr(getattr(report, name)) == repr(getattr(want, name)), name
    for name in ("intra_distance", "inter_distance"):
        got, oracle = getattr(report, name), getattr(want, name)
        assert type(got) is float and abs(got - oracle) <= 1e-13 * abs(oracle), name


class TestDisentanglingReport:
    def test_batched_codes_match_per_image_loop(self, heldout_dataset):
        embed = rowwise_encoder(256)
        report = disentangle(embed, heldout_dataset)
        ratio, den = displacement_loop_oracle(embed, heldout_dataset)
        assert den > 0.0 and not report.degenerate
        assert report.displacement_ratio == ratio

    # the report takes each row's norm from a stacked product of the row with
    # itself, which has np.linalg.norm's bits at every width; a sum of squares
    # rounds differently, which at (20, 8) shows in the ratio's last bit
    @pytest.mark.parametrize("q_id, q_res", [(1, 1), (8, 20), (20, 8), (33, 3)])
    def test_wide_codes_match_per_image_loop(self, small_model, q_id, q_res):
        dataset = build_dataset(small_model, DatasetSpec(
            n_subjects=8, images_per_subject=6, image_resolution=16, seed=7))
        embed = rowwise_encoder(256, q_id, q_res)
        report = disentangle(embed, dataset)
        assert report.displacement_ratio == displacement_loop_oracle(embed, dataset)[0]

    def test_encoder_net_matches_per_image_loop(self, heldout_dataset):
        net = init_encoder(256, 3, 2, hidden=(16,), seed=7)
        report = disentangle(embedding(net), heldout_dataset)
        ratio, _ = displacement_loop_oracle(
            lambda batch: encode_images(net, batch), heldout_dataset)
        assert abs(report.displacement_ratio - ratio) <= 1e-12 * abs(ratio)

    def test_constant_encoder_is_degenerate(self, heldout_dataset):
        report = disentangle(embedding(constant_encoder(256)), heldout_dataset)
        assert report.degenerate
        assert report.intra_distance < 1e-12
        assert report.inter_distance < 1e-12
        assert np.isnan(report.displacement_ratio)
        assert np.isnan(report.variance_explained)

    def test_reference_embedding_scores_perfectly(self, heldout_dataset):
        dataset = heldout_dataset
        model = dataset.model

        # precompute codes for every image the report will encode, keyed by
        # the raster bytes: identity code = subject one-hot, residual code
        # distinguishes the original from its perturbed re-render
        lookup = {}
        for i in dataset.test_indices:
            c_id = np.eye(dataset.spec.n_subjects)[dataset.labels[i]]
            lookup[dataset.depth[i].ravel().tobytes()] = (c_id, np.array([1.0, 0.0]))
        rng = np.random.default_rng(np.random.SeedSequence([dataset.spec.seed, 0x1d]))
        for i in dataset.test_indices:
            perturbation = rng.normal(0.0, 1.0, size=model.k_exp) * model.sigma_exp
            coeffs = CoeffPair(dataset.alpha_id[i],
                               dataset.alpha_exp[i] + perturbation)
            image = dilate_max(rasterize_depth(model, coeffs,
                                               row_pose(dataset, i),
                                               dataset.spec.image_resolution))
            c_id = np.eye(dataset.spec.n_subjects)[dataset.labels[i]]
            lookup.setdefault(image.ravel().tobytes(), (c_id, np.array([0.0, 1.0])))

        def embed(batch: np.ndarray):
            rows = [lookup[np.ascontiguousarray(row).tobytes()] for row in batch]
            return (np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))

        report = disentangle(embed, heldout_dataset)
        assert not report.degenerate
        assert report.intra_distance == 0.0
        assert report.inter_distance == 1.0
        assert report.displacement_ratio == 1.0
        assert abs(report.variance_explained - 1.0) < 1e-12

    @pytest.mark.parametrize("encoder", ["rowwise", "net", "constant"])
    def test_passed_codes_match_self_encoding_oracle(self, heldout_dataset, encoder):
        embed = {"rowwise": rowwise_encoder(256),
                 "net": embedding(init_encoder(256, 3, 2, hidden=(16,), seed=7)),
                 "constant": embedding(constant_encoder(256))}[encoder]
        images = heldout_dataset.images(heldout_dataset.test_indices)
        batches = []

        def recording(batch):
            batches.append(np.array(batch))
            return embed(batch)

        codes = embed(images)
        labels = heldout_dataset.labels[heldout_dataset.test_indices]
        got = disentangling_report(recording, heldout_dataset, codes,
                                   walked_distances(codes[0], labels))
        assert_matches_self_encoding_oracle(got, embed, heldout_dataset)
        # only the re-rendered images are encoded
        assert len(batches) == 1 and batches[0].shape == images.shape
        assert not np.array_equal(batches[0], images)

    @pytest.mark.parametrize("images_per_subject", [31, 33, 40, 97])
    def test_chunked_rerender_matches_self_encoding_oracle(self, small_model,
                                                           images_per_subject):
        """Two held-out subjects of 62-194 rows are re-rendered and encoded in even
        chunks of 33-64 rows, in row order: with an encoder that codes each row on
        its own, the report is the oracle's, which encodes all re-renders at once."""
        dataset = build_dataset(small_model, DatasetSpec(
            n_subjects=8, images_per_subject=images_per_subject, image_resolution=8,
            seed=images_per_subject))
        embed, sizes = rowwise_encoder(64), []

        def recording(batch):
            sizes.append(len(batch))
            return embed(batch)

        codes = embed(dataset.images(dataset.test_indices))
        got = disentangling_report(recording, dataset, codes, walked_distances(
            codes[0], dataset.labels[dataset.test_indices]))
        assert_matches_self_encoding_oracle(got, embed, dataset)
        rows = 2 * images_per_subject
        assert sum(sizes) == rows and max(sizes) - min(sizes) <= 1
        assert max(sizes) <= 64 and (min(sizes) > 32 or rows < 64)

    def test_peak_memory_per_row(self, small_model):
        """1,000 held-out rows hold one chunk of 64 re-rendered images and a few
        numbers per row: at most 1,024 bytes per held-out row above entry (648
        read), where the two whole N x N arrays, the distance classes and all the
        re-renders took 12,668."""
        dataset = build_dataset(small_model, DatasetSpec(
            n_subjects=100, images_per_subject=40, image_resolution=16, seed=3))
        embed = rowwise_encoder(256)
        rows = dataset.test_indices.size
        codes = embed(dataset.images(dataset.test_indices))
        distances = masked_distance_means(codes[0], dataset.labels[dataset.test_indices])
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            disentangling_report(embed, dataset, codes, distances)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert rows == 1000 and peak <= 1024 * rows, f"{peak / rows:.0f} B/row"

    def test_codes_must_cover_the_evaluated_rows(self, heldout_dataset):
        embed = rowwise_encoder(256)
        c_id, c_res = embed(heldout_dataset.images(heldout_dataset.test_indices))
        for codes in ((c_id[:5], c_res[:5]), (c_id, c_res[:5])):
            with pytest.raises(InvalidArgumentError, match="need codes of the 6 rows"):
                disentangling_report(embed, heldout_dataset, codes, (0.5, 1.0, True))

    def test_rejects_non_callable(self, heldout_dataset):
        with pytest.raises(InvalidArgumentError):
            disentangling_report(object(), heldout_dataset,
                                 (np.zeros((6, 3)), np.zeros((6, 2))), (0.5, 1.0, True))

    def test_needs_two_subjects(self, small_model):
        # two subjects hold out one
        one_heldout = build_dataset(small_model, DatasetSpec(
            n_subjects=2, images_per_subject=3, image_resolution=16, seed=42))
        with pytest.raises(InvalidArgumentError, match="^need at least two subjects$"):
            disentangle(embedding(constant_encoder(256)), one_heldout)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-3, 1.0, 1e3]),
           st.sampled_from(["rowwise", "net", "constant"]))
    def test_report_validation(self, heldout_dataset, seed, scale, encoder):
        """The report's one producer hands over Python scalars, and a finite
        displacement ratio unless the report is degenerate."""
        rng = np.random.default_rng(seed)
        w_id, w_res = scale * rng.normal(size=(3, 256)), scale * rng.normal(size=(2, 256))

        def rowwise(batch):
            return np.tanh(batch @ w_id.T), np.tanh(batch @ w_res.T)

        embed = {"rowwise": rowwise,
                 "net": embedding(init_encoder(256, 3, 2, hidden=(8,), seed=seed % 1000)),
                 "constant": embedding(constant_encoder(256))}[encoder]
        report = disentangle(embed, heldout_dataset)
        assert_plain_fields(report)
        assert report.degenerate or np.isfinite(report.displacement_ratio)
        assert report.degenerate or encoder != "constant"

    def test_non_finite_displacement_rejected(self, heldout_dataset):
        embed = rowwise_encoder(256)
        codes = embed(heldout_dataset.images(heldout_dataset.test_indices))

        def moved_to_infinity(batch):
            moved_id, moved_res = embed(batch)
            return moved_id, np.full_like(moved_res, np.inf)

        with pytest.raises(InvalidArgumentError,
                           match="^displacement_ratio must be finite unless degenerate$"):
            disentangling_report(moved_to_infinity, heldout_dataset, codes, masked_distance_means(
                codes[0], heldout_dataset.labels[heldout_dataset.test_indices]))


# ---------------------------------------------------------------------------
# pair building and the aggregate report


def record_classes(codes, labels) -> tuple[np.ndarray, np.ndarray]:
    """The genuine and the impostor scores of the oracle's pair record array."""
    pairs = verification_pairs(codes, labels)
    return pairs.score[pairs.is_genuine], pairs.score[~pairs.is_genuine]


def walked_distances(codes, labels) -> tuple:
    """The disentangling distances that `verification_report` sums in its genuine
    walk, with the fewest folds it takes."""
    return verification_report(codes, labels, n_folds=2)[1]


def gaussian_codes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n random 8-wide codes, three rows to a label."""
    return np.random.default_rng(n).normal(size=(n, 8)), np.arange(n) // 3


@st.composite
def split_inputs(draw):
    """Codes and labels for the class split by row block: 2 to about 200 rows,
    the block edges among them; continuous codes, so that a product's bits hang
    on how it is blocked, with repeated and zero rows among the draws; labels
    in any order, subject-major, or all one label."""
    n = draw(st.one_of(st.sampled_from([_PAIR_BLOCK, _PAIR_BLOCK + 1, 2 * _PAIR_BLOCK + 1]),
                       st.integers(2, 3 * _PAIR_BLOCK + 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    codes = rng.normal(size=(n, draw(st.integers(1, 12)))) * draw(st.sampled_from([1.0, 1e-3]))
    for _ in range(draw(st.integers(0, 3))):
        codes[rng.integers(n)] = codes[rng.integers(n)]
    if draw(st.integers(0, 3)) == 0:
        codes[rng.integers(n)] = 0.0
    labels = rng.integers(0, draw(st.one_of(st.just(1), st.integers(1, n))), size=n)
    if draw(st.booleans()):
        labels.sort()
    return codes, labels


class TestVerificationPairs:
    def test_index_order_and_scores(self):
        codes = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 1, 0])
        genuine, impostor = pair_scores(codes, labels)
        # of the pairs (0, 1), (0, 2) and (1, 2), only (0, 2) shares a label
        assert genuine.tolist() == [cosine_similarity(codes[0], codes[2])]
        assert impostor.tolist() == [cosine_similarity(codes[0], codes[1]),
                                     cosine_similarity(codes[1], codes[2])]

    def test_needs_two_codes(self):
        with pytest.raises(InvalidArgumentError, match="^need at least two codes$"):
            verification_report(np.ones((1, 2)), np.array([0]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(split_inputs())
    @example(gaussian_codes(33))
    @example(gaussian_codes(65))
    def test_class_split_matches_record_oracle(self, case):
        """The pair scores, and the distance means that the report sums in its
        genuine walk where each class has the two pairs its two folds need, by
        blocks of rows, against the record array and the N x N masks over the
        whole products, or the same error. Each block takes its own product, which
        has the whole product's bits where N <= 32 or N % 8 == 0 (OpenBLAS 0.3.31,
        one thread): there the scores are the same bytes, elsewhere within 4 ulp
        of 1. The means are summed by block, so they are within 1e-13 relative,
        plus 4 ulp of 1 where the distances may differ."""
        codes, labels = case
        exact = len(codes) <= _PAIR_BLOCK or len(codes) % 8 == 0
        got, want = outcome(pair_scores, codes, labels), outcome(record_classes, codes, labels)
        if not isinstance(want[0], np.ndarray):
            assert got == want
            return
        if exact:
            assert [c.tobytes() for c in got] == [c.tobytes() for c in want]
        for score, oracle in zip(got, want):
            assert score.size == oracle.size
            assert np.all(np.abs(score - oracle) <= 4 * np.spacing(1.0))
        same, other = masked_cosine_distances(codes, labels)
        if min(same.size, other.size) >= 2:  # as the report of two folds requires
            *means, spread = walked_distances(codes, labels)
            slack = 0.0 if exact else 4 * np.spacing(1.0)
            for mean, oracle in zip(means, (same, other)):
                assert abs(mean - oracle.mean()) <= 1e-13 * oracle.mean() + slack
            if exact:
                assert spread == bool(np.any(same > 0) or np.any(other > 0))

    @pytest.mark.parametrize("n, row", [(8, 7), (33, 0), (33, 32), (65, 40), (65, 64)])
    def test_huge_row_fails_on_its_diagonal(self, n, row):
        """A code row of 1e160 is finite, but its squares are not, so its norm is
        infinite: the report checks the norms once, before any block is scored,
        whichever block the row falls in, the last row's included."""
        codes, labels = gaussian_codes(n)
        codes[row] = 1e160
        with (np.errstate(over="ignore", invalid="ignore"),
              pytest.raises(InvalidArgumentError, match="^pair scores must be finite$")):
            verification_report(codes, labels)

    @pytest.mark.parametrize("seed", range(20))
    def test_distance_means_are_one_minus_the_scores(self, seed):
        """Up to 32 codes are one block: the genuine walk's distance means are one
        minus the scores that `pair_scores` returns, summed and divided once, bit
        for bit, as both take the same product of the same unit rows."""
        rng = np.random.default_rng(seed)
        codes, labels = rng.normal(size=(30, 20)), np.arange(30) // 3
        scores = pair_scores(codes, labels)
        means = walked_distances(codes, labels)[:2]
        assert means == tuple(float((1.0 - c).sum()) / c.size for c in scores)

    def test_peak_memory_per_pair(self):
        """The report, whose genuine walk sums the cosine distance means (it alone
        peaks at 4.4 bytes per pair), then scoring the pairs of the same codes
        through the program's blocks, holds the two classes of scores (8 bytes per
        pair) and one block of rows at a time, the previous block freed before the
        next is built: at most 12 bytes
        per pair above entry (9.8 read), where the two whole products took 33.4,
        and the record array and the N x N masks and copies more."""
        rng = np.random.default_rng(22)
        codes, labels = rng.normal(size=(1000, 8)), np.arange(1000) // 5
        n_pairs = 1000 * 999 // 2
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            means = verification_report(codes, labels)[1][:2]
            scores = pair_scores(codes, labels)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert sum(c.size for c in scores) == n_pairs and len(means) == 2
        assert peak <= 12 * n_pairs, f"{peak / n_pairs:.1f} B/pair"


@st.composite
def report_codes(draw):
    """Codes, labels and 2-10 folds for the report against the sorted-class oracle:
    2 to about 100 rows, the block edges among them, labels in any order or
    subject-major. The rows are copies of 1-6 small-integer rows with signed zeros
    among their entries (scores tie within and across the classes, orthogonal rows
    score a zero of either sign, one-wide codes score only -1 and 1), continuous, or
    continuous on a 0.1 grid; a zero row now and then fails the pair checks."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.one_of(st.sampled_from([_PAIR_BLOCK, _PAIR_BLOCK + 1, 2 * _PAIR_BLOCK + 1]),
                       st.integers(2, 3 * _PAIR_BLOCK + 8)))
    width, kind = draw(st.integers(1, 4)), draw(st.sampled_from(["pool", "normal", "grid"]))
    if kind == "pool":
        pool = rng.integers(-2, 3, size=(draw(st.integers(1, 6)), width)).astype(np.float64)
        pool[pool == 0] = rng.choice([0.0, -0.0], size=np.count_nonzero(pool == 0))
        pool[~pool.any(axis=1), 0] = 1.0
        codes = pool[rng.integers(0, len(pool), size=n)]
    else:
        codes = rng.normal(size=(n, width))
        if kind == "grid":
            codes = np.round(codes, 1)
            codes[~codes.any(axis=1), 0] = 0.1
    if draw(st.integers(0, 15)) == 0:
        codes[rng.integers(n)] = 0.0
    labels = rng.integers(0, draw(st.integers(1, n)), size=n)
    if draw(st.booleans()):
        labels.sort()
    return codes, labels, draw(st.integers(2, 10))


def oracle_report(codes, labels, n_folds=10, *ranks) -> VerificationReport:
    """The report as it kept both classes of pair scores and sorted them."""
    return sorted_class_report(*pair_scores(codes, labels), n_folds, *ranks)


class TestVerificationReport:
    def test_separated_codes_score_perfectly(self):
        codes = np.vstack([np.eye(3), np.eye(3)])  # two samples per axis
        labels = np.array([0, 1, 2, 0, 1, 2])
        report = verification_report(codes, labels, n_folds=3)[0]
        assert report.auc == 1.0
        assert report.eer == 0.0
        assert report.accuracy_mean == 1.0
        assert report.accuracy_std == 0.0
        assert report.rank1 is None and report.rank5 is None

    def test_rank_fields_pass_through(self):
        codes, labels = np.vstack([np.eye(2), np.eye(2)]), np.array([0, 1, 0, 1])
        report = verification_report(codes, labels, n_folds=2, rank1=0.8, rank5=0.95)[0]
        assert report.rank1 == 0.8
        assert report.rank5 == 0.95

    def test_sorts_its_arguments_in_place(self):
        """The sorted-class oracle sorts the two classes it is given; the report
        reads its codes and labels only."""
        genuine, impostor = np.array([0.9, 0.7, 0.8]), np.array([0.3, 0.1, 0.2])
        report = sorted_class_report(genuine, impostor, n_folds=3)
        assert genuine.tolist() == [0.7, 0.8, 0.9]
        assert impostor.tolist() == [0.1, 0.2, 0.3]
        assert report == copied_report([0.9, 0.7, 0.8], [0.3, 0.1, 0.2], 3)
        codes, labels = gaussian_codes(40)
        kept = codes.copy(), labels.copy()
        verification_report(codes, labels, 3)
        assert codes.tobytes() == kept[0].tobytes() and labels.tobytes() == kept[1].tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(report_codes())
    # the sentinel wins both folds: every genuine score is -1, most impostors 1
    @example((np.array([[1.0], [-1.0], [-1.0], [-1.0], [1.0], [1.0], [1.0], [1.0]]),
              np.array([0, 0, 0, 0, 1, 1, 1, 2]), 2))
    # holding out fold 1, the sentinel 0.0 lies below that fold's impostors, 1.0
    @example((np.array([[-1.0], [1.0], [1.0], [1.0]]), np.array([0, 0, 1, 1]), 2))
    # scores of either zero in both classes
    @example((np.array([[1.0, 0.0], [-0.0, -1.0], [0.0, 1.0], [-1.0, -0.0], [1.0, 0.0]]),
              np.array([0, 0, 1, 1, 1]), 2))
    @example((*gaussian_codes(65), 10))
    # the class checks, whose sizes follow from the labels, after the pair checks
    @example((np.eye(4), np.array([0, 0, 1, 1]), 1))
    @example((np.eye(4), np.array([0, 0, 1, 1]), 3))
    @example((np.vstack([np.eye(3), np.zeros((1, 3))]), np.arange(4), 2))
    def test_matches_sorted_class_oracle(self, case):
        """The counted report against the report on the two sorted classes of pair
        scores: every field by repr, or the same error message, whether the impostors
        are counted a few at a time or a whole run at once."""
        want = outcome(oracle_report, *case)
        for piece in (1, 7, evaluation._IMPOSTOR_PIECE):
            with mock.patch.object(evaluation, "_IMPOSTOR_PIECE", piece):
                got = outcome(lambda *args: verification_report(*args)[0], *case)
            assert type(got) is type(want) and repr(got) == repr(want), piece

    def test_peak_memory_per_pair(self):
        """The report keeps the genuine scores, the counts at each distinct genuine
        score, one block of rows and a piece of a fold's impostors at a time, never a
        score per impostor pair: at most 6 bytes per pair above its entry (4.4 read),
        where scoring both classes and sorting them took 11.2 (8 of them the two
        classes of scores)."""
        rng = np.random.default_rng(22)
        codes, labels = rng.normal(size=(1000, 8)), np.arange(1000) // 5
        n_pairs = 1000 * 999 // 2
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            verification_report(codes, labels)
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak <= 6 * n_pairs, f"{peak / n_pairs:.1f} B/pair"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(lambda q: code_rows(q, 5)), st.integers(2, 4),
           st.integers(2, 3))
    def test_report_validation(self, codes, n_labels, n_folds):
        """The report's producers hand over Python scalars: rates and accuracy
        in [0, 1], a finite non-negative std, and the ranks of
        `rank_n_identification` as floats."""
        labels = np.arange(len(codes)) % n_labels
        sizes = np.bincount(labels)
        genuine = int(np.sum(sizes * (sizes - 1) // 2))
        assume(min(genuine, len(codes) * (len(codes) - 1) // 2 - genuine) >= n_folds)
        _, gallery = np.unique(labels, return_index=True)
        probes = np.setdiff1d(np.arange(len(labels)), gallery)
        ranks = rank_n_identification(codes[gallery], labels[gallery],
                                      codes[probes], labels[probes], (1, 5))
        report = verification_report(codes, labels, n_folds, *ranks)[0]
        assert_plain_fields(report)
        for name in ("accuracy_mean", "eer", "auc", "tar_far10", "tar_far1", "rank1", "rank5"):
            assert 0.0 <= getattr(report, name) <= 1.0, name
        assert np.isfinite(report.accuracy_std) and report.accuracy_std >= 0.0


# ---------------------------------------------------------------------------
# the array paths against the loops they replaced


def counting_folds_oracle(folds, n_folds):
    """Fold accuracy by counting matches once per candidate threshold, over the
    contiguous folds of `stratified_folds`' (scores, genuine flags)."""
    scores, genuine = folds
    fold_size = scores.size // n_folds
    accuracies = []
    for k in range(n_folds):
        held = np.zeros(scores.size, dtype=bool)
        held[k * fold_size:(k + 1) * fold_size] = True
        s_train, g_train = scores[~held], genuine[~held]
        candidates = np.append(np.unique(s_train), s_train.max() + 1.0)
        correct = [(np.count_nonzero(g_train & (s_train >= t))
                    + np.count_nonzero(~g_train & (s_train < t)))
                   for t in candidates]
        threshold = candidates[int(np.argmax(correct))]
        s_held, g_held = scores[held], genuine[held]
        hits = (np.count_nonzero(g_held & (s_held >= threshold))
                + np.count_nonzero(~g_held & (s_held < threshold)))
        accuracies.append(hits / s_held.size)
    acc = np.array(accuracies)
    return float(acc.mean()), float(acc.std())


def eer_loop_oracle(curve):
    _, tar, far = curve
    f = far + tar - 1.0
    for i in range(len(f) - 1):
        lo, hi = f[i], f[i + 1]
        if lo == 0.0:
            return float(far[i])
        if lo > 0.0 >= hi:
            u = lo / (lo - hi)
            return float(far[i] + u * (far[i + 1] - far[i]))
    return float(far[-1])


def tar_at_far_dict_oracle(curve, far_target):
    _, tar, far = curve
    best = {}
    for fa, ta in zip(far, tar):
        best[float(fa)] = max(best.get(float(fa), 0.0), float(ta))
    xs = np.array(sorted(best))
    ys = np.array([best[x] for x in xs])
    return float(np.interp(far_target, xs, ys))


def rank_n_loop_oracle(gallery, g_labels, probes, p_labels, n):
    hits = 0
    for code, label in zip(probes, p_labels):
        sims = np.array([cosine_similarity(code, g) for g in gallery])
        top = np.argsort(-sims, kind="stable")[:n]
        hits += int(label in g_labels[top])
    return hits / probes.shape[0]


# scores on a coarse grid tie often; continuous ones almost never do
score_lists = st.sampled_from([
    st.integers(0, 6).map(lambda v: v / 6.0),
    st.floats(-1.0, 1.0, allow_nan=False),
]).flatmap(lambda scores: st.lists(scores, min_size=6, max_size=60))


@st.composite
def labelled_scores(draw):
    """Pairs with at least three of each class, the classes interleaved."""
    scores = draw(score_lists)
    flags = draw(st.lists(st.booleans(), min_size=len(scores),
                          max_size=len(scores)))
    flags[:6] = [True, False] * 3
    return by_class(scores, flags)


@st.composite
def code_rows(draw, width, min_rows):
    """Small non-zero integer codes: repeated rows and exact ties occur."""
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=width,
                                  max_size=width).filter(any),
                         min_size=min_rows, max_size=12))
    scale = draw(st.sampled_from([1.0, 0.1, 7.3]))
    return scale * np.array(rows, dtype=np.float64)


# scores that tie heavily, are all equal, are signed zeros, are continuous,
# or sit at and past 2**53, where max + 1.0 rounds back to max
score_pools = st.sampled_from([
    st.integers(0, 3).map(lambda v: v / 3.0),
    st.just(0.25),
    st.sampled_from([0.0, -0.0, 1.0]),
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(0, 3).map(lambda v: 2.0 ** 53 + 2.0 * v),
])


@st.composite
def folded_pairs(draw):
    """A pair count that divides into 2-4 folds, with free class flags, so
    single-class inputs and classes too small to stratify occur among the draws."""
    n_folds, size = draw(st.integers(2, 4)), draw(st.integers(1, 10))
    n = n_folds * size
    scores = draw(st.lists(draw(score_pools), min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (*by_class(scores, flags), n_folds)


@st.composite
def report_pairs(draw):
    """Any number of pairs for 2-4 stratified folds with free class flags, so
    single-class inputs and trimmed remainders occur among the draws."""
    n_folds, n = draw(st.integers(2, 4)), draw(st.integers(0, 40))
    scores = draw(st.lists(draw(score_pools), min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (*by_class(scores, flags), n_folds)


def outcome(fn, *args):
    """The call's result, or the type and message of its InvalidArgumentError."""
    try:
        return fn(*args)
    except InvalidArgumentError as exc:
        return type(exc), str(exc)


# the best training threshold of both folds is the sentinel: every impostor
# scores above every genuine pair, and impostors are the majority
SENTINEL_FOLDS = (*by_class([0.0, 1.0, 2.0, 0.1, 1.1, 2.1],
                            [True, False, False, True, False, False]), 2)
# the same, but fold 0 holds the largest score, 9.0, above fold 1's sentinel
# 6.0: the sentinel comes from the training scores, so fold 0 accepts it
HELD_OUT_ABOVE_SENTINEL = (*by_class([0.0, 1.0, 9.0, 0.1, 1.1, 5.0],
                                     [True, False, False, True, False, False]), 2)
# 0.0 is a genuine score of fold 0 only. Holding fold 0 out, the training
# candidates are 2.0 and the sentinel: 2.0 wins and scores 0 of 2 held-out
# pairs; holding fold 1 out, 0.0 wins and scores 1 of 2, so (0.25, 0.25). As a
# candidate for fold 0 as well, 0.0 would tie 2.0 and come first: (0.5, 0.0)
HELD_OUT_GENUINE_ONLY = (*by_class([0.0, 4.0, 2.0, 2.0], [True, False, True, False]), 2)
# three genuine and five impostor pairs in two folds: one of each class, 0.7
# and 9.0, is in no fold
BOTH_REMAINDERS = (*by_class([0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.4, 9.0],
                             [True, False, True, False, True, False, False, False]), 2)


class TestSortedSweepMatchesSearchOracle:
    """Each class's sorted fold runs and the ROC of the sorted classes against
    the per-fold sort-and-search they replaced: the same integer counts, so
    the same bits."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(folded_pairs())
    @example(SENTINEL_FOLDS)
    @example(HELD_OUT_ABOVE_SENTINEL)
    @example((*by_class([1e17, 0.0, 1e17, 0.0], [True, False] * 2), 2))
    @example(HELD_OUT_GENUINE_ONLY)
    @example(BOTH_REMAINDERS)
    def test_fold_accuracy(self, case):
        """The report's fold mean and std against the search over the oracle's
        stratified copy; the ROC oracle first, for the input checks' order."""
        def searched(genuine, impostor, n_folds):
            searched_roc_curve(genuine, impostor)
            return searched_accuracy_folds(stratified_folds(genuine, impostor, n_folds),
                                           n_folds)

        got = outcome(report_folds, *case)
        want = outcome(searched, *case)
        assert type(got) is type(want) and repr(got) == repr(want)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(folded_pairs())
    @example(SENTINEL_FOLDS)
    def test_roc_curve(self, case):
        got, want = outcome(roc_curve, *case[:2]), outcome(searched_roc_curve, *case[:2])
        if not isinstance(want, RocCurve):
            assert got == want
            return
        thresholds, tar, far = got
        RocCurve(np.column_stack(got))  # the invariants hold
        # a +-0.0 tie may come out of either sort as either zero
        assert np.array_equal(thresholds, want.thresholds)
        assert tar.tobytes() == want.tar.tobytes()
        assert far.tobytes() == want.far.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(report_pairs())
    @example(SENTINEL_FOLDS)
    @example(HELD_OUT_ABOVE_SENTINEL)
    @example((*by_class([1e17, 0.0, 1e17, 0.0, 1e17], [True, False] * 2 + [True]), 2))
    @example((*by_class([0.0, -0.0, 0.0, -0.0, 1.0, -0.0], [True, False] * 3), 3))
    @example(HELD_OUT_GENUINE_ONLY)
    @example(BOTH_REMAINDERS)
    def test_report(self, case):
        """The report against the ROC oracle plus the fold search oracle over
        the rearranged copy: every field bit for bit, and every error message
        in the same order."""
        got = outcome(copied_report, *case)
        want = outcome(searched_verification_report, *case)
        assert type(got) is type(want) and repr(got) == repr(want)

    def test_sentinel_wins_the_inverted_folds(self):
        # the held-out folds, scored with the threshold above every score:
        # each rejects its one genuine pair and both impostors
        assert report_folds(*SENTINEL_FOLDS) == (2 / 3, 0.0)


@st.composite
def ranked_pairs(draw):
    """Two sorted classes of 1-20 scores from one pool of `score_pools` (so
    one-element classes, all-equal scores and scores past 2**53 occur), and a
    vertex FAR k/I of the impostor class."""
    scores = draw(score_pools)
    genuine, impostor = (np.sort(np.array(draw(st.lists(scores, min_size=1, max_size=20))))
                         for _ in range(2))
    return genuine, impostor, draw(st.integers(1, impostor.size)) / impostor.size


class TestCountsMatchCurveOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(ranked_pairs())
    @example((np.array([1e17]), np.array([0.0]), 1.0))
    @example((np.array([2.0 ** 53]), np.array([2.0 ** 53, 2.0 ** 53]), 0.5))
    def test_eer_tar_at_far_and_auc(self, case):
        """EER and TAR@FAR (at FAR 1, a vertex FAR and 0.01) bit for bit against
        the ROC arrays; the AUC as the exact rational 2U / (2 G I), within 4 ulp
        of the trapezoid over the same arrays."""
        genuine, impostor, vertex_far = case
        curve = sorted_roc(genuine, impostor)
        assert repr(sorted_eer(genuine, impostor)) == repr(curve_eer(curve))
        for target in (1.0, vertex_far, 0.01):
            assert (repr(sorted_tar_at_far(genuine, impostor, target))
                    == repr(curve_tar_at_far(curve, target))), target
        value, trapezoid = sorted_auc(genuine, impostor), trapezoid_auc(curve)
        assert value == mann_whitney_auc(genuine, impostor)
        assert abs(value - trapezoid) <= 4 * np.spacing(max(value, trapezoid))


class TestArrayPathsMatchLoopOracles:
    @settings(max_examples=150, deadline=None)
    @given(labelled_scores(), st.integers(2, 3))
    def test_sorted_fold_search_matches_counting(self, classes, n_folds):
        folds = stratified_folds(*classes, n_folds)
        assert report_folds(*classes, n_folds) == counting_folds_oracle(folds, n_folds)

    @settings(max_examples=150, deadline=None)
    @given(labelled_scores(), st.floats(0.001, 1.0))
    def test_eer_and_tar_match_loops(self, classes, far_target):
        curve = roc_curve(*classes)
        assert sorted_eer(*ranked(*classes)) == eer_loop_oracle(curve)
        assert sorted_tar_at_far(*ranked(*classes), far_target) == tar_at_far_dict_oracle(
            curve, far_target)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda q: code_rows(q, 2)))
    def test_matrix_pair_scores_match_cosine(self, codes):
        n = len(codes)
        labels = np.arange(n) % 3
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        expected = by_class([cosine_similarity(codes[i], codes[j]) for i, j in upper],
                            [labels[i] == labels[j] for i, j in upper])
        for got, want in zip(pair_scores(codes, labels), expected):
            assert got.size == want.size
            assert np.all(np.abs(got - want) <= 4 * np.spacing(1.0))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda q: st.tuples(code_rows(q, 1), code_rows(q, 1))),
        st.integers(1, 4), st.data())
    def test_rank_n_matches_stable_sort(self, codes, n, data):
        """Equal wherever the ranking does not hang on the last ulp.

        Repeated gallery rows tie exactly in both paths, which tests the
        gallery-order tie break. Distinct rows whose cosines to a probe
        agree in exact arithmetic can round apart in either path (a probe
        (0, 0, .1, .1) against (0, .1, 0, 0) and (0, 0, .1, -.1): the
        per-pair dot gives 4e-17 and 0, the matrix product 0 and 0), so
        draws with such a near-tie are left out.
        """
        gallery, probes = codes
        for code in probes:
            sims = np.array([cosine_similarity(code, g) for g in gallery])
            close = np.abs(sims[:, None] - sims[None, :]) <= 8 * np.spacing(1.0)
            same = np.all(gallery[:, None] == gallery[None, :], axis=2)
            assume(not np.any(close & ~same))
        g_labels = np.arange(len(gallery)) % 3
        p_labels = np.array(data.draw(st.lists(
            st.sampled_from(g_labels.tolist()), min_size=len(probes),
            max_size=len(probes))))
        assert (rank_n_identification(gallery, g_labels, probes, p_labels, (n,))
                == [rank_n_loop_oracle(gallery, g_labels, probes, p_labels, n)])
