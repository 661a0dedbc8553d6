"""Acceptance suite: ten end-to-end behavioral criteria, one test each.

Each test prints its measured values so a run log doubles as a results
table. The shared trained stack (phases I-III on the default dataset) is
built once and reused by the gradient, recognition, and disentangling
criteria.
"""

import contextlib
import io
import os
import statistics
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from morphfit.cli import _train_pipeline, cli
from morphfit.config import RunConfig
from morphfit.evaluation import rank_n_identification, verification_report
from morphfit.fitting import FitConfig, multi_image_fit
from morphfit.geometry import MorphableModel, rotation_zyx
from morphfit.network import (encode_images, finite_diff_check, init_decoder,
                              init_encoder, init_head, training_batch)

from conftest import disentangle, reconstruct
from oracles import (CoeffPair, LandmarkSet2D, PoseParams, Shape,
                     SimilarityTransform, apply_transform, compose_shape,
                     crop_indices, procrustes_align, render_landmarks, roc_curve,
                     solve_expression, solve_identity_shared, sorted_auc,
                     sorted_class_report, stratified_folds)


def wide_pose(rng: np.random.Generator) -> PoseParams:
    rotation = rotation_zyx(rng.uniform(-0.15, 0.15), rng.uniform(-0.25, 0.25),
                            rng.uniform(-0.15, 0.15))
    return PoseParams(rng.uniform(0.9, 1.1), rotation,
                      rng.uniform(-0.1, 0.1, size=3))


def draw_coeffs(model: MorphableModel, rng: np.random.Generator) -> CoeffPair:
    return CoeffPair(rng.normal(size=model.k_id) * model.sigma_id,
                     rng.normal(size=model.k_exp) * model.sigma_exp)


def exact_landmarks(model, coeffs, pose) -> LandmarkSet2D:
    return render_landmarks(model, coeffs, pose, 0.0, np.random.default_rng(0))


def identity_vertex_errors(model, alpha_true, alpha_hat) -> np.ndarray:
    diff = (model.basis_id @ (alpha_hat - alpha_true)).reshape(-1, 3)
    return np.linalg.norm(diff, axis=1)


@pytest.fixture(scope="module")
def trained_stack(default_dataset):
    """Default-config phases I-III on the default dataset, with wall time."""
    start = time.perf_counter()
    init, after2, after3, history, trace = _train_pipeline(RunConfig(),
                                                           default_dataset)
    seconds = time.perf_counter() - start
    return {"init": init, "after2": after2, "after3": after3,
            "history": history, "trace": trace, "seconds": seconds}


def test_criterion_01_exact_multi_image_recovery(desk_model):
    start = time.perf_counter()
    passes, worst_dist = [], 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        coeffs = draw_coeffs(desk_model, rng)
        sets = np.array([exact_landmarks(desk_model, coeffs, wide_pose(rng)).coords
                         for _ in range(5)])
        result = multi_image_fit(desk_model, sets, FitConfig())

        dist = float(np.max(identity_vertex_errors(
            desk_model, coeffs.alpha_id, result.alpha_id)))
        worst_dist = max(worst_dist, dist)
        assert dist < 1e-5
        trace = result.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
        assert result.converged
        assert result.iterations_used <= 10
        passes.append(result.iterations_used)
    elapsed = time.perf_counter() - start
    median_passes = statistics.median(passes)
    print(f"criterion 1: worst identity vertex error {worst_dist:.3e}, "
          f"passes median {median_passes} max {max(passes)}, {elapsed:.2f}s")
    assert median_passes <= 7
    assert elapsed < 10.0


def test_criterion_02_multi_image_beats_single_image(desk_model):
    start = time.perf_counter()
    config = FitConfig(reg_id=1e-3, reg_exp=1e-3)
    errors_m5, errors_m1 = [], []
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        coeffs = draw_coeffs(desk_model, rng)
        poses = [wide_pose(rng) for _ in range(5)]
        clean = exact_landmarks(desk_model, coeffs, poses[0]).coords
        extent = float(max(np.ptp(clean.reshape(-1, 2)[:, 0]),
                           np.ptp(clean.reshape(-1, 2)[:, 1])))
        sigma = 0.01 * extent
        noisy = np.array([render_landmarks(desk_model, coeffs, pose, sigma, rng).coords
                          for pose in poses])

        def mean_error(result):
            return float(np.mean(identity_vertex_errors(
                desk_model, coeffs.alpha_id, result.alpha_id)))

        errors_m5.append(mean_error(multi_image_fit(desk_model, noisy, config)))
        errors_m1.append(mean_error(multi_image_fit(desk_model, noisy[:1],
                                                    config)))
    elapsed = time.perf_counter() - start
    med5, med1 = statistics.median(errors_m5), statistics.median(errors_m1)
    print(f"criterion 2: median identity error M=5 {med5:.5f} "
          f"vs M=1 {med1:.5f}, {elapsed:.2f}s")
    assert med5 < med1
    assert elapsed < 60.0


def test_criterion_03_solvers_match_normal_equations():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        n, lm = 30, np.arange(10)
        k_exp = int(rng.integers(1, 13))
        m_images = int(rng.integers(1, 4))
        k_id = int(rng.integers(1, min(16, 20 * m_images - 1) + 1))
        model = MorphableModel(
            mean=rng.normal(size=3 * n),
            basis_id=rng.normal(size=(3 * n, k_id)) * 0.1,
            basis_exp=rng.normal(size=(3 * n, k_exp)) * 0.1,
            sigma_id=rng.uniform(0.5, 2.0, size=k_id),
            sigma_exp=rng.uniform(0.5, 2.0, size=k_exp),
            landmark_indices=lm, nose_tip_index=0)
        reg = float(rng.choice([0.0, 1e-3, 0.1]))

        def design(solve_for_exp: bool, alpha_id, alpha_exp, pose):
            def coords(a_id, a_exp):
                return exact_landmarks(model, CoeffPair(a_id, a_exp),
                                       pose).coords.ravel()
            base = coords(alpha_id, alpha_exp)
            k = k_exp if solve_for_exp else k_id
            cols = []
            for unit in np.eye(k):
                if solve_for_exp:
                    cols.append(coords(alpha_id, alpha_exp + unit) - base)
                else:
                    cols.append(coords(alpha_id + unit, alpha_exp) - base)
            return np.column_stack(cols), base

        # expression solve on one image
        alpha_id = rng.normal(size=k_id)
        pose = wide_pose(rng)
        a, base = design(True, alpha_id, np.zeros(k_exp), pose)
        target = base + a @ rng.normal(size=k_exp) + rng.normal(
            0.0, 0.01, size=base.size)
        landmarks = LandmarkSet2D(target)
        normal = a.T @ a + reg * np.diag(1.0 / model.sigma_exp ** 2)
        assert np.linalg.cond(normal) < 1e6
        brute = np.linalg.solve(normal, a.T @ (target - base))
        got = solve_expression(model, alpha_id, pose, landmarks, reg_exp=reg)
        err = np.linalg.norm(got - brute) / np.linalg.norm(brute)
        worst = max(worst, err)
        assert err < 1e-8

        # shared identity solve across m_images
        blocks, rhs, per_image = [], [], []
        for _ in range(m_images):
            alpha_exp = rng.normal(size=k_exp)
            pose_m = wide_pose(rng)
            a_m, base_m = design(False, np.zeros(k_id), alpha_exp, pose_m)
            target_m = base_m + a_m @ rng.normal(size=k_id) + rng.normal(
                0.0, 0.01, size=base_m.size)
            blocks.append(a_m)
            rhs.append(target_m - base_m)
            per_image.append((alpha_exp, pose_m, LandmarkSet2D(target_m)))
        a_all, r_all = np.vstack(blocks), np.concatenate(rhs)
        normal = a_all.T @ a_all + reg * np.diag(1.0 / model.sigma_id ** 2)
        assert np.linalg.cond(normal) < 1e6
        brute = np.linalg.solve(normal, a_all.T @ r_all)
        got = solve_identity_shared(model, per_image, reg_id=reg)
        err = np.linalg.norm(got - brute) / np.linalg.norm(brute)
        worst = max(worst, err)
        assert err < 1e-8
    print(f"criterion 3: worst solver-vs-normal-equations error {worst:.3e}")


def test_criterion_04_gradient_exactness(default_dataset, trained_stack):
    dataset = default_dataset
    model = dataset.model
    encoder = init_encoder(dataset.spec.image_resolution ** 2, model.k_id,
                           model.k_exp, seed=0)
    decoder = init_decoder(model.mean.size, model.k_id, model.k_exp,
                           seed=1)
    head = init_head(dataset.n_train_subjects, model.k_id, seed=2)
    batch = training_batch(dataset, dataset.train_indices[:16])

    start = time.perf_counter()
    err_init = finite_diff_check(encoder, decoder, head, batch, lambda_r=0.5)
    enc3, dec3, head3 = trained_stack["after3"]
    err_trained = finite_diff_check(enc3, dec3, head3, batch, lambda_r=1.0)
    elapsed = time.perf_counter() - start
    print(f"criterion 4: max relative gradient error {err_init:.3e} at init, "
          f"{err_trained:.3e} after phase III, {elapsed:.2f}s")
    assert err_init < 1e-5
    assert err_trained < 1e-5
    assert elapsed < 30.0


def test_criterion_05_phase2_subspace_recovery(default_dataset, trained_stack):
    model = default_dataset.model
    _enc1, dec2, _head = trained_stack["after2"]

    rng = np.random.default_rng(12345)
    alphas = rng.normal(size=(64, model.k_id)) * model.sigma_id
    codes = alphas / (3.0 * model.sigma_id)
    truth = alphas @ model.basis_id.T
    predicted = codes @ dec2.weight_id.T + dec2.bias_id
    mse = float(np.mean((predicted - truth) ** 2))
    assert mse < 1e-10

    coefs, *_ = np.linalg.lstsq(dec2.weight_id, model.basis_id, rcond=None)
    residual = model.basis_id - dec2.weight_id @ coefs
    col_residual = float(np.max(np.linalg.norm(residual, axis=0)
                                / np.linalg.norm(model.basis_id, axis=0)))
    print(f"criterion 5: held-out component MSE {mse:.3e}, "
          f"worst column-space residual {col_residual:.3e}")
    assert col_residual < 1e-8


def test_criterion_06_joint_training_preserves_recognition_and_recon(
        default_dataset, trained_stack):
    dataset = default_dataset
    model = dataset.model
    rows = dataset.test_indices
    images = dataset.images(rows)
    labels = dataset.labels[rows]
    truths = dataset.ground_truth_shapes(rows)

    enc1, dec2, _warm = trained_stack["after2"]
    enc3, dec3, _head3 = trained_stack["after3"]

    def held_out_auc(encoder):
        c_id, _ = encode_images(encoder, images)
        return verification_report(c_id, labels)[0].auc

    def recon_rmse(encoder, decoder):
        c_id, c_res = encode_images(encoder, images)
        deltas = (c_id @ decoder.weight_id.T + decoder.bias_id
                  + c_res @ decoder.weight_res.T + decoder.bias_res)
        return reconstruct(model.mean + deltas, truths, model.landmark_indices,
                           model.nose_tip_index, RunConfig().crop_radius).rmse_paper

    auc_phase2 = held_out_auc(enc1)
    auc_phase3 = held_out_auc(enc3)
    rmse_phase2 = recon_rmse(enc1, dec2)
    rmse_phase3 = recon_rmse(enc3, dec3)
    print(f"criterion 6: AUC {auc_phase2:.6f} -> {auc_phase3:.6f}, "
          f"recon RMSE {rmse_phase2:.6g} -> {rmse_phase3:.6g} "
          f"(ratio {rmse_phase3 / rmse_phase2:.3f}), "
          f"training {trained_stack['seconds']:.1f}s")
    assert auc_phase3 >= 0.90
    assert auc_phase3 >= auc_phase2
    assert rmse_phase3 <= 1.10 * rmse_phase2
    assert trained_stack["seconds"] < 600.0


def test_criterion_07_disentangling_diagnostics(default_dataset,
                                                trained_stack):
    enc3, _dec3, _head3 = trained_stack["after3"]
    report = disentangle(lambda images: encode_images(enc3, images), default_dataset)
    print(f"criterion 7: intra {report.intra_distance:.4f} "
          f"< inter {report.inter_distance:.4f}, "
          f"displacement ratio {report.displacement_ratio:.4f}")
    assert not report.degenerate
    assert report.intra_distance < report.inter_distance
    assert report.displacement_ratio > 0.5


def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(8)

    # AUC vs Mann-Whitney with half ties, 100 scores
    genuine = rng.integers(0, 8, size=60) / 8.0 + 0.1
    impostor = rng.integers(0, 8, size=40) / 8.0
    value = sorted_auc(np.sort(genuine), np.sort(impostor))
    wins = sum(1.0 if g > i else (0.5 if g == i else 0.0)
               for g in genuine for i in impostor)
    mw = wins / (60 * 40)
    assert abs(value - mw) < 1e-10

    # ROC points vs exhaustive pair counting, exact
    curve = roc_curve(genuine, impostor)
    for threshold, tar, far in zip(*curve):
        assert tar == np.count_nonzero(genuine >= threshold) / 60
        assert far == np.count_nonzero(impostor >= threshold) / 40

    # rank-N vs brute-force stable sorting
    gallery = np.round(rng.normal(size=(6, 3)), 1)
    g_labels = np.arange(6)
    probes = np.round(rng.normal(size=(20, 3)), 1)
    p_labels = rng.integers(0, 6, size=20)

    def unit(rows):
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    sims = unit(probes) @ unit(gallery).T
    for n in range(1, 7):
        brute = np.mean([p_labels[i] in
                         g_labels[np.argsort(-sims[i], kind="stable")[:n]]
                         for i in range(20)])
        got, = rank_n_identification(gallery, g_labels, probes, p_labels, (n,))
        assert got == brute

    # fold accuracy vs exhaustive threshold search over the stratified folds
    blocks = [(rng.integers(0, 6, size=5) / 6.0 + 0.15,
               rng.integers(0, 6, size=5) / 6.0) for _ in range(4)]
    genuine, impostor = (np.concatenate(c) for c in zip(*blocks))
    scores, is_genuine = stratified_folds(genuine, impostor, 4)
    report = sorted_class_report(genuine, impostor, n_folds=4)
    mean, std = report.accuracy_mean, report.accuracy_std
    fold_size = scores.size // 4
    accuracies = []
    for k in range(4):
        held = np.zeros(scores.size, dtype=bool)
        held[k * fold_size:(k + 1) * fold_size] = True
        s_tr, g_tr = scores[~held], is_genuine[~held]
        best_acc, best_t = -1.0, None
        for t in np.append(np.unique(s_tr), s_tr.max() + 1.0):
            acc = np.mean(np.where(s_tr >= t, g_tr, ~g_tr))
            if acc > best_acc:  # ties keep the smallest threshold
                best_acc, best_t = acc, t
        s_h, g_h = scores[held], is_genuine[held]
        accuracies.append(float(np.mean(np.where(s_h >= best_t, g_h, ~g_h))))
    assert abs(mean - np.mean(accuracies)) < 1e-12
    assert abs(std - np.std(accuracies)) < 1e-12
    print(f"criterion 8: AUC-vs-Mann-Whitney gap {abs(value - mw):.2e}, "
          f"ROC/rank-N/fold-accuracy oracles exact")


def test_criterion_09_geometry_oracles(desk_model):
    # Procrustes recovers a known similarity transform
    rng = np.random.default_rng(9)
    points = rng.normal(size=(40, 3))
    known = SimilarityTransform(1.37, rotation_zyx(0.3, -0.2, 0.5),
                                np.array([0.4, -1.2, 0.7]))
    moved = points @ (known.scale * known.rotation).T + known.translation
    est = procrustes_align(points, moved)
    transform_err = max(abs(est.scale - known.scale),
                        float(np.max(np.abs(est.rotation - known.rotation))),
                        float(np.max(np.abs(est.translation
                                            - known.translation))))
    assert transform_err < 1e-9

    # rigidly transformed copies evaluate to ~zero error
    truths, preds = [], []
    for _ in range(5):
        truth = compose_shape(desk_model, draw_coeffs(desk_model, rng))
        transform = SimilarityTransform(
            rng.uniform(0.8, 1.2),
            rotation_zyx(*rng.uniform(-0.4, 0.4, size=3)),
            rng.uniform(-1.0, 1.0, size=3))
        truths.append(truth.coords)
        preds.append(apply_transform(truth, transform).coords)
    rigid = reconstruct(np.array(preds), np.array(truths), desk_model.landmark_indices,
                        desk_model.nose_tip_index, 0.95)
    assert rigid.rmse_paper < 1e-9

    # a single-vertex (3, 4, 0) perturbation scores exactly 5 / n_c
    truth = compose_shape(desk_model, draw_coeffs(desk_model, rng))
    crop = crop_indices(truth.points, desk_model.nose_tip_index, 0.95)
    movable = np.setdiff1d(crop, desk_model.landmark_indices)
    vertex = int(movable[0])
    coords = truth.coords.copy()
    coords[3 * vertex:3 * vertex + 3] += (3.0, 4.0, 0.0)
    report = reconstruct(coords[None], truth.coords[None], desk_model.landmark_indices,
                         desk_model.nose_tip_index, 0.95)
    expected = 5.0 / crop.size
    print(f"criterion 9: transform error {transform_err:.2e}, rigid RMSE "
          f"{rigid.rmse_paper:.2e}, perturbation RMSE {report.rmse_paper:.9g} "
          f"vs 5/{crop.size}")
    assert report.rmse_paper == pytest.approx(expected, rel=1e-12)


def test_criterion_10_cli_byte_reproducibility(tmp_path):
    overrides = ["--set", "n_vertices=80", "--set", "k_id=4",
                 "--set", "k_exp=3", "--set", "n_subjects=8",
                 "--set", "images_per_subject=5",
                 "--set", "image_resolution=12", "--set", "epochs=2",
                 "--seed", "1"]
    root = str(tmp_path)
    data_dir, fit_dir = os.path.join(root, "data"), os.path.join(root, "fit")
    train_dir, eval_dir = os.path.join(root, "train"), os.path.join(root, "ev")
    dataset = os.path.join(data_dir, "dataset.mfd")

    def run_pipeline():
        commands = [
            ["gen-data", *overrides, "--out", data_dir],
            ["fit", "--data", dataset, "--subject", "0", *overrides,
             "--out", fit_dir],
            ["train", "--data", dataset, *overrides, "--out", train_dir],
            ["eval", "--data", dataset,
             "--checkpoint", os.path.join(train_dir, "phase3.ckpt"),
             "--baseline", os.path.join(train_dir, "phase2.ckpt"),
             *overrides, "--out", eval_dir],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli(argv) == 0, argv

    def snapshot():
        files = {}
        for directory, _subdirs, names in os.walk(root):
            for name in names:
                path = os.path.join(directory, name)
                files[os.path.relpath(path, root)] = Path(path).read_bytes()
        return files

    run_pipeline()
    first = snapshot()
    run_pipeline()
    second = snapshot()
    assert sorted(first) == sorted(second)
    differing = [name for name in first if first[name] != second[name]]
    print(f"criterion 10: {len(first)} pipeline files byte-identical "
          f"across reruns")
    assert differing == []
