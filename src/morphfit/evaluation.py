"""Verification, identification, reconstruction and disentangling metrics.

Scores here are similarities (larger = more alike); every threshold sweep
uses the fixed convention accept iff score >= threshold. All operations are
pure and deterministic.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, MorphfitError, require
from .geometry import MIN_POINTS, MorphableModel, _align_centred, _centred, _fail
from .synthetic import render_depths


class VerificationReport(NamedTuple):
    """Fold accuracy, threshold-free rates, and optional identification ranks.
    The field names, in order, are the columns of `verification.csv`."""

    accuracy_mean: float
    accuracy_std: float
    eer: float
    auc: float
    tar_far10: float
    tar_far1: float
    rank1: float | None = None
    rank5: float | None = None


class ReconstructionReport(NamedTuple):
    """Aggregate shape error over aligned, nose-cropped prediction pairs.

    rmse_paper divides each pair's stacked coordinate difference norm by the
    cropped vertex count; mean_vertex_dist is the companion per-vertex mean
    Euclidean distance, reported because the two summaries differ by a factor
    of roughly sqrt(n_c) and either may be wanted downstream. The field names,
    in order, are the columns of `reconstruction.csv`.
    """

    rmse_paper: float
    mean_vertex_dist: float
    n_pairs: int
    crop_radius: float


class DisentanglingReport(NamedTuple):
    """Identity-code separation diagnostics.

    Distances are cosine distances of identity codes; displacement_ratio is
    ||d c_res|| / (||d c_res|| + ||d c_id||) averaged over expression-only
    perturbation pairs (1.0 = perfectly absorbed by the residual head);
    variance_explained is the between-subject share of identity-code
    variance. A constant encoder makes every field 0/0, reported via the
    degenerate flag with NaN ratios. The field names, in order, are the
    columns of `disentangling.csv`.
    """

    intra_distance: float
    inter_distance: float
    displacement_ratio: float
    variance_explained: float
    degenerate: bool


def _cosine_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of every row of a with every row of b, guarding norms."""
    require(bool(np.all(np.isfinite(a))) and bool(np.all(np.isfinite(b))),
            "codes must be finite")
    norms_a, norms_b = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    require(bool(np.all(norms_a > 0)) and bool(np.all(norms_b > 0)),
            "cosine similarity needs non-zero vectors")
    sims = np.clip(a @ b.T / np.outer(norms_a, norms_b), -1.0, 1.0)
    require(bool(np.all(np.isfinite(sims))), "pair scores must be finite")
    return sims


def _split_scores(pairs: np.recarray) -> tuple[np.ndarray, np.ndarray]:
    """The genuine and the impostor scores, each a new array in index order."""
    require(len(pairs) > 0, "need at least one scored pair")
    scores = np.asarray(pairs["score"], dtype=np.float64)
    genuine = np.asarray(pairs["is_genuine"], dtype=bool)
    require(bool(np.all(np.isfinite(scores))), "pair scores must be finite")
    require(bool(genuine.any()) and bool((~genuine).any()),
            "need at least one genuine and one impostor pair")
    return scores[genuine], scores[~genuine]


def _sentinel(top: float) -> float:
    """A threshold above top (top + 1.0 rounds back to top once |top| >= 2**53)."""
    return max(top + 1.0, np.nextafter(top, np.inf))


def _roc(genuine: np.ndarray, impostor: np.ndarray) -> tuple:
    """The ROC (thresholds, TAR, FAR) of the sorted genuine and impostor scores:
    the distinct scores, then a sentinel; both rates fall from 1 to 0."""
    ranked = np.concatenate([genuine, impostor])
    ranked.sort(kind="stable")  # a merge of two sorted runs
    # below[j] scores lie under threshold j: its run of equal scores starts there
    below = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1], True])
    thresholds = np.append(ranked[below[:-1]], _sentinel(ranked[-1]))
    del ranked
    genuine_below = np.searchsorted(genuine, thresholds)
    tar = (genuine.size - genuine_below) / genuine.size
    far = (impostor.size - (below - genuine_below)) / impostor.size
    return thresholds, tar, far


def auc(curve: tuple) -> float:
    """Trapezoidal area under TAR(FAR) of an ROC (thresholds, TAR, FAR).

    Equals the Mann-Whitney statistic with ties counted one half, because a
    tie block appears as a single diagonal segment of the polyline. The
    polyline is walked in decreasing-threshold order; re-sorting by FAR would
    scramble the neighbors of vertical (tied-FAR) runs.
    """
    _, tar, far = curve
    return float(np.trapezoid(tar[::-1], far[::-1]))


def eer(curve: tuple) -> float:
    """Rate where FAR crosses 1 - TAR, linearly interpolated on the polyline."""
    _, tar, far = curve
    # f = FAR - (1 - TAR) runs from +1 at the smallest score to -1 at the
    # sentinel and never rises: it crosses zero after its last positive point
    f = far + tar - 1.0
    i = int(np.argmax(f <= 0.0)) - 1
    u = f[i] / (f[i] - f[i + 1])
    return float(far[i] + u * (far[i + 1] - far[i]))


def tar_at_far(curve: tuple, far_target: float) -> float:
    """TAR linearly interpolated at the requested FAR (upper envelope)."""
    require(np.isfinite(far_target) and 0.0 < far_target <= 1.0,
            f"far_target must lie in (0, 1], got {far_target}")
    _, tar, far = curve
    # collapse vertical runs (same FAR, several TARs) to the best TAR: both
    # rates are non-increasing in the threshold, so a FAR's first point has it
    first = np.flatnonzero(np.r_[True, far[1:] != far[:-1]])[::-1]
    return float(np.interp(far_target, far[first], tar[first]))


def _fold_accuracy(genuine: np.ndarray, impostor: np.ndarray,
                   n_folds: int) -> tuple[float, float]:
    """Mean and population std over folds of each fold's accuracy at the
    threshold that scores best on the other folds: fold k is the k-th of n_folds
    equal runs of each class (a remainder is in no fold), sorted in place. Of the
    distinct training scores and a sentinel above them, the first with the most
    accepted genuine plus rejected impostor training pairs wins. That is a
    training genuine score or the sentinel: from any other score up to the next
    of those, the accepted genuine pairs stay and the rejected impostors do not fall."""
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
        else:  # the sentinel above the largest training score rejects them all
            threshold = _sentinel(np.delete(tops, k).max())
        hits = (g_per - int(np.searchsorted(g_runs[k], threshold))
                + int(np.searchsorted(i_runs[k], threshold)))
        accuracies[k] = hits / (g_per + i_per)
    return float(accuracies.mean()), float(accuracies.std())


def rank_n_identification(gallery_codes: np.ndarray, gallery_labels: np.ndarray,
                          probe_codes: np.ndarray, probe_labels: np.ndarray,
                          n: int) -> float:
    """Fraction of probes whose subject is among the n nearest gallery codes.

    Similarity is cosine; ties keep gallery index order (stable sort).
    """
    gallery = np.asarray(gallery_codes, dtype=np.float64)
    probes = np.asarray(probe_codes, dtype=np.float64)
    g_labels = np.asarray(gallery_labels).ravel()
    p_labels = np.asarray(probe_labels).ravel()
    require(gallery.ndim == 2 and gallery.shape[0] >= 1, "gallery is empty")
    require(probes.ndim == 2 and probes.shape[0] >= 1, "no probes given")
    require(gallery.shape[1] == probes.shape[1], "code widths differ")
    require(g_labels.size == gallery.shape[0] and p_labels.size == probes.shape[0],
            "labels must be row-aligned with codes")
    missing = set(p_labels.tolist()) - set(g_labels.tolist())
    require(not missing, f"probe subjects missing from gallery: {sorted(missing)}")
    require(int(n) >= 1, "n must be at least 1")
    n = int(n)
    sims = _cosine_matrix(probes, gallery)
    top = np.argsort(-sims, axis=1, kind="stable")[:, :n]
    hits = np.count_nonzero(np.any(g_labels[top] == p_labels[:, None], axis=1))
    return float(hits / probes.shape[0])


def reconstruction_truth(ground_truth: np.ndarray, landmark_indices: np.ndarray,
                         nose_tip_index: int, crop_radius: float) -> tuple:
    """evaluate_reconstruction's checked ground-truth side of (N, 3n) shape rows,
    once for any number of prediction stacks: the (N, n, 3) points, landmark
    indices, the landmarks' `_centred` form, the (N, n) mask of the vertices
    within crop_radius of each nose tip (boundary included), its row counts and crop_radius."""
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


# Rows per chunk of `evaluate_reconstruction`, at most: about 1.4 MB of buffers
# at the default model size, a decoder's residual term included.
_RECONSTRUCTION_CHUNK = 32


def evaluate_reconstruction(predict, truth: tuple,
                            chunk: int = _RECONSTRUCTION_CHUNK) -> ReconstructionReport:
    """Shape error of the predictions that ``predict(rows, out)`` writes, for a
    slice of rows, into the C-ordered (rows, 3n) array `out`, against the
    ground-truth rows whose `reconstruction_truth` is `truth`: each prediction
    aligned to its ground truth on the landmarks, then both cropped by the
    ground truth's nose-tip mask. The rows go in even chunks of at most `chunk`,
    never one row alone (its matrix-vector product has other bits than its row
    of a matrix product), through buffers allocated once. A failing pair is named
    as when the whole stack is scored as one chunk, which scoring then does."""
    points, indices, (mu, centred), crop, size, crop_radius = truth
    n_pairs, n_chunks = len(points), -(-len(points) // chunk)
    bounds = [k * n_pairs // n_chunks for k in range(n_chunks + 1)]
    predicted, aligned = np.empty((2, -(-n_pairs // n_chunks), *points.shape[1:]))
    paper, dist = np.empty(n_pairs), np.empty(n_pairs)
    try:
        for start, stop in zip(bounds, bounds[1:]):
            rows, pred_pts = slice(start, stop), predicted[:stop - start]
            predict(rows, pred_pts.reshape(stop - start, -1))
            source = pred_pts[:, indices]
            _fail(~np.isfinite(source).all(axis=(1, 2)), "points must be finite",
                  InvalidArgumentError)
            with np.errstate(over="ignore", invalid="ignore"):  # each step checks its pairs
                scale, rotation, translation = _align_centred(_centred(source),
                                                              (mu[rows], centred[rows]))
                out = np.matmul(pred_pts, np.swapaxes(scale[:, None, None] * rotation, 1, 2),
                                out=aligned[:stop - start])
                out += translation[:, None]
                bad = ~np.isfinite(out).all(axis=(1, 2))
                require(not bad.any(),
                        f"aligned shape of pair {int(np.argmax(bad))} is not finite")

                # squared residuals per vertex, summed in `out`
                out -= points[rows]
                out *= out
                squared = out[..., 0]
                squared += out[..., 1]
                squared += out[..., 2]
                squared *= crop[rows]
                paper[rows] = np.sqrt(squared.sum(axis=1)) / size[rows]
                dist[rows] = np.sqrt(squared, out=squared).sum(axis=1) / size[rows]
            _fail(~np.isfinite(paper[rows]), "reconstruction error is not finite",
                  InvalidArgumentError)
    except MorphfitError:
        if n_chunks == 1:
            raise
        return evaluate_reconstruction(predict, truth, n_pairs)
    return ReconstructionReport(rmse_paper=float(np.sum(paper)) / n_pairs,
                                mean_vertex_dist=float(np.sum(dist)) / n_pairs,
                                n_pairs=n_pairs, crop_radius=crop_radius)


def _cosine_distance_matrix(codes: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(codes, axis=1, keepdims=True)
    unit = codes / np.maximum(norms, 1e-300)
    return 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)


def disentangling_report(embed, dataset, codes: tuple) -> DisentanglingReport:
    """Measure identity/residual code separation on the held-out rows.

    Expression-only pairs are built by re-rendering each held-out sample
    with a freshly drawn residual coefficient vector at the identical pose,
    so the displacement ratio isolates the expression factor; the
    perturbation draws are seeded from the dataset seed.

    ``embed`` maps a (B, pixels) image array to an ``(identity_codes,
    residual_codes)`` pair: a trained encoder's ``encode_images``, or a
    reference embedding. ``codes`` is that pair for the held-out rows'
    images, in row order; ``embed`` encodes only their re-renders.
    """
    require(callable(embed), "embed must be callable")

    model: MorphableModel = dataset.model
    rows = dataset.test_indices
    labels = dataset.labels[rows]
    require(np.unique(labels).size >= 2, "need at least two subjects")
    require(len(rows) >= np.unique(labels).size * 2,
            "need at least two expressions per subject")
    c_id, c_res = codes
    require(len(c_id) == len(c_res) == len(rows), f"need codes of the {len(rows)} rows")

    dist = _cosine_distance_matrix(c_id)
    same = labels[:, None] == labels[None, :]
    upper = np.triu(np.ones_like(same, dtype=bool), k=1)
    intra = float(dist[same & upper].mean())
    inter = float(dist[~same & upper].mean())

    rng = np.random.default_rng(np.random.SeedSequence([dataset.spec.seed, 0x1d]))
    perturbation = rng.normal(0.0, 1.0, size=(len(rows), model.k_exp)) * model.sigma_exp
    moved_images = render_depths(model, dataset.alpha_id[rows],
                                 dataset.alpha_exp[rows] + perturbation,
                                 dataset.pose_scale[rows], dataset.pose_rotation[rows],
                                 dataset.pose_translation[rows],
                                 dataset.spec.image_resolution)
    moved_id, moved_res = embed(moved_images)
    # each difference row's norm from its dot product with itself, as np.linalg.norm takes it
    norms = [np.sqrt(d[:, None] @ d[..., None])[:, 0, 0].tolist()
             for d in (moved_res - c_res, moved_id - c_id)]
    den, ratios = 0.0, []
    for d_res, d_id in zip(*norms):
        den = den + d_res + d_id
        if d_res + d_id > 0:
            ratios.append(d_res / (d_res + d_id))

    # constant encoder: no pair moved, no identity spread to attribute
    degenerate = den <= 0.0 or not np.any(dist[upper] > 0)
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


def verification_pairs(codes: np.ndarray, labels: np.ndarray) -> np.recarray:
    """All unordered code pairs scored by cosine similarity, in index order.

    Returns a record array with fields ``score`` (float64) and ``is_genuine``
    (bool), one row per pair i < j in row-major order.
    """
    codes = np.asarray(codes, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    require(codes.ndim == 2 and codes.shape[0] == labels.size,
            "codes must be (n, q) row-aligned with labels")
    n = codes.shape[0]
    require(n >= 2, "need at least two codes")
    sims = _cosine_matrix(codes, codes)
    pairs = np.recarray(n * (n - 1) // 2, dtype=[("score", np.float64), ("is_genuine", bool)])
    scores, genuine, start = pairs["score"], pairs["is_genuine"], 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        scores[start:stop] = sims[i, i + 1:]
        np.equal(labels[i + 1:], labels[i], out=genuine[start:stop])
        start = stop
    return pairs


def verification_report(pairs: np.recarray, n_folds: int = 10,
                        rank1: float | None = None,
                        rank5: float | None = None) -> VerificationReport:
    """Assemble the standard report from one scored pair array.

    The threshold-free metrics use every pair; the fold accuracy runs on the
    stratified folds (a few pairs may be in no fold, to equalize them).
    """
    genuine, impostor = _split_scores(pairs)
    require(int(n_folds) >= 2, "need at least two folds")
    n_folds = int(n_folds)
    require(min(genuine.size, impostor.size) >= n_folds,
            f"need at least {n_folds} pairs of each class, got "
            f"{genuine.size} genuine / {impostor.size} impostor")
    mean, std = _fold_accuracy(genuine, impostor, n_folds)
    genuine.sort()
    impostor.sort()
    curve = _roc(genuine, impostor)
    return VerificationReport(accuracy_mean=mean, accuracy_std=std,
                              eer=eer(curve), auc=auc(curve),
                              tar_far10=tar_at_far(curve, 0.10),
                              tar_far1=tar_at_far(curve, 0.01),
                              rank1=rank1, rank5=rank5)
