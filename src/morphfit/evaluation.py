"""Verification, identification, reconstruction and disentangling metrics.

Scores here are similarities (larger = more alike); every threshold sweep
uses the fixed convention accept iff score >= threshold. All operations are
pure and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, require
from .geometry import MIN_POINTS, MorphableModel, _align_centred, _centred, _fail, _readonly
from .synthetic import render_depths


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


@dataclass(frozen=True)
class VerificationReport:
    """Fold accuracy, threshold-free rates, and optional identification ranks."""

    accuracy_mean: float
    accuracy_std: float
    eer: float
    auc: float
    tar_at_far_10pct: float
    tar_at_far_1pct: float
    rank1: float | None = None
    rank5: float | None = None

    def __post_init__(self):
        for name in ("accuracy_mean", "eer", "auc",
                     "tar_at_far_10pct", "tar_at_far_1pct", "rank1", "rank5"):
            value = getattr(self, name)
            if value is None:
                continue
            value = float(value)
            object.__setattr__(self, name, value)
            require(0.0 <= value <= 1.0, f"{name} must lie in [0, 1]")
        std = float(self.accuracy_std)
        object.__setattr__(self, "accuracy_std", std)
        require(np.isfinite(std) and std >= 0.0,
                "accuracy_std must be finite and non-negative")


@dataclass(frozen=True)
class ReconstructionReport:
    """Aggregate shape error over aligned, nose-cropped prediction pairs.

    rmse_paper divides each pair's stacked coordinate difference norm by the
    cropped vertex count; mean_vertex_dist is the companion per-vertex mean
    Euclidean distance, reported because the two summaries differ by a factor
    of roughly sqrt(n_c) and either may be wanted downstream.
    """

    rmse_paper: float
    mean_vertex_dist: float
    n_pairs: int
    crop_radius: float

    def __post_init__(self):
        object.__setattr__(self, "rmse_paper", float(self.rmse_paper))
        object.__setattr__(self, "mean_vertex_dist", float(self.mean_vertex_dist))
        object.__setattr__(self, "n_pairs", int(self.n_pairs))
        object.__setattr__(self, "crop_radius", float(self.crop_radius))
        require(self.rmse_paper >= 0 and self.mean_vertex_dist >= 0,
                "error summaries must be non-negative")
        require(self.n_pairs >= 1, "need at least one pair")


@dataclass(frozen=True)
class DisentanglingReport:
    """Identity-code separation diagnostics.

    Distances are cosine distances of identity codes; displacement_ratio is
    ||d c_res|| / (||d c_res|| + ||d c_id||) averaged over expression-only
    perturbation pairs (1.0 = perfectly absorbed by the residual head);
    variance_explained is the between-subject share of identity-code
    variance. A constant encoder makes every field 0/0, reported via the
    degenerate flag with NaN ratios.
    """

    intra_distance: float
    inter_distance: float
    displacement_ratio: float
    variance_explained: float
    degenerate: bool

    def __post_init__(self):
        for name in ("intra_distance", "inter_distance",
                     "displacement_ratio", "variance_explained"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "degenerate", bool(self.degenerate))
        if not self.degenerate:
            require(bool(np.isfinite(self.displacement_ratio)),
                    "displacement_ratio must be finite unless degenerate")


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
    require(len(pairs) > 0, "need at least one scored pair")
    scores = np.ascontiguousarray(pairs["score"], dtype=np.float64)
    genuine = np.ascontiguousarray(pairs["is_genuine"], dtype=bool)
    require(bool(np.all(np.isfinite(scores))), "pair scores must be finite")
    require(bool(genuine.any()) and bool((~genuine).any()),
            "need at least one genuine and one impostor pair")
    return scores, genuine


def _sweep(scores: np.ndarray, genuine: np.ndarray) -> tuple:
    """Over sorted scores, (below, genuine_below, sentinel): below[j] pairs, of
    them genuine_below[j] genuine, score below threshold j, which is the j-th
    distinct score, scores[below[j]], or for the last j the sentinel above all
    (max + 1.0 rounds back to max once |max| >= 2**53, hence nextafter there)."""
    new = np.empty(scores.size + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(scores[1:], scores[:-1], out=new[1:-1])
    below, top = np.flatnonzero(new), scores[-1]
    sentinel = max(top + 1.0, np.nextafter(top, np.inf))
    return below, np.r_[0, np.cumsum(genuine)][below], sentinel


def roc_curve(pairs: np.recarray) -> RocCurve:
    """Sweep accept-iff-score>=threshold over every distinct score.

    Thresholds are the distinct scores in increasing order plus one sentinel
    above the maximum, so the curve always reaches both (1, 1) (accept all)
    and (0, 0) (reject all). Ties share an operating point by construction.
    """
    scores, genuine = _split_scores(pairs)
    order = np.argsort(scores)
    below, genuine_below, sentinel = _sweep(scores[order], genuine[order])
    thresholds = np.append(scores[order[below[:-1]]], sentinel)
    n_genuine, n_impostor = genuine_below[-1], scores.size - genuine_below[-1]
    tar = (n_genuine - genuine_below) / n_genuine
    far = (n_impostor - (below - genuine_below)) / n_impostor
    return RocCurve(np.column_stack([thresholds, tar, far]))


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under TAR(FAR).

    Equals the Mann-Whitney statistic with ties counted one half, because a
    tie block appears as a single diagonal segment of the polyline. The
    polyline is walked in decreasing-threshold order; re-sorting by FAR would
    scramble the neighbors of vertical (tied-FAR) runs.
    """
    return float(np.trapezoid(curve.tar[::-1], curve.far[::-1]))


def eer(curve: RocCurve) -> float:
    """Rate where FAR crosses 1 - TAR, linearly interpolated on the polyline."""
    # f = FAR - (1 - TAR) runs from +1 at accept-all to -1 at reject-all, so
    # a sign change always exists along decreasing threshold.
    f = curve.far + curve.tar - 1.0
    lo, hi = f[:-1], f[1:]
    crossings = np.flatnonzero((lo == 0.0) | ((lo > 0.0) & (hi <= 0.0)))
    if crossings.size == 0:
        return float(curve.far[-1])
    i = int(crossings[0])
    if f[i] == 0.0:
        return float(curve.far[i])
    u = f[i] / (f[i] - f[i + 1])
    return float(curve.far[i] + u * (curve.far[i + 1] - curve.far[i]))


def tar_at_far(curve: RocCurve, far_target: float) -> float:
    """TAR linearly interpolated at the requested FAR (upper envelope)."""
    require(np.isfinite(far_target) and 0.0 < far_target <= 1.0,
            f"far_target must lie in (0, 1], got {far_target}")
    # collapse vertical runs (same FAR, several TARs) to the best TAR: both
    # rates are non-increasing in the threshold, so a FAR's first point has it
    fars, first = np.unique(curve.far, return_index=True)
    return float(np.interp(far_target, fars, curve.tar[first]))


def verification_accuracy_folds(pairs: np.recarray,
                                n_folds: int = 10) -> tuple[float, float]:
    """Cross-fold accuracy with the threshold tuned on the other folds.

    Pairs are split into contiguous folds; for each, the accept threshold
    maximizing accuracy on the remaining folds (ties toward the smallest
    threshold) is applied to the held-out fold. Returns the mean and
    population standard deviation across folds.
    """
    require(int(n_folds) >= 2, "need at least two folds")
    n_folds = int(n_folds)
    scores, genuine = _split_scores(pairs)
    require(scores.size % n_folds == 0,
            f"{scores.size} pairs do not divide into {n_folds} folds")
    size = scores.size // n_folds
    held_genuine = np.bincount(np.flatnonzero(genuine) // size, minlength=n_folds)
    train_genuine = held_genuine.sum() - held_genuine
    for k in range(n_folds):
        for count, total, what in ((held_genuine[k], size, "held-out"),
                                   (train_genuine[k], scores.size - size, "training")):
            require(0 < count < total, f"{what} fold {k} contains a single class")
    order = np.argsort(scores)
    s_sorted, g_sorted, fold_sorted = scores[order], genuine[order], order // size
    accuracies = np.empty(n_folds)
    for k in range(n_folds):
        train = np.flatnonzero(fold_sorted != k)
        s_train = s_sorted[train]
        below, genuine_below, sentinel = _sweep(s_train, g_sorted[train])
        # the first threshold with the most accepted genuine plus rejected
        # impostor pairs; the sentinel, rejecting all, is the last
        j = int(np.argmax(train_genuine[k] - 2 * genuine_below + below))
        threshold = s_train[below[j]] if j + 1 < below.size else sentinel
        s_held, g_held = scores[k * size:(k + 1) * size], genuine[k * size:(k + 1) * size]
        hits = (np.count_nonzero(g_held & (s_held >= threshold))
                + np.count_nonzero(~g_held & (s_held < threshold)))
        accuracies[k] = hits / size
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
    return hits / probes.shape[0]


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
    for c in range(3):
        np.subtract(points[..., c], points[:, nose_tip_index, c, None], out=scratch)
        dist += np.square(scratch, out=scratch)
    crop = np.sqrt(dist, out=dist) <= crop_radius
    return (points, indices, _centred(points[:, indices]), crop,
            np.count_nonzero(crop, axis=1), crop_radius)


def evaluate_reconstruction(predicted: np.ndarray, truth: tuple) -> ReconstructionReport:
    """Shape error of (N, 3n) `predicted` rows against the ground-truth rows whose
    `reconstruction_truth` is `truth`: each prediction similarity-aligned to its ground
    truth on the landmarks, then both cropped by the ground truth's nose-tip mask.
    Degenerate alignments propagate, naming the pair."""
    points, indices, landmarks, crop, size, crop_radius = truth
    predicted = np.asarray(predicted, dtype=np.float64)
    require(predicted.shape == (len(points), points[0].size),
            f"need predictions shaped like the ground truth, got {predicted.shape}")
    pred_pts = predicted.reshape(points.shape)
    source = pred_pts[:, indices]
    _fail(~np.isfinite(source).all(axis=(1, 2)), "points must be finite", InvalidArgumentError)
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
    n_pairs = points.shape[0]
    return ReconstructionReport(
        rmse_paper=float(np.sum(np.sqrt(squared.sum(axis=1)) / size)) / n_pairs,
        mean_vertex_dist=float(np.sum(np.sqrt(squared, out=squared).sum(axis=1) / size))
        / n_pairs, n_pairs=n_pairs, crop_radius=crop_radius)


def _cosine_distance_matrix(codes: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(codes, axis=1, keepdims=True)
    unit = codes / np.maximum(norms, 1e-300)
    return 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)


def disentangling_report(embed, dataset, codes: tuple) -> DisentanglingReport:
    """Measure identity/residual code separation on the evaluation split.

    Uses the held-out subjects when the dataset has them, every row
    otherwise. Expression-only pairs are built by re-rendering each
    evaluated sample with a freshly drawn residual coefficient vector at the
    identical pose, so the displacement ratio isolates the expression factor;
    the perturbation draws are seeded from the dataset seed.

    ``embed`` maps a (B, pixels) image array to an ``(identity_codes,
    residual_codes)`` pair: a trained encoder's ``encode_images``, or a
    reference embedding. ``codes`` is that pair for the evaluated rows'
    images, in row order; ``embed`` encodes only their re-renders.
    """
    require(callable(embed), "embed must be callable")

    model: MorphableModel = dataset.model
    rows = (dataset.test_indices if len(dataset.test_indices)
            else np.arange(dataset.labels.size))
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
    den, ratios = 0.0, []
    for k in range(len(rows)):
        d_res = float(np.linalg.norm(moved_res[k] - c_res[k]))
        d_id = float(np.linalg.norm(moved_id[k] - c_id[k]))
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
    require(codes.shape[0] >= 2, "need at least two codes")
    rows, cols = np.triu_indices(codes.shape[0], k=1)
    scores = _cosine_matrix(codes, codes)[rows, cols]
    return np.rec.fromarrays([scores, labels[rows] == labels[cols]],
                             names="score,is_genuine")


def stratified_folds(pairs: np.recarray, n_folds: int) -> np.recarray:
    """Rearrange pairs into equal contiguous folds, each with both classes.

    Genuine and impostor pairs are each cut, in incoming order, into n_folds
    equal runs (the remainder trimmed); fold k is the k-th genuine run then
    the k-th impostor run, so the contiguous fold protocol sees the same
    class balance everywhere. Needs at least n_folds pairs of each class.
    """
    require(int(n_folds) >= 2, "need at least two folds")
    n_folds = int(n_folds)
    flags = np.asarray(pairs["is_genuine"], dtype=bool)
    genuine, impostor = np.flatnonzero(flags), np.flatnonzero(~flags)
    require(genuine.size >= n_folds and impostor.size >= n_folds,
            f"need at least {n_folds} pairs of each class, got "
            f"{genuine.size} genuine / {impostor.size} impostor")
    g_per, i_per = genuine.size // n_folds, impostor.size // n_folds
    order = np.hstack([genuine[:n_folds * g_per].reshape(n_folds, g_per),
                       impostor[:n_folds * i_per].reshape(n_folds, i_per)])
    return pairs[order.ravel()]


def verification_report(pairs: np.recarray, n_folds: int = 10,
                        rank1: float | None = None,
                        rank5: float | None = None) -> VerificationReport:
    """Assemble the standard report from one scored pair array.

    The threshold-free metrics use every pair; the fold accuracy runs on the
    stratified rearrangement (a few pairs may be trimmed to equalize folds).
    """
    curve = roc_curve(pairs)
    mean, std = verification_accuracy_folds(stratified_folds(pairs, n_folds),
                                            n_folds)
    return VerificationReport(accuracy_mean=mean, accuracy_std=std,
                              eer=eer(curve), auc=auc(curve),
                              tar_at_far_10pct=tar_at_far(curve, 0.10),
                              tar_at_far_1pct=tar_at_far(curve, 0.01),
                              rank1=rank1, rank5=rank5)
