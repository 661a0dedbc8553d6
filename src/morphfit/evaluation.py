"""Verification, identification, reconstruction and disentangling metrics.

Scores here are similarities (larger = more alike); every threshold sweep
uses the fixed convention accept iff score >= threshold. All operations are
pure and deterministic.
"""

from __future__ import annotations

import bisect
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


_PAIR_BLOCK = 32  # rows per block of a pair pass, at most: never all N x N pairs at once
_EMBED_CHUNK = 64  # rows per chunk of the disentangling re-render (32 moved its ratio's last bit)


def _blocks(n: int, most: int = _PAIR_BLOCK) -> list[slice]:
    """n rows as even slices of at most `most` rows, never one row alone unless n
    is 1: one row's product is a matrix-vector product, which has other bits."""
    k = -(-n // most) or 1
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def _unit_rows(*codes: np.ndarray) -> list[np.ndarray]:
    """Each code array's rows divided by their norms, after the checks of every cosine
    score, in order: finite codes, non-zero norms, finite norms (a row of 1e160
    squares past the float range). A product of unit rows is bounded, so no score
    needs a check after it."""
    require(all(bool(np.all(np.isfinite(c))) for c in codes), "codes must be finite")
    norms = [np.linalg.norm(c, axis=1, keepdims=True) for c in codes]
    require(all(bool(np.all(n > 0)) for n in norms),
            "cosine similarity needs non-zero vectors")
    require(all(bool(np.all(np.isfinite(n))) for n in norms), "pair scores must be finite")
    return [c / n for c, n in zip(codes, norms)]


def _pair_blocks(unit: np.ndarray, labels: np.ndarray):
    """For each block s of `_blocks`, the cosine scores of the unit rows' pairs (i, j),
    i < j, i in s (``unit[s] @ unit.T``, clipped to [-1, 1]): the equal-label and the
    other ones, each row-major. A block's product can differ in its last bits from the
    same rows of the whole product (README, Determinism)."""
    n = labels.size
    for s in _blocks(n):
        scores, same = np.clip(unit[s] @ unit.T, -1.0, 1.0), labels[s, None] == labels
        upper = np.arange(n) > np.arange(n)[s, None]
        yield scores[upper & same], scores[upper & ~same]
        del scores, same, upper  # before the next block is built


def _rates(genuine: np.ndarray, impostor: np.ndarray, threshold) -> tuple[float, float]:
    """TAR and FAR at a threshold: the shares of the sorted classes at or above it."""
    g, i = genuine.size, impostor.size
    return ((g - int(np.searchsorted(genuine, threshold))) / g,
            (i - int(np.searchsorted(impostor, threshold))) / i)


def _crossing(genuine: np.ndarray, impostor: np.ndarray, holds) -> tuple:
    """(TAR, FAR) at the first ROC vertex (a distinct score, or inf above all) where
    ``holds(tar, far)``, which must stay true as the threshold rises, found by bisecting
    each class; and at the vertex before it, None if there is none."""
    def key(threshold) -> bool:
        return holds(*_rates(genuine, impostor, threshold))
    classes = (genuine, impostor)
    top = min((s[k] for s in classes if (k := bisect.bisect_left(s, True, key=key)) < s.size),
              default=np.inf)
    below = [s[k - 1] for s in classes if (k := int(np.searchsorted(s, top)))]
    return (_rates(genuine, impostor, top),
            _rates(genuine, impostor, max(below)) if below else None)


def _auc(genuine: np.ndarray, impostor: np.ndarray) -> float:
    """Area under the ROC of the sorted, non-empty genuine and impostor scores:
    the exact Mann-Whitney statistic 2U / (2 G I), ties counted one half, with
    2U summed as integers and divided once (correctly rounded)."""
    twice_u = sum(int(np.searchsorted(impostor, genuine, side).sum())
                  for side in ("left", "right"))
    return twice_u / (2 * genuine.size * impostor.size)


def _eer(genuine: np.ndarray, impostor: np.ndarray) -> float:
    """Rate where FAR crosses 1 - TAR, linearly interpolated on the ROC polyline
    of the sorted, non-empty genuine and impostor scores."""
    # f = FAR - (1 - TAR) never rises, from +1 at the smallest score to -1 above all
    (tar_hi, far_hi), (tar_lo, far_lo) = _crossing(
        genuine, impostor, lambda tar, far: far + tar - 1.0 <= 0.0)
    f_lo, f_hi = far_lo + tar_lo - 1.0, far_hi + tar_hi - 1.0
    return far_lo + f_lo / (f_lo - f_hi) * (far_hi - far_lo)


def _tar_at_far(genuine: np.ndarray, impostor: np.ndarray, far_target: float) -> float:
    """TAR linearly interpolated at the requested FAR on the upper envelope of
    the ROC of the sorted, non-empty genuine and impostor scores: of the vertices
    with one FAR, the first (lowest threshold) has the largest TAR."""
    require(np.isfinite(far_target) and 0.0 < far_target <= 1.0,
            f"far_target must lie in (0, 1], got {far_target}")
    top, below = _crossing(genuine, impostor, lambda tar, far: far <= far_target)
    # the envelope point at the next larger FAR is the first vertex of its run
    points = [top] if below is None else [
        top, _crossing(genuine, impostor, lambda tar, far: far <= below[1])[0]]
    tars, fars = zip(*points)
    return float(np.interp(far_target, fars, tars))


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
        else:  # a sentinel above the largest training score rejects them all
            top = np.delete(tops, k).max()  # top + 1.0 is top once |top| >= 2**53
            threshold = max(top + 1.0, np.nextafter(top, np.inf))
        hits = (g_per - int(np.searchsorted(g_runs[k], threshold))
                + int(np.searchsorted(i_runs[k], threshold)))
        accuracies[k] = hits / (g_per + i_per)
    return float(accuracies.mean()), float(accuracies.std())


def rank_n_identification(gallery_codes: np.ndarray, gallery_labels: np.ndarray,
                          probe_codes: np.ndarray, probe_labels: np.ndarray,
                          n: int) -> float:
    """Fraction of probes whose subject is among the n nearest gallery codes.

    Similarity is cosine; ties keep gallery index order (stable sort): a probe's rank
    counts the entries above its best same-subject one, by higher score or by lower
    index at an equal score, a block of probes at a time.
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
    probes, gallery = _unit_rows(probes, gallery)
    before, hits = np.arange(g_labels.size), 0
    for s in _blocks(probes.shape[0]):
        sims, same = np.clip(probes[s] @ gallery.T, -1.0, 1.0), g_labels == p_labels[s, None]
        best = np.max(sims, axis=1, where=same, initial=-np.inf)[:, None]
        ties = sims == best
        first = np.argmax(same & ties, axis=1)[:, None]
        ranks = np.count_nonzero((sims > best) | ties & (before < first), axis=1)
        hits += np.count_nonzero(ranks < n)
    return float(hits / probes.shape[0])


# Rows per chunk of `evaluate_reconstruction`, at most: about 1.4 MB of buffers
# at the default model size, a decoder's residual term included.
_RECONSTRUCTION_CHUNK = 32


def evaluate_reconstruction(predictors: list, truth, n_pairs: int,
                            landmark_indices: np.ndarray, nose_tip_index: int,
                            crop_radius: float,
                            chunk: int = _RECONSTRUCTION_CHUNK) -> list[ReconstructionReport]:
    """One report per predictor, in order: the shape error of the predictions that
    ``predict(rows, out)`` writes, for a slice of rows, into the C-ordered (rows, 3n)
    array `out`, each aligned on the landmarks to the ground-truth rows that
    ``truth(rows)`` returns, then both cropped to the vertices within crop_radius of
    the ground-truth nose tip. The rows go in even chunks of at most `chunk`, never
    one row alone (a matrix-vector product has other bits than a matrix product's
    row); a chunk's ground truth is checked and cropped once for all predictors. A
    failing pair is named as when all rows are scored as one chunk, which scoring then does."""
    indices = np.asarray(landmark_indices, dtype=np.int64).ravel()
    chunks = _blocks(n_pairs, chunk)
    paper, dist = np.empty((2, len(predictors), n_pairs))  # each pair's two error terms
    try:
        for rows in chunks:
            m = rows.stop - rows.start
            points = np.asarray(truth(rows), dtype=np.float64)  # frees the last chunk's
            require(points.ndim == 2 and points.shape[0] >= 1 and points.shape[1] % 3 == 0,
                    f"need a non-empty (N, 3n) ground-truth array, got {points.shape}")
            require(bool(np.all(np.isfinite(points))), "ground-truth shapes must be finite")
            points = points.reshape(m, -1, 3)
            if rows.start == 0:  # the vertex count; the buffers hold the last, largest chunk
                n = points.shape[1]
                require(bool(np.all((indices >= 0) & (indices < n))),
                        f"landmark indices must lie in [0, {n})")
                require(0 <= nose_tip_index < n,
                        f"nose_tip_index {nose_tip_index} out of range [0, {n})")
                require(np.isfinite(crop_radius) and crop_radius >= 0.0,
                        f"crop_radius must be finite and non-negative, got {crop_radius}")
                require(indices.size >= MIN_POINTS,
                        f"need at least {MIN_POINTS} points, got {indices.size}")
                predicted, aligned = np.empty((2, n_pairs - chunks[-1].start, n, 3))
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is outside the crop
                crop = np.sqrt(sum(np.square(points[..., c] - points[:, nose_tip_index, c, None])
                                   for c in range(3))) <= crop_radius
                landmarks = _centred(points[:, indices])  # the alignment checks what it reads
            size = np.count_nonzero(crop, axis=1)

            for p, predict in enumerate(predictors):
                pred_pts = predicted[:m]
                predict(rows, pred_pts.reshape(m, -1))
                source = pred_pts[:, indices]
                _fail(~np.isfinite(source).all(axis=(1, 2)), "points must be finite",
                      InvalidArgumentError)
                with np.errstate(over="ignore", invalid="ignore"):  # each step checks its pairs
                    scale, rotation, translation = _align_centred(_centred(source), landmarks)
                    out = np.matmul(pred_pts, np.swapaxes(scale[:, None, None] * rotation, 1, 2),
                                    out=aligned[:m])
                    out += translation[:, None]
                    bad = ~np.isfinite(out).all(axis=(1, 2))
                    require(not bad.any(),
                            f"aligned shape of pair {int(np.argmax(bad))} is not finite")

                    # squared residuals per vertex, summed in `out`
                    out -= points
                    out *= out
                    squared = out[..., 0]
                    squared += out[..., 1]
                    squared += out[..., 2]
                    squared *= crop
                    paper[p, rows] = np.sqrt(squared.sum(axis=1)) / size
                    dist[p, rows] = np.sqrt(squared, out=squared).sum(axis=1) / size
                _fail(~np.isfinite(paper[p, rows]), "reconstruction error is not finite",
                      InvalidArgumentError)
    except (MorphfitError, FloatingPointError):
        if len(chunks) == 1:
            raise
        return evaluate_reconstruction(predictors, truth, n_pairs, indices, nose_tip_index,
                                       crop_radius, n_pairs)
    return [ReconstructionReport(rmse_paper=float(np.sum(paper[p])) / n_pairs,
                                 mean_vertex_dist=float(np.sum(dist[p])) / n_pairs,
                                 n_pairs=n_pairs, crop_radius=float(crop_radius))
            for p in range(len(predictors))]


def _cosine_distances(codes: np.ndarray, labels: np.ndarray) -> tuple:
    """The mean cosine distance of the code pairs i < j of equal and of other labels,
    summed by the blocks of `_pair_blocks`, and whether any distance is above 0."""
    sums, sizes, spread = [0.0, 0.0], [0, 0], False
    for picked_pair in _pair_blocks(*_unit_rows(codes), labels):
        for k, picked in enumerate(picked_pair):
            np.subtract(1.0, picked, out=picked)  # scores to distances, with no new array
            sums[k], sizes[k] = sums[k] + float(picked.sum()), sizes[k] + picked.size
            spread = spread or bool(np.any(picked > 0))
    return sums[0] / sizes[0], sums[1] / sizes[1], spread


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

    intra, inter, spread = _cosine_distances(c_id, labels)

    rng = np.random.default_rng(np.random.SeedSequence([dataset.spec.seed, 0x1d]))
    perturbation = rng.normal(0.0, 1.0, size=(len(rows), model.k_exp)) * model.sigma_exp
    den, ratios = 0.0, []
    for s in _blocks(len(rows), _EMBED_CHUNK):
        r = rows[s]
        moved_id, moved_res = embed(render_depths(
            model, dataset.alpha_id[r], dataset.alpha_exp[r] + perturbation[s],
            dataset.pose_scale[r], dataset.pose_rotation[r], dataset.pose_translation[r],
            dataset.spec.image_resolution))
        # each difference row's norm from its dot product with itself, as np.linalg.norm takes it
        norms = [np.sqrt(d[:, None] @ d[..., None])[:, 0, 0].tolist()
                 for d in (moved_res - c_res[s], moved_id - c_id[s])]
        for d_res, d_id in zip(*norms):
            den = den + d_res + d_id
            if d_res + d_id > 0:
                ratios.append(d_res / (d_res + d_id))

    # constant encoder: no pair moved, no identity spread to attribute
    degenerate = den <= 0.0 or not spread
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


def pair_scores(codes: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosine similarity of every code pair i < j: the genuine (same label)
    and the impostor scores, each in row-major pair order."""
    codes, labels = np.asarray(codes, dtype=np.float64), np.asarray(labels).ravel()
    require(codes.ndim == 2 and codes.shape[0] == labels.size,
            "codes must be (n, q) row-aligned with labels")
    require(codes.shape[0] >= 2, "need at least two codes")
    counts, n = np.unique(labels, return_counts=True)[1], labels.size
    n_same = int(np.sum(counts * (counts - 1) // 2))
    classes, filled = (np.empty(n_same), np.empty(n * (n - 1) // 2 - n_same)), [0, 0]
    for picked_pair in _pair_blocks(*_unit_rows(codes), labels):
        for k, picked in enumerate(picked_pair):
            classes[k][filled[k]:filled[k] + picked.size] = picked
            filled[k] += picked.size
    return classes


def verification_report(genuine: np.ndarray, impostor: np.ndarray, n_folds: int = 10,
                        rank1: float | None = None,
                        rank5: float | None = None) -> VerificationReport:
    """Assemble the standard report from the genuine and the impostor scores in
    index order, such as `pair_scores` returns, which it sorts in place. The
    threshold-free metrics count every pair on the sorted classes (no ROC arrays);
    the fold accuracy runs on the stratified folds (a few pairs may be in no fold)."""
    require(genuine.size + impostor.size > 0, "need at least one scored pair")
    require(bool(np.all(np.isfinite(genuine))) and bool(np.all(np.isfinite(impostor))),
            "pair scores must be finite")
    require(genuine.size and impostor.size, "need at least one genuine and one impostor pair")
    require(int(n_folds) >= 2, "need at least two folds")
    n_folds = int(n_folds)
    require(min(genuine.size, impostor.size) >= n_folds,
            f"need at least {n_folds} pairs of each class, got "
            f"{genuine.size} genuine / {impostor.size} impostor")
    mean, std = _fold_accuracy(genuine, impostor, n_folds)
    genuine.sort()
    impostor.sort()
    return VerificationReport(accuracy_mean=mean, accuracy_std=std,
                              eer=_eer(genuine, impostor), auc=_auc(genuine, impostor),
                              tar_far10=_tar_at_far(genuine, impostor, 0.10),
                              tar_far1=_tar_at_far(genuine, impostor, 0.01),
                              rank1=rank1, rank5=rank5)
