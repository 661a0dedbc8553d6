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


_PAIR_BLOCK = 32  # rows per block of a pair pass, at most: never all N x N pairs at once
_EMBED_CHUNK = 64  # rows per chunk of the disentangling re-render (32 moved its ratio's last bit)
_IMPOSTOR_PIECE = 1 << 19  # least impostor scores per counted piece: one search per genuine score


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


def _pair_blocks(unit: np.ndarray, labels: np.ndarray, *classes: bool):
    """For each block s of `_blocks`, the cosine scores of the unit rows' pairs (i, j),
    i < j, i in s (``unit[s] @ unit.T``, clipped to [-1, 1]), row-major: for each of
    `classes`, those of equal labels (True) or of other labels (False). A block's
    product can differ in its last bits from the same rows of the whole product
    (README, Determinism)."""
    n, index = labels.size, np.arange(labels.size)
    for s in _blocks(n):
        scores, upper, same = unit[s] @ unit.T, index > index[s, None], labels[s, None] == labels
        yield [np.clip(p, -1, 1, out=p) for p in (scores[upper & (same == c)] for c in classes)]
        del scores, upper, same  # before the next block is built


def _impostor_runs(unit: np.ndarray, labels: np.ndarray, edges: list):
    """The impostor scores of `_pair_blocks` in pair order, as (k, scores) for pieces of
    run k, which ends before impostor edges[k] (the last at the end): consecutive blocks'
    scores, at least `_IMPOSTOR_PIECE` of them but in a run's last piece."""
    ends, done, k, held = [*edges, np.inf], 0, 0, []
    for impostor, in _pair_blocks(unit, labels, False):
        while impostor.size:
            cut = int(min(ends[k] - done, impostor.size))
            held.append(impostor[:cut])
            done, impostor = done + cut, impostor[cut:]
            if done == ends[k] or sum(map(len, held)) >= _IMPOSTOR_PIECE:
                yield k, np.concatenate(held)
                held, k = [], k + (done == ends[k])
    if held:
        yield k, np.concatenate(held)


def _crossing(roc: tuple, holds) -> tuple:
    """(TAR, FAR) at the first ROC point where ``holds(tar, far)``, which must stay true
    as the threshold rises, and at the point before it (None if none). A gap's point has
    the rates of the gap's first impostor, so an unrefined ROC records in its `gaps` each
    gap of more than one impostor just below a crossing, whose impostors become points."""
    tar, far, below, gaps = roc
    m = int(np.argmax(holds(tar, far)))
    if gaps is not None and m % 2 and below[m] - below[m - 1] > 1:
        gaps.add(m - 1)
    return (float(tar[m]), float(far[m])), (float(tar[m - 1]), float(far[m - 1])) if m else None


def _auc(ties: np.ndarray, under: np.ndarray, at: np.ndarray, i: int) -> float:
    """The exact Mann-Whitney statistic 2U / (2 G I), ties counted one half, from the
    impostors under and at each distinct genuine score of multiplicity `ties`."""
    return int(ties @ (2 * under + at)) / (2 * int(ties.sum()) * i)


def _eer(roc: tuple) -> float:
    """Rate where FAR crosses 1 - TAR, linearly interpolated on the ROC polyline."""
    # f = FAR - (1 - TAR) never rises, from +1 at the smallest score to -1 above all
    (tar_hi, far_hi), (tar_lo, far_lo) = _crossing(
        roc, lambda tar, far: far + tar - 1.0 <= 0.0)
    f_lo, f_hi = far_lo + tar_lo - 1.0, far_hi + tar_hi - 1.0
    return far_lo + f_lo / (f_lo - f_hi) * (far_hi - far_lo)


def _tar_at_far(roc: tuple, far_target: float) -> float:
    """TAR linearly interpolated at the requested FAR on the upper envelope of the
    ROC: of the points with one FAR, the first (lowest threshold) has the largest TAR."""
    require(np.isfinite(far_target) and 0.0 < far_target <= 1.0,
            f"far_target must lie in (0, 1], got {far_target}")
    top, below = _crossing(roc, lambda tar, far: far <= far_target)
    # the envelope point at the next larger FAR: the first of its run, in no gap of its own
    points = [top] if below is None else [
        top, _crossing((*roc[:3], None), lambda tar, far: far <= below[1])[0]]
    tars, fars = zip(*points)
    return float(np.interp(far_target, fars, tars))


def _fold_thresholds(genuine: np.ndarray, values: np.ndarray, counts: np.ndarray,
                     tops: np.ndarray, i_per: int) -> tuple[np.ndarray, np.ndarray]:
    """Each fold's sorted genuine run and the threshold that scores best on the other
    folds; fold k is the k-th equal run of each class in pair order, counts[k] its impostors
    under each distinct genuine score, tops[k] its largest. Of the distinct training scores
    and a sentinel above them, the first with the most accepted genuine plus rejected
    impostor training pairs wins: a training genuine score or the sentinel, as from any
    other score up to the next, the accepted genuine pairs stay and no rejected one falls."""
    n_folds = len(counts)
    g_runs = np.sort(genuine[:n_folds * (genuine.size // n_folds)].reshape(n_folds, -1), axis=1)
    g_per = g_runs.shape[1]
    # per run and genuine score: impostors minus genuine pairs under it (the
    # run's correct count there, up to a constant), and genuine pairs at it
    fold = np.empty((n_folds, 2, values.size), dtype=np.int64)
    for k in range(n_folds):
        under = np.searchsorted(g_runs[k], values)
        fold[k] = (counts[k] - under, np.searchsorted(g_runs[k], values, "right") - under)
    total, tops = fold.sum(axis=0), np.maximum(g_runs[:, -1], tops)
    thresholds = np.full(n_folds + 1, -np.inf)  # the last, the rest, counts nothing
    for k in range(n_folds):
        gain, holds = total - fold[k]
        # a score that only the held-out fold holds is no training candidate
        candidates = np.flatnonzero(holds)
        best = candidates[int(np.argmax(gain[candidates]))]
        if (n_folds - 1) * g_per + int(gain[best]) >= (n_folds - 1) * i_per:
            thresholds[k] = values[best]
        else:  # a sentinel above the largest training score rejects them all
            top = np.delete(tops, k).max()  # top + 1.0 is top once |top| >= 2**53
            thresholds[k] = max(top + 1.0, np.nextafter(top, np.inf))
    return g_runs, thresholds


def rank_n_identification(gallery_codes: np.ndarray, gallery_labels: np.ndarray,
                          probe_codes: np.ndarray, probe_labels: np.ndarray,
                          ns: tuple) -> list[float]:
    """For each n of `ns`, the fraction of probes whose subject is among the n nearest
    gallery codes.

    Similarity is cosine; ties keep gallery index order (stable sort): a probe's rank
    counts the entries above its best same-subject one, by higher score or by lower
    index at an equal score, a block of probes at a time, once for every n.
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
    ns = [int(n) for n in ns]
    require(all(n >= 1 for n in ns), "n must be at least 1")
    probes, gallery = _unit_rows(probes, gallery)
    before, hits = np.arange(g_labels.size), [0] * len(ns)
    for s in _blocks(probes.shape[0]):
        sims, same = np.clip(probes[s] @ gallery.T, -1.0, 1.0), g_labels == p_labels[s, None]
        best = np.max(sims, axis=1, where=same, initial=-np.inf)[:, None]
        ties = sims == best
        first = np.argmax(same & ties, axis=1)[:, None]
        ranks = np.count_nonzero((sims > best) | ties & (before < first), axis=1)
        hits = [h + np.count_nonzero(ranks < n) for h, n in zip(hits, ns)]
    return [float(h / probes.shape[0]) for h in hits]


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


def disentangling_report(embed, dataset, codes: tuple, distances: tuple) -> DisentanglingReport:
    """Measure identity/residual code separation on the held-out rows.

    Expression-only pairs are built by re-rendering each held-out sample
    with a freshly drawn residual coefficient vector at the identical pose,
    so the displacement ratio isolates the expression factor; the
    perturbation draws are seeded from the dataset seed.

    ``embed`` maps a (B, pixels) image array to an ``(identity_codes,
    residual_codes)`` pair: a trained encoder's ``encode_images``, or a
    reference embedding. ``codes`` is that pair for the held-out rows'
    images, in row order; ``embed`` encodes only their re-renders.
    ``distances`` is ``(intra, inter, spread)`` of those identity codes, as
    `verification_report` returns them.
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

    intra, inter, spread = distances

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


def _pair_rows(codes: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unit code rows and the labels of a pair pass, after its checks, in order."""
    codes, labels = np.asarray(codes, dtype=np.float64), np.asarray(labels).ravel()
    require(codes.ndim == 2 and codes.shape[0] == labels.size,
            "codes must be (n, q) row-aligned with labels")
    require(codes.shape[0] >= 2, "need at least two codes")
    return _unit_rows(codes)[0], labels


def verification_report(codes: np.ndarray, labels: np.ndarray, n_folds: int = 10,
                        rank1: float | None = None,
                        rank5: float | None = None) -> tuple[VerificationReport, tuple]:
    """The standard report on the cosine scores of the code pairs i < j, genuine (same
    label) and impostor, each in row-major pair order, keeping only the genuine scores:
    the walks over the pair blocks count each fold's impostors at the distinct genuine
    scores, then at each fold's threshold, keeping those in the gaps where the ROC
    crossings fall. Every field is the counts and divisions of the two sorted classes.
    Returned with the disentangling distances that the first walk sums: the mean cosine
    distance of the genuine and of the impostor pairs, and whether any is above 0."""
    unit, labels = _pair_rows(codes, labels)
    sizes, n = np.unique(labels, return_counts=True)[1], labels.size
    g = int(np.sum(sizes * (sizes - 1) // 2))
    i = n * (n - 1) // 2 - g
    require(g and i, "need at least one genuine and one impostor pair")
    require(int(n_folds) >= 2, "need at least two folds")
    n_folds = int(n_folds)
    require(min(g, i) >= n_folds, f"need at least {n_folds} pairs of each class, got "
                                  f"{g} genuine / {i} impostor")
    genuine, sums, sizes, spread = [], [0.0, 0.0], [0, 0], False
    for picked_pair in _pair_blocks(unit, labels, True, False):
        genuine.append(picked_pair[0])
        for k, picked in enumerate(picked_pair):  # each class summed block by block
            dist = 1.0 - picked
            sums[k], sizes[k] = sums[k] + float(dist.sum()), sizes[k] + picked.size
            spread = spread or bool(np.any(dist > 0))
    genuine, distances = np.concatenate(genuine), (sums[0] / sizes[0], sums[1] / sizes[1], spread)
    (values, ties), i_per = np.unique(genuine, return_counts=True), i // n_folds
    edges = [k * i_per for k in range(1, n_folds + 1)]  # run n_folds, the rest, is in no fold
    under = np.zeros((n_folds + 1, values.size), dtype=np.int64)
    at, tops = np.zeros(values.size, dtype=np.int64), np.full(n_folds + 1, -np.inf)
    for k, run in _impostor_runs(unit, labels, edges):
        run.sort()
        ranks = run.searchsorted(values)
        under[k] += ranks
        # the few genuine scores that an impostor ties, counted on their own
        tied = np.flatnonzero(run[np.minimum(ranks, run.size - 1)] == values)
        at[tied] += run.searchsorted(values[tied], "right") - ranks[tied]
        tops[k] = max(tops[k], run[-1])
    g_runs, thresholds = _fold_thresholds(genuine, values, under[:-1], tops[:-1], i_per)
    under = under.sum(axis=0)
    # -inf, then each distinct genuine score and a point just above it: the even points
    # stand for the impostors of the gap up to the next score; inf above all
    points = np.concatenate(([-np.inf], np.column_stack(
        (values, np.nextafter(values, np.inf))).ravel(), [np.inf]))
    below = np.concatenate(([0], np.column_stack((under, under + at)).ravel(), [i]))
    genuine.sort()

    def roc(gaps=None) -> tuple:  # TAR and FAR at each point, and the impostors below it
        return (g - genuine.searchsorted(points)) / g, (i - below) / i, below, gaps

    unrefined = roc(set())
    _eer(unrefined), _tar_at_far(unrefined, 0.10), _tar_at_far(unrefined, 0.01)  # record gaps
    gaps = sorted(unrefined[3], reverse=True)
    bounds = [(points[max(e - 1, 0)], points[e + 1]) for e in gaps]
    kept, hits = [np.empty(0)], np.zeros(n_folds + 1, dtype=np.int64)
    for k, run in _impostor_runs(unit, labels, edges):
        hits[k] += np.count_nonzero(run < thresholds[k])
        inside = np.zeros(run.size, dtype=bool)
        for lo, hi in bounds:
            inside |= (lo < run) & (run < hi)
        kept.append(run[inside])
    kept = np.sort(np.concatenate(kept))
    for e, (lo, hi) in zip(gaps, bounds):  # from the last gap, so the indices before hold
        inside, first = np.unique(kept[(lo < kept) & (kept < hi)], return_index=True)
        points = np.concatenate((points[:e], inside, points[e + 1:]))
        below = np.concatenate((below[:e], below[e] + first, below[e + 1:]))
    g_per, refined = g_runs.shape[1], roc()
    accuracies = np.array([(g_per - int(np.searchsorted(g_runs[k], thresholds[k]))
                            + int(hits[k])) / (g_per + i_per) for k in range(n_folds)])
    return VerificationReport(accuracy_mean=float(accuracies.mean()),
                              accuracy_std=float(accuracies.std()),
                              eer=_eer(refined), auc=_auc(ties, under, at, i),
                              tar_far10=_tar_at_far(refined, 0.10),
                              tar_far1=_tar_at_far(refined, 0.01),
                              rank1=rank1, rank5=rank5), distances
