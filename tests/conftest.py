"""Shared fixtures: models and datasets that several test modules reuse."""

import numpy as np
import pytest

from morphfit.errors import require
from morphfit.evaluation import (disentangling_report, evaluate_reconstruction,
                                 reconstruction_truth)
from morphfit.geometry import coord_rows
from morphfit.synthetic import (Dataset, DatasetSpec, PoseRanges,
                                SyntheticModelSpec, build_dataset,
                                generate_model)

from oracles import CoeffPair, PoseParams, Shape

# Pose ranges wide enough to exercise real rotation/scale variation in the
# fitting tests; the near-frontal defaults are deliberately much tighter.
WIDE_RANGES = PoseRanges(yaw=(-0.15, 0.15), pitch=(-0.25, 0.25),
                         roll=(-0.15, 0.15), scale=(0.9, 1.1),
                         tx=(-0.1, 0.1), ty=(-0.1, 0.1), tz=(-0.1, 0.1))


@pytest.fixture(scope="session")
def desk_model():
    """Default desk-scale model: 600 vertices, 20 identity / 8 residual axes."""
    return generate_model(SyntheticModelSpec())


@pytest.fixture(scope="session")
def small_model():
    return generate_model(SyntheticModelSpec(n_vertices=150, k_id=6, k_exp=4,
                                             smoothness=0.5, seed=5))


@pytest.fixture(scope="session")
def default_dataset(desk_model):
    """The K=20 x M=10 default dataset at 32x32, seed 0."""
    return build_dataset(desk_model, DatasetSpec())


# Per-row views of a columnar dataset, for tests that check one sample at a
# time against the per-sample constructors.

def row_coeffs(dataset: Dataset, i: int) -> CoeffPair:
    return CoeffPair(dataset.alpha_id[i], dataset.alpha_exp[i])


def row_pose(dataset: Dataset, i: int) -> PoseParams:
    return PoseParams(dataset.pose_scale[i], dataset.pose_rotation[i],
                      dataset.pose_translation[i])


def assert_plain_fields(record, names=None) -> None:
    """Each named field of a record (all by default) is a Python float, int,
    bool or None, never a numpy scalar: the CSV writer reprs each one."""
    for name in names or record._fields:
        value = getattr(record, name)
        assert type(value) in (float, int, bool, type(None)), (name, type(value))


def copied_rows(predicted):
    """The `predict` of `evaluate_reconstruction` that copies the asked rows
    of a prediction stack."""
    predicted = np.asarray(predicted, dtype=np.float64)

    def predict(rows, out):
        out[...] = predicted[rows]
    return predict


def reconstruct(predicted, ground_truth, landmark_indices, nose_tip_index,
                crop_radius):
    """`evaluate_reconstruction` of one prediction stack against the
    `reconstruction_truth` of its ground truth."""
    return evaluate_reconstruction(copied_rows(predicted), reconstruction_truth(
        ground_truth, landmark_indices, nose_tip_index, crop_radius))


def disentangle(embed, dataset):
    """`disentangling_report` given the codes `embed` gives the held-out
    rows' images."""
    return disentangling_report(embed, dataset,
                                embed(dataset.images(dataset.test_indices)))


# The per-pair shape error that evaluate_reconstruction computed through
# before it took stacked arrays; the per-pair reconstruction oracle in
# test_evaluation.py still does.

def rmse(pairs: list[tuple[Shape, Shape]], indices: np.ndarray) -> float:
    """Cropped shape error (1/N) * sum_i ||g_i - p_i|| / n_c over shape pairs.

    Each pair is (ground_truth, predicted); both are restricted to the common
    crop index list of size n_c, the stacked 3*n_c coordinate difference is
    measured with the Euclidean norm, divided by the vertex count n_c, and the
    result is averaged over pairs. Note the divisor is the vertex count, not
    the norm-per-vertex average; the companion per-vertex mean distance is
    reported separately by the evaluation layer.
    """
    require(len(pairs) > 0, "need at least one shape pair")
    idx = np.asarray(indices)
    require(idx.ndim == 1 and idx.size > 0, "crop index list must be non-empty")
    require(np.issubdtype(idx.dtype, np.integer), "crop indices must be integers")
    rows = coord_rows(idx)
    total = 0.0
    for ground_truth, predicted in pairs:
        require(ground_truth.n == predicted.n,
                f"pair has mismatched vertex counts {ground_truth.n} vs {predicted.n}")
        require(bool(np.all(idx >= 0)) and bool(np.all(idx < ground_truth.n)),
                "crop indices out of vertex range")
        diff = ground_truth.coords[rows] - predicted.coords[rows]
        total += float(np.linalg.norm(diff)) / idx.size
    return total / len(pairs)
