"""Encoder-decoder networks with hand-derived gradients and phase training.

The encoder is a small feedforward network mapping a normalized depth raster
to two bounded latent heads: an identity code and a residual code. Each code
feeds a single linear decoder producing a shape delta, and the identity code
additionally feeds a linear softmax classifier during training. All gradients
are computed in closed form (reverse mode, batch-vectorized, fixed reduction
order) so they can be audited against finite differences.

Training happens in three phases: coefficient regression for the encoder,
closed-form least squares for the decoders, and joint end-to-end refinement
with a scheduled reconstruction weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailureError, UnderdeterminedError, require
from .geometry import MorphableModel

# Latent outputs are clamped strictly inside (-1, 1): tanh rounds to 1.0 in
# doubles for arguments above ~19, which would break the open-interval
# contract and produce exact-zero derivative signal.
OUTPUT_CLIP = 1.0 - 1e-12

# Coefficient targets are expressed in units of 3 sigma so that almost all
# draws land inside the representable output interval.
TARGET_SCALE = 3.0
TARGET_CLIP = 0.99

# Decoupled L2 shrinkage applied to the encoder weight matrices (not biases)
# after each phase-I step; the regression would otherwise overfit the few
# hundred images of a desk-scale training split.
PHASE1_WEIGHT_DECAY = 3.0

_ACTIVATIONS = ("tanh", "linear")


class _Network:
    """A network: its structure plus one vector holding all of its weights.

    The structure fixes the layout, `_layout(*structure)`: each weight's (key,
    shape) in vector and checkpoint order. `vector` is read-only, C-ordered,
    float64 and finite, and `params` maps each key to a view of it. A
    constructor's `params` is a C-ordered float64 vector, kept without a copy,
    or a mapping with an array for every key, concatenated into a new vector.
    """

    def _bind(self, structure: tuple, params) -> None:
        layout = self._layout(*structure)
        sizes = [math.prod(shape) for _, shape in layout]
        if isinstance(params, np.ndarray):
            require(params.shape == (sum(sizes),) and params.dtype == np.float64
                    and params.flags.c_contiguous,
                    f"a network vector must be C-ordered float64 of length {sum(sizes)}")
            vector = params.view()
        else:
            arrays = []
            for key, shape in layout:
                require(key in params, f"{key}: missing")
                array = np.asarray(params[key], dtype=np.float64)
                require(array.shape == shape,
                        f"{key}: shape {array.shape}, expected {shape}")
                arrays.append(array.ravel())
            vector = np.concatenate(arrays)
        vector.setflags(write=False)
        require(bool(np.all(np.isfinite(vector))),
                f"{type(self).__name__} parameters must be finite")
        self._structure, self.vector, self.params = structure, vector, {}
        lo = 0
        for (key, shape), size in zip(layout, sizes):
            self.params[key] = vector[lo:lo + size].reshape(shape)
            lo += size


class EncoderNet(_Network):
    """Feedforward encoder with two bounded output heads.

    Layer i maps widths[i] inputs to widths[i + 1] outputs, y = act(x @ W.T
    + b), with W "enc.{i}.weight" and b "enc.{i}.bias"; `layers` holds one
    (W, b, activation) triple per layer. The "linear" activation exists for
    gradient audits (a linear-only network has machine-exact derivatives);
    real encoders end in "tanh". The final layer produces q_id + q_res units;
    the first q_id become the identity code, the rest the residual code.
    Outputs are clamped strictly inside (-1, 1) regardless of activation so
    downstream consumers can rely on the open interval.
    """

    def __init__(self, widths, activations, q_id: int, q_res: int, params):
        widths, activations = tuple(int(w) for w in widths), tuple(activations)
        require(len(activations) >= 1 and len(widths) == len(activations) + 1,
                "an encoder needs at least one layer and one width more than layers")
        require(min(widths) >= 1, "layer widths must be positive")
        for i, tag in enumerate(activations):
            require(tag in _ACTIVATIONS, f"enc.{i}.weight: unknown activation {tag!r}")
        q_id, q_res = int(q_id), int(q_res)
        require(q_id >= 1 and q_res >= 1, "head widths must be positive")
        require(widths[-1] == q_id + q_res, "final layer width must equal q_id + q_res")
        self.input_dim, self.q_id, self.q_res = widths[0], q_id, q_res
        self._bind((widths, activations, q_id, q_res), params)
        self.layers = tuple((self.params[f"enc.{i}.weight"], self.params[f"enc.{i}.bias"],
                             tag) for i, tag in enumerate(activations))

    @staticmethod
    def _layout(widths, *_) -> list:
        return [(f"enc.{i}.{name}", shape)
                for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]))
                for name, shape in (("weight", (fan_out, fan_in)), ("bias", (fan_out,)))]


class DecoderNet(_Network):
    """Two independent linear decoders from latent codes to shape deltas."""

    def __init__(self, out_dim: int, q_id: int, q_res: int, params):
        out_dim, q_id, q_res = int(out_dim), int(q_id), int(q_res)
        require(min(out_dim, q_id, q_res) >= 1, "decoder widths must be positive")
        self.out_dim, self.q_id, self.q_res = out_dim, q_id, q_res
        self._bind((out_dim, q_id, q_res), params)
        self.weight_id, self.bias_id, self.weight_res, self.bias_res = self.params.values()

    @staticmethod
    def _layout(out_dim: int, q_id: int, q_res: int) -> list:
        return [("dec.weight_id", (out_dim, q_id)), ("dec.bias_id", (out_dim,)),
                ("dec.weight_res", (out_dim, q_res)), ("dec.bias_res", (out_dim,))]


class ClassifierHead(_Network):
    """Linear softmax classifier over the identity code (training only)."""

    def __init__(self, n_classes: int, q_id: int, params):
        n_classes, q_id = int(n_classes), int(q_id)
        require(n_classes >= 1 and q_id >= 1, "head widths must be positive")
        self.n_classes, self.q_id = n_classes, q_id
        self._bind((n_classes, q_id), params)
        self.weight, self.bias = self.params.values()

    @staticmethod
    def _layout(n_classes: int, q_id: int) -> list:
        return [("head.weight", (n_classes, q_id)), ("head.bias", (n_classes,))]


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer constants plus schedule knobs shared by the trainers."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 16
    epochs: int = 25
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "epsilon"):
            value = getattr(self, name)
            require(np.isfinite(value) and value > 0, f"{name} must be finite and positive")
        require(0 <= self.beta1 < 1 and 0 <= self.beta2 < 1,
                "beta1 and beta2 must lie in [0, 1)")
        require(int(self.batch_size) >= 1, "batch_size must be at least 1")
        require(int(self.epochs) >= 1, "epochs must be at least 1")


class LossReport(NamedTuple):
    """Joint loss breakdown for one batch or epoch, every field a Python float;
    total is lambda_r * recon + ident."""

    total: float
    recon: float
    ident: float
    accuracy: float
    lambda_r: float


class TrainingBatch(NamedTuple):
    """Raster images (B, D), int64 subject labels (B,) and target shape deltas
    (B, 3n), row-aligned. `training_batch` checks a batch built from data;
    the joint loss checks its widths, labels and row alignment."""

    images: np.ndarray
    labels: np.ndarray
    target_delta: np.ndarray


def init_encoder(input_dim: int, q_id: int, q_res: int,
                 hidden: tuple = (256, 256), seed: int = 0) -> EncoderNet:
    """Glorot-initialized tanh encoder with the given hidden widths."""
    require(int(input_dim) >= 1, "input_dim must be positive")
    rng = np.random.default_rng(seed)
    widths = [int(input_dim)] + [int(h) for h in hidden] + [int(q_id) + int(q_res)]
    params = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
        params[f"enc.{i}.weight"] = rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)),
                                               size=(fan_out, fan_in))
        params[f"enc.{i}.bias"] = np.zeros(fan_out)
    return EncoderNet(widths, ("tanh",) * (len(widths) - 1), q_id, q_res, params)


def init_decoder(out_dim: int, q_id: int, q_res: int, seed: int = 0) -> DecoderNet:
    """Small random linear decoders (phase II replaces them in closed form)."""
    rng = np.random.default_rng(seed)
    std_id = np.sqrt(2.0 / (out_dim + q_id))
    std_res = np.sqrt(2.0 / (out_dim + q_res))
    return DecoderNet(out_dim, q_id, q_res, {
        "dec.weight_id": rng.normal(0.0, std_id, size=(out_dim, q_id)),
        "dec.bias_id": np.zeros(out_dim),
        "dec.weight_res": rng.normal(0.0, std_res, size=(out_dim, q_res)),
        "dec.bias_res": np.zeros(out_dim)})


def init_head(n_classes: int, q_id: int, seed: int = 0) -> ClassifierHead:
    require(int(n_classes) >= 2, "need at least two classes")
    rng = np.random.default_rng(seed)
    std = np.sqrt(2.0 / (n_classes + q_id))
    return ClassifierHead(n_classes, q_id, {
        "head.weight": rng.normal(0.0, std, size=(n_classes, q_id)),
        "head.bias": np.zeros(n_classes)})


def head_from_class_means(codes: np.ndarray, labels: np.ndarray,
                          n_classes: int, scale: float = 16.0) -> ClassifierHead:
    """Initialize the classifier from per-class identity-code means.

    Sets logits to scale * (mu_k . c - ||mu_k||^2 / 2), the log-posterior of
    an equal-covariance Gaussian classifier up to a shared constant. Starting
    joint training from an informed head keeps the early classification
    gradients from disturbing a pre-trained encoder the way a random head
    does; the scale sharpens the softmax so those gradients start small.
    Every class must appear in `labels`.
    """
    codes = np.asarray(codes, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    require(codes.ndim == 2 and codes.shape[0] == labels.size,
            "codes must be (n_samples, q_id) row-aligned with labels")
    require(int(n_classes) >= 2, "need at least two classes")
    require(np.isfinite(scale) and scale > 0, "scale must be finite and positive")
    means = np.empty((n_classes, codes.shape[1]))
    for k in range(n_classes):
        rows = labels == k
        require(bool(rows.any()), f"class {k} has no samples")
        means[k] = codes[rows].mean(axis=0)
    return ClassifierHead(n_classes, codes.shape[1], {
        "head.weight": scale * means,
        "head.bias": -0.5 * scale * np.sum(means * means, axis=1)})


def _apply_activation(z: np.ndarray, tag: str) -> np.ndarray:
    return np.tanh(z) if tag == "tanh" else z


def _activation_grad(post: np.ndarray, tag: str) -> np.ndarray:
    # Derivative expressed through the post-activation value; exact for both
    # supported activations (clamping only bites where tanh' < 2e-12).
    return 1.0 - post * post if tag == "tanh" else np.ones_like(post)


def _forward_trace(net: EncoderNet, images: np.ndarray) -> tuple:
    """Batched forward pass keeping per-layer post-activations for backprop.

    Returns (codes, activations) where activations[0] is the input batch and
    activations[i] the output of layer i-1; codes is the clamped final output.
    """
    activations = [images]
    current = images
    with np.errstate(invalid="ignore"):  # a NaN reaches the check below
        for weight, bias, activation in net.layers:
            current = _apply_activation(current @ weight.T + bias, activation)
            activations.append(current)
    codes = np.clip(current, -OUTPUT_CLIP, OUTPUT_CLIP)
    if not np.all(np.isfinite(codes)):
        raise NumericalFailureError("encoder activations became non-finite")
    return codes, activations


def decode(dec: DecoderNet, c_id: np.ndarray, c_res: np.ndarray, out=None) -> np.ndarray:
    """Shape deltas of code rows: both linear decoders, summed left to right in
    place, in `out` if given (a C-ordered (rows, out_dim) float64 array)."""
    out = np.matmul(c_id, dec.weight_id.T, out=out)
    for term in (dec.bias_id, c_res @ dec.weight_res.T, dec.bias_res):
        out += term
    return out


# ---------------------------------------------------------------------------
# The trainers' parameter vector: Adam state over it, and networks over it.

class _FlatParams:
    """The gradient and Adam moments over a trainer's parameter vector.

    `data` holds the (key, array) table's arrays concatenated, and `step`
    updates it in place; `grads` maps each key to a writable C-ordered view
    of `grad`, and both moments share the layout.
    """

    # Adam's block length: the six float64 blocks of one pass (parameter,
    # gradient, both moments, two scratch blocks; 1.5 MB) fit a 2 MB L2 cache.
    block = 32768

    def __init__(self, table: list):
        self.data = np.concatenate([np.ravel(array) for _, array in table])
        self.grad, self.m, self.v = (np.empty(self.data.size) for _ in range(3))
        self._scratch = np.empty((2, min(self.data.size, self.block)))
        self.grads, self._weights = {}, []
        lo = 0
        for key, array in table:
            hi = lo + array.size
            self.grads[key] = self.grad[lo:hi].reshape(array.shape)
            if key.endswith(".weight"):
                self._weights.append(slice(lo, hi))
            lo = hi
        self.t = 0

    @np.errstate(over="ignore", invalid="ignore")  # the epoch's end checks the state
    def step(self, config: TrainConfig, decay: float = 0.0) -> None:
        """One in-place Adam update from `grad`, bias-corrected (arXiv:1412.6980).

        m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g (only the second terms
        on the first step), then p -= (m / (sqrt(v)+eps*sqrt(c2))) * (lr*sqrt(c2)/c1),
        the efficient form of p -= lr*(m/c1) / (sqrt(v/c2)+eps) (the paper's
        section 2); then, if decay, every ".weight" array is scaled by 1 - lr*decay.
        """
        self.t += 1
        b1, b2, lr = config.beta1, config.beta2, config.learning_rate
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        step_size, eps_hat = lr * np.sqrt(c2) / c1, config.epsilon * np.sqrt(c2)
        for lo in range(0, self.data.size, self.block):
            hi = min(lo + self.block, self.data.size)
            p, g, m, v = (a[lo:hi] for a in (self.data, self.grad, self.m, self.v))
            s1, s2 = self._scratch[:, :hi - lo]
            if self.t == 1:
                np.multiply(g, 1.0 - b1, out=m)
                np.multiply(np.multiply(g, 1.0 - b2, out=v), g, out=v)
            else:
                m *= b1
                m += np.multiply(g, 1.0 - b1, out=s1)
                v *= b2
                v += np.multiply(np.multiply(g, 1.0 - b2, out=s1), g, out=s1)
            np.add(np.sqrt(v, out=s2), eps_hat, out=s2)
            p -= np.multiply(np.divide(m, s2, out=s1), step_size, out=s1)
        if decay:
            for span in self._weights:
                self.data[span] *= 1.0 - lr * decay


def _networks(nets: tuple, vector: np.ndarray) -> tuple:
    """`nets`' structures over consecutive slices of `vector`."""
    ends = np.cumsum([net.vector.size for net in nets])
    return tuple(type(net)(*net._structure, vector[end - net.vector.size:end])
                 for net, end in zip(nets, ends))


def _snapshot(stepping: tuple, flat: _FlatParams, vector: np.ndarray, loss) -> tuple:
    """(`stepping` over a copy of `flat.data` in `vector`, loss(*stepping)) once the
    parameters and Adam's second moment are finite; the loss comes first, so a failure
    leaves the epoch before in the reused `vector`."""
    for what, values in (("parameters", flat.data), ("Adam's second moment", flat.v)):
        if not np.all(np.isfinite(values)):
            raise NumericalFailureError(f"{what} became non-finite")
    result = loss(*stepping)
    np.copyto(vector, flat.data)
    return _networks(stepping, vector), result


# ---------------------------------------------------------------------------
# Batched loss and exact gradients.

@np.errstate(over="ignore", invalid="ignore")  # the finiteness check below raises
def _joint_forward(net: EncoderNet, dec: DecoderNet, head: ClassifierHead,
                   batch: TrainingBatch, lambda_r: float) -> tuple:
    """Batch-mean joint loss plus the intermediates backward() consumes.

    Returns (report, activations, c_id, c_res, diff, prob): the encoder
    activations, both code blocks, the decoded-minus-target residual and the
    softmax probabilities of the identification head. The report's total is
    lambda_r * recon + ident.
    """
    images, labels, target = batch
    lambda_r = float(lambda_r)
    require(np.isfinite(lambda_r) and lambda_r >= 0,
            "lambda_r must be finite and non-negative")
    require(images.ndim == 2 and images.shape[0] >= 1, "images must be (B, D)")
    require(labels.shape == images.shape[:1], "one label per image required")
    require(target.shape[:1] == images.shape[:1], "one target row per image")
    require(bool(np.all((labels >= 0) & (labels < head.n_classes))),
            f"labels must lie in [0, {head.n_classes})")
    require(images.shape[1] == net.input_dim,
            "batch image width must match the encoder")
    require(target.shape[1:] == (dec.out_dim,),
            "batch target width must match the decoder")
    require((dec.q_id, dec.q_res, head.q_id) == (net.q_id, net.q_res, net.q_id),
            "decoder and head widths must match the encoder heads")

    codes, activations = _forward_trace(net, images)
    c_id = codes[:, :net.q_id]
    c_res = codes[:, net.q_id:]
    diff = decode(dec, c_id, c_res) - target
    recon = float(np.mean(np.sum(diff * diff, axis=1))) / dec.out_dim

    logits = c_id @ head.weight.T + head.bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp_shifted = np.exp(shifted)
    z = exp_shifted.sum(axis=1)
    prob = exp_shifted / z[:, None]
    ident = float(np.mean(np.log(z) - shifted[np.arange(labels.size), labels]))
    accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
    # a non-finite recon or ident, or an overflowing lambda_r * recon, shows in the total
    total = lambda_r * recon + ident
    if not np.isfinite(total):
        raise NumericalFailureError("joint loss became non-finite")
    report = LossReport(total, recon, ident, accuracy, lambda_r)
    return report, activations, c_id, c_res, diff, prob


def batch_loss(net: EncoderNet, dec: DecoderNet, head: ClassifierHead,
               batch: TrainingBatch, lambda_r: float) -> LossReport:
    """Batch-mean joint loss; the exact quantity backward() differentiates."""
    return _joint_forward(net, dec, head, batch, lambda_r)[0]


def _affine_grads(grads: dict, weight: str, bias: str, g_out: np.ndarray,
                  inputs: np.ndarray) -> None:
    """dL/dW, dL/db of rows y = inputs @ W.T + b, overwriting arrays `grads` holds."""
    grads[weight] = np.matmul(g_out.T, inputs, out=grads.get(weight))
    grads[bias] = np.sum(g_out, axis=0, out=grads.get(bias))


def _encoder_backprop(net: EncoderNet, activations: list,
                      grad_codes: np.ndarray, grads: dict) -> None:
    """Push a gradient on the (pre-clip) final output back through all layers."""
    upstream = grad_codes
    for i in range(len(net.layers) - 1, -1, -1):
        weight, _, activation = net.layers[i]
        g_z = upstream * _activation_grad(activations[i + 1], activation)
        _affine_grads(grads, f"enc.{i}.weight", f"enc.{i}.bias", g_z, activations[i])
        if i > 0:
            upstream = g_z @ weight


def backward(net: EncoderNet, dec: DecoderNet, head: ClassifierHead,
             batch: TrainingBatch, lambda_r: float, out: dict | None = None) -> tuple:
    """Exact gradients of the batch-mean joint loss for every parameter.

    Returns (grads, report): a dict keyed like the networks' params (`out`,
    its C-ordered arrays overwritten, if given) plus the loss report for the same
    batch. Accumulation is batch-vectorized with a fixed reduction order, so
    repeated calls are bit-identical.
    """
    report, activations, c_id, c_res, diff, prob = _joint_forward(
        net, dec, head, batch, lambda_r)
    b = batch.labels.size
    grads = {} if out is None else out
    # d recon / d delta, already including the batch mean and coordinate mean.
    g_delta = (2.0 / (b * dec.out_dim)) * diff * lambda_r
    _affine_grads(grads, "dec.weight_id", "dec.bias_id", g_delta, c_id)
    _affine_grads(grads, "dec.weight_res", "dec.bias_res", g_delta, c_res)

    # d ident / d logits = softmax - one-hot; prob is ours to overwrite
    g_logits = prob
    g_logits[np.arange(b), batch.labels] -= 1.0
    g_logits /= b
    _affine_grads(grads, "head.weight", "head.bias", g_logits, c_id)

    g_c_id = g_delta @ dec.weight_id + g_logits @ head.weight
    g_c_res = g_delta @ dec.weight_res
    grad_codes = np.concatenate([g_c_id, g_c_res], axis=1)
    _encoder_backprop(net, activations, grad_codes, grads)
    return grads, report


# ---------------------------------------------------------------------------
# Dataset plumbing shared by the trainers.

def coefficient_targets(model: MorphableModel, alpha_id: np.ndarray,
                        alpha_exp: np.ndarray) -> np.ndarray:
    """Latent regression targets alpha / (3 sigma), one row per sample,
    clamped to [-0.99, 0.99] so a bounded output head can reach them."""
    out = np.concatenate([alpha_id / (TARGET_SCALE * model.sigma_id),
                          alpha_exp / (TARGET_SCALE * model.sigma_exp)], axis=1)
    return np.clip(out, -TARGET_CLIP, TARGET_CLIP)


def training_batch(dataset, indices) -> TrainingBatch:
    """Images, labels and shape-delta targets of the given sample rows: the one
    place a batch is built from data, so the one place it is checked. The
    images and labels are checked dataset columns; the targets are composed
    here, and a finite but huge coefficient can overflow them."""
    rows = np.asarray(indices, dtype=np.int64)
    require(rows.size >= 1, "images must be (B, D)")
    target = dataset.ground_truth_shapes(rows) - dataset.model.mean
    require(bool(np.all(np.isfinite(target))), "targets must be finite")
    return TrainingBatch(dataset.images(rows), dataset.labels[rows], target)


def encode_images(net: EncoderNet, images: np.ndarray) -> tuple:
    """Batched encode: returns (codes_id, codes_res) as (B, q) arrays."""
    images = np.atleast_2d(np.asarray(images, dtype=np.float64))
    require(images.shape[1] == net.input_dim,
            "image width must match the encoder input")
    codes, _ = _forward_trace(net, images)
    return codes[:, :net.q_id], codes[:, net.q_id:]


# ---------------------------------------------------------------------------
# Phase I: encoder regression to rescaled ground-truth coefficients.

def _regression_loss(net: EncoderNet, images: np.ndarray,
                     targets: np.ndarray) -> float:
    codes, _ = _forward_trace(net, images)
    diff = codes - targets
    return float(np.mean(np.sum(diff * diff, axis=1))) / codes.shape[1]


def train_phase1(net: EncoderNet, dataset, config: TrainConfig) -> tuple:
    """Regress encoder outputs to clipped rescaled coefficients.

    Each optimizer step is followed by PHASE1_WEIGHT_DECAY shrinkage of the
    weight matrices. The default epoch budget deliberately stops short of
    convergence: leftover intra-subject code spread keeps the warm-started
    classifier of the joint phase unsaturated, so its identification term
    still has gradient with which to sharpen the identity codes. Returns
    (trained encoder, history) where history holds one (train_loss, val_loss)
    pair per epoch, evaluated after that epoch's updates. Deterministic for a
    fixed config seed. A numerical failure raises NumericalFailureError that
    names the epoch and the step, or the end of the epoch.
    """
    model = dataset.model
    require(net.q_id == model.k_id and net.q_res == model.k_exp,
            "phase I requires encoder head widths equal to the basis widths")
    train_idx = np.asarray(dataset.train_indices, dtype=np.int64)
    val_idx = np.asarray(dataset.val_indices, dtype=np.int64)
    require(train_idx.size >= 1, "phase I needs a non-empty training split")

    def arrays(idx):
        return (dataset.images(idx), coefficient_targets(
            model, dataset.alpha_id[idx], dataset.alpha_exp[idx]))

    train_images, train_targets = arrays(train_idx)
    val_images, val_targets = arrays(val_idx) if val_idx.size else (None, None)

    rng = np.random.default_rng(config.seed)
    flat = _FlatParams(list(net.params.items()))
    (stepping,) = _networks((net,), flat.data)
    snapshot = np.empty_like(flat.data)
    history = []
    q_total = net.q_id + net.q_res
    try:
        for _ in range(config.epochs):
            order = rng.permutation(train_idx.size)
            for step, start in enumerate(range(0, train_idx.size, config.batch_size)):
                rows = order[start:start + config.batch_size]
                codes, activations = _forward_trace(stepping, train_images[rows])
                grad_codes = (2.0 / (rows.size * q_total)) * (codes - train_targets[rows])
                _encoder_backprop(stepping, activations, grad_codes, flat.grads)
                flat.step(config, decay=PHASE1_WEIGHT_DECAY)
            step = None
            (trained,), losses = _snapshot((stepping,), flat, snapshot, lambda enc: (
                _regression_loss(enc, train_images, train_targets),
                _regression_loss(enc, val_images, val_targets)
                if val_images is not None else float("nan")))
            history.append(losses)
    except NumericalFailureError as exc:
        raise NumericalFailureError(
            f"phase I epoch {len(history)}, "
            f"{'end of epoch' if step is None else f'step {step}'}: {exc}") from exc
    return trained, history


# ---------------------------------------------------------------------------
# Phase II: closed-form decoder fit on exact coefficient/component pairs.

def train_phase2(dec: DecoderNet, dataset, n_pairs: int = 96,
                 seed: int = 0) -> DecoderNet:
    """Fit both linear decoders by least squares on synthetic exact pairs.

    Coefficient draws come fresh from the generating distribution (the
    rendered subjects alone cannot span the identity coefficient space when
    there are fewer training subjects than identity dimensions), and targets
    are the exactly linear shape components, so the fit is exact up to
    rounding, unclipped so that the code-to-shape relation stays exactly
    linear. Raises UnderdeterminedError when n_pairs cannot determine the
    affine map.
    """
    model = dataset.model
    require(dec.q_id == model.k_id and dec.q_res == model.k_exp,
            "phase II requires decoder widths equal to the basis widths")
    require(dec.out_dim == model.mean.size,
            "decoder output length must match the model")
    require(int(n_pairs) >= 1, "n_pairs must be positive")
    rng = np.random.default_rng(seed)

    def fit(basis: np.ndarray, sigma: np.ndarray) -> tuple:
        k = sigma.size
        if n_pairs < k + 1:
            raise UnderdeterminedError(
                f"{n_pairs} pairs cannot determine a width-{k} affine decoder")
        alphas = rng.normal(0.0, 1.0, size=(int(n_pairs), k)) * sigma
        codes = alphas / (TARGET_SCALE * sigma)
        targets = alphas @ basis.T
        design = np.column_stack([codes, np.ones(codes.shape[0])])
        rank = np.linalg.matrix_rank(design)
        if rank < k + 1:
            raise UnderdeterminedError(
                f"design rank {rank} < {k + 1}; the sampled codes do not "
                "span the code space")
        solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
        return solution[:k].T, solution[k]

    weight_id, bias_id = fit(model.basis_id, model.sigma_id)
    weight_res, bias_res = fit(model.basis_exp, model.sigma_exp)
    return DecoderNet(dec.out_dim, dec.q_id, dec.q_res,
                      dict(zip(dec.params, (weight_id, bias_id, weight_res, bias_res))))


# ---------------------------------------------------------------------------
# Phase III: joint end-to-end refinement with a reconstruction-weight schedule.

DEFAULT_PHASE3_STAGES = ((0.5, 10), (1.0, 20))


def train_phase3(net: EncoderNet, dec: DecoderNet, head: ClassifierHead,
                 dataset, config: TrainConfig,
                 stages: tuple = DEFAULT_PHASE3_STAGES) -> tuple:
    """Joint training over the staged reconstruction-weight schedule.

    Returns (encoder, decoder, head, trace) with one LossReport per epoch
    evaluated on the full training split after that epoch; the report's
    lambda_r field records the stage weight, so the emitted schedule under
    defaults is 0.5 x 10 then 1.0 x 20. A numerical failure mid-run raises
    NumericalFailureError that names the stage, its lambda_r, the epoch
    (counted over all stages, as in the trace) and the step, quotes the last
    completed epoch's losses, and carries that epoch's state in its
    `last_good` attribute.
    """
    train_idx = np.asarray(dataset.train_indices, dtype=np.int64)
    require(train_idx.size >= 1, "phase III needs a non-empty training split")
    for lam, n_epochs in stages:
        require(np.isfinite(lam) and lam >= 0, "stage weights must be >= 0")
        require(int(n_epochs) >= 0, "stage lengths must be >= 0")
    full = training_batch(dataset, train_idx)

    rng = np.random.default_rng(config.seed)
    flat = _FlatParams([*net.params.items(), *dec.params.items(), *head.params.items()])
    stepping = _networks((net, dec, head), flat.data)
    snapshot = np.empty_like(flat.data)
    last_good, trace = (net, dec, head), []
    try:
        for stage, (lam, n_epochs) in enumerate(stages):
            for _ in range(int(n_epochs)):
                order = rng.permutation(train_idx.size)
                for step, start in enumerate(range(0, train_idx.size, config.batch_size)):
                    rows = order[start:start + config.batch_size]
                    batch = TrainingBatch(*(column[rows] for column in full))
                    backward(*stepping, batch, lam, flat.grads)
                    flat.step(config)
                step = None
                last_good, report = _snapshot(stepping, flat, snapshot,
                                              lambda *nets: batch_loss(*nets, full, lam))
                trace.append(report)
    except NumericalFailureError as exc:
        done = ("no epoch finished" if not trace else "last finished epoch: " + ", ".join(
            f"{name} {getattr(trace[-1], name)!r}" for name in ("total", "recon", "ident")))
        error = NumericalFailureError(
            f"phase III stage {stage} (lambda_r {lam!r}), epoch {len(trace)}, "
            f"{'end of epoch' if step is None else f'step {step}'}: {exc}; {done}")
        error.last_good = last_good + (trace,)
        raise error from exc
    return last_good[0], last_good[1], last_good[2], trace


# ---------------------------------------------------------------------------
# Finite-difference audit.

def finite_diff_check(net: EncoderNet, dec: DecoderNet, head: ClassifierHead,
                      batch: TrainingBatch, step: float = 1e-6,
                      n_coords: int = 200, seed: int = 0,
                      lambda_r: float = 0.5) -> float:
    """Max relative error of backward() against central finite differences.

    Samples n_coords parameter coordinates (deterministic for a fixed seed,
    spread over every parameter array) and compares the analytic gradient to
    (f(p+h) - f(p-h)) / 2h on the batch-mean joint loss. Central differences
    at step 1e-6 on a double-precision loss carry roughly 1e-10 of absolute
    noise, so the relative-error denominator is floored at 1e-4 times the
    gradient scale: near-dead coordinates are then compared absolutely at
    noise level instead of producing spurious relative blowups.
    """
    require(step > 0, "step must be positive")
    require(int(n_coords) >= 1, "n_coords must be positive")
    nets = (net, dec, head)
    grads, _ = backward(*nets, batch, lambda_r)
    # one probe vector, perturbed in place under networks over it; the
    # coordinates are drawn from every array, keys in sorted order
    probe = np.concatenate([part.vector for part in nets])
    probing = _networks(nets, probe)
    params = dict(item for part in nets for item in part.params.items())
    ends = dict(zip(params, np.cumsum([array.size for array in params.values()])))
    keys = sorted(params)
    where = np.concatenate([np.arange(ends[k] - params[k].size, ends[k]) for k in keys])
    analytic = np.concatenate([grads[k].ravel() for k in keys])
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(where.size, size=min(int(n_coords), where.size),
                                replace=False))
    floor = 1e-4 * (1.0 + float(np.max(np.abs(analytic))))

    def loss_at(index: int, value: float) -> float:
        probe[index] = value
        return batch_loss(*probing, batch, lambda_r).total

    worst = 0.0
    for index, exact in zip(where[chosen].tolist(), analytic[chosen].tolist()):
        base = float(probe[index])
        numeric = (loss_at(index, base + step) - loss_at(index, base - step)) / (2.0 * step)
        probe[index] = base
        worst = max(worst, abs(numeric - exact) / max(abs(numeric), abs(exact), floor))
    return worst
