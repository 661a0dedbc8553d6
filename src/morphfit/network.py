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

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, UnderdeterminedError, require
from .geometry import MorphableModel, _readonly

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


def _freeze(obj, what: str, *names: str) -> list:
    """Set the named fields of `obj` to read-only float64 copies, all finite."""
    arrays = [_readonly(getattr(obj, name)) for name in names]
    require(all(bool(np.all(np.isfinite(a))) for a in arrays),
            f"{what} parameters must be finite")
    for name, array in zip(names, arrays):
        object.__setattr__(obj, name, array)
    return arrays


@dataclass(frozen=True)
class Layer:
    """One affine layer: y = act(x @ weight.T + bias).

    The "linear" activation exists for gradient audits (a linear-only network
    has machine-exact derivatives); real encoders end in "tanh".
    """

    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self):
        weight, bias = _freeze(self, "layer", "weight", "bias")
        require(weight.ndim == 2, "layer weight must be a matrix")
        require(bias.ndim == 1 and bias.size == weight.shape[0],
                "layer bias length must equal the output width")
        require(self.activation in _ACTIVATIONS,
                f"unknown activation {self.activation!r}")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class EncoderNet:
    """Feedforward encoder with two bounded output heads.

    The final layer produces q_id + q_res units; the first q_id become the
    identity code, the rest the residual code. Outputs are clamped strictly
    inside (-1, 1) regardless of activation so downstream consumers can rely
    on the open interval.
    """

    layers: tuple
    q_id: int
    q_res: int

    def __post_init__(self):
        layers = tuple(self.layers)
        require(len(layers) >= 1, "encoder needs at least one layer")
        require(all(isinstance(l, Layer) for l in layers),
                "encoder layers must be Layer instances")
        for first, second in zip(layers, layers[1:]):
            require(second.in_dim == first.out_dim,
                    "encoder layer dimensions must chain")
        require(int(self.q_id) >= 1 and int(self.q_res) >= 1,
                "head widths must be positive")
        require(layers[-1].out_dim == int(self.q_id) + int(self.q_res),
                "final layer width must equal q_id + q_res")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "q_id", int(self.q_id))
        object.__setattr__(self, "q_res", int(self.q_res))

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim


@dataclass(frozen=True)
class DecoderNet:
    """Two independent linear decoders from latent codes to shape deltas."""

    weight_id: np.ndarray
    bias_id: np.ndarray
    weight_res: np.ndarray
    bias_res: np.ndarray

    def __post_init__(self):
        w_id, b_id, w_res, b_res = _freeze(self, "decoder", "weight_id", "bias_id",
                                           "weight_res", "bias_res")
        require(w_id.ndim == 2 and w_res.ndim == 2, "decoder weights must be matrices")
        require(w_id.shape[0] == w_res.shape[0],
                "both decoders must produce the same output length")
        require(b_id.shape == (w_id.shape[0],) and b_res.shape == (w_res.shape[0],),
                "decoder bias lengths must match the output length")

    @property
    def out_dim(self) -> int:
        return self.weight_id.shape[0]

    @property
    def q_id(self) -> int:
        return self.weight_id.shape[1]

    @property
    def q_res(self) -> int:
        return self.weight_res.shape[1]


@dataclass(frozen=True)
class ClassifierHead:
    """Linear softmax classifier over the identity code (training only)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        weight, bias = _freeze(self, "head", "weight", "bias")
        require(weight.ndim == 2, "head weight must be a matrix")
        require(bias.shape == (weight.shape[0],),
                "head bias length must equal the class count")

    @property
    def n_classes(self) -> int:
        return self.weight.shape[0]

    @property
    def q_id(self) -> int:
        return self.weight.shape[1]


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
        require(self.learning_rate > 0, "learning_rate must be positive")
        require(0 <= self.beta1 < 1 and 0 <= self.beta2 < 1,
                "beta1 and beta2 must lie in [0, 1)")
        require(self.epsilon > 0, "epsilon must be positive")
        require(int(self.batch_size) >= 1, "batch_size must be at least 1")
        require(int(self.epochs) >= 1, "epochs must be at least 1")


@dataclass(frozen=True)
class LossReport:
    """Joint loss breakdown for one batch or epoch."""

    total: float
    recon: float
    ident: float
    accuracy: float
    lambda_r: float

    def __post_init__(self):
        for name in ("total", "recon", "ident", "accuracy", "lambda_r"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            require(np.isfinite(value), f"LossReport.{name} must be finite")
        require(abs(self.total - (self.lambda_r * self.recon + self.ident)) <= 1e-10,
                "total must equal lambda_r * recon + ident")
        require(0.0 <= self.accuracy <= 1.0, "accuracy must lie in [0, 1]")


@dataclass(frozen=True)
class TrainingBatch:
    """Raster images, subject labels and target shape deltas, row-aligned."""

    images: np.ndarray
    labels: np.ndarray
    target_delta: np.ndarray

    def __post_init__(self):
        images = _readonly(np.atleast_2d(self.images))
        labels = np.array(self.labels, dtype=np.int64, copy=True).ravel()
        labels.setflags(write=False)
        target = _readonly(np.atleast_2d(self.target_delta))
        require(images.ndim == 2 and images.shape[0] >= 1, "images must be (B, D)")
        require(labels.size == images.shape[0], "one label per image required")
        require(target.shape[0] == images.shape[0], "one target row per image")
        require(bool(np.all(np.isfinite(images))), "images must be finite")
        require(bool(np.all(np.isfinite(target))), "targets must be finite")
        require(bool(np.all(labels >= 0)), "labels must be non-negative")
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "target_delta", target)

    @property
    def size(self) -> int:
        return self.images.shape[0]


def init_encoder(input_dim: int, q_id: int, q_res: int,
                 hidden: tuple = (256, 256), seed: int = 0) -> EncoderNet:
    """Glorot-initialized tanh encoder with the given hidden widths."""
    require(int(input_dim) >= 1, "input_dim must be positive")
    rng = np.random.default_rng(seed)
    widths = [int(input_dim)] + [int(h) for h in hidden] + [int(q_id) + int(q_res)]
    layers = tuple(Layer(rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)),
                                    size=(fan_out, fan_in)), np.zeros(fan_out), "tanh")
                   for fan_in, fan_out in zip(widths, widths[1:]))
    return EncoderNet(layers, int(q_id), int(q_res))


def init_decoder(out_dim: int, q_id: int, q_res: int, seed: int = 0) -> DecoderNet:
    """Small random linear decoders (phase II replaces them in closed form)."""
    rng = np.random.default_rng(seed)
    std_id = np.sqrt(2.0 / (out_dim + q_id))
    std_res = np.sqrt(2.0 / (out_dim + q_res))
    return DecoderNet(rng.normal(0.0, std_id, size=(out_dim, q_id)),
                      np.zeros(out_dim),
                      rng.normal(0.0, std_res, size=(out_dim, q_res)),
                      np.zeros(out_dim))


def init_head(n_classes: int, q_id: int, seed: int = 0) -> ClassifierHead:
    require(int(n_classes) >= 2, "need at least two classes")
    rng = np.random.default_rng(seed)
    std = np.sqrt(2.0 / (n_classes + q_id))
    return ClassifierHead(rng.normal(0.0, std, size=(n_classes, q_id)),
                          np.zeros(n_classes))


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
    require(np.isfinite(scale) and scale > 0, "scale must be positive")
    means = np.empty((n_classes, codes.shape[1]))
    for k in range(n_classes):
        rows = labels == k
        require(bool(rows.any()), f"class {k} has no samples")
        means[k] = codes[rows].mean(axis=0)
    return ClassifierHead(scale * means,
                          -0.5 * scale * np.sum(means * means, axis=1))


def _apply_activation(z: np.ndarray, tag: str) -> np.ndarray:
    if tag == "tanh":
        return np.tanh(z)
    return z


def _activation_grad(post: np.ndarray, tag: str) -> np.ndarray:
    # Derivative expressed through the post-activation value; exact for both
    # supported activations (clamping only bites where tanh' < 2e-12).
    if tag == "tanh":
        return 1.0 - post * post
    return np.ones_like(post)


def _forward_trace(net: EncoderNet, images: np.ndarray) -> tuple:
    """Batched forward pass keeping per-layer post-activations for backprop.

    Returns (codes, activations) where activations[0] is the input batch and
    activations[i] the output of layer i-1; codes is the clamped final output.
    """
    activations = [images]
    current = images
    for layer in net.layers:
        z = current @ layer.weight.T + layer.bias
        current = _apply_activation(z, layer.activation)
        activations.append(current)
    codes = np.clip(current, -OUTPUT_CLIP, OUTPUT_CLIP)
    if not np.all(np.isfinite(codes)):
        raise NumericalFailureError("encoder activations became non-finite")
    return codes, activations


def decode(dec: DecoderNet, c_id: np.ndarray, c_res: np.ndarray) -> np.ndarray:
    """Shape deltas of code rows: both linear decoders, summed left to right."""
    return (c_id @ dec.weight_id.T + dec.bias_id
            + c_res @ dec.weight_res.T + dec.bias_res)


def joint_loss(recon: float, ident: float, lambda_r: float,
               accuracy: float = 0.0) -> LossReport:
    """Combine the two loss components: total = lambda_r * recon + ident."""
    require(np.isfinite(recon) and np.isfinite(ident) and np.isfinite(lambda_r),
            "loss inputs must be finite")
    return LossReport(lambda_r * recon + ident, recon, ident, accuracy, lambda_r)


# ---------------------------------------------------------------------------
# Parameter layout and the flat parameter buffer shared by the trainers.

# The layout table: the key prefix, class and trainable fields of each part,
# in flat-buffer and checkpoint order; encoder layer i is the part "enc.{i}".
_LAYER_FIELDS = ("weight", "bias")
_PARTS = (("dec", DecoderNet, ("weight_id", "bias_id", "weight_res", "bias_res")),
          ("head", ClassifierHead, ("weight", "bias")))


def _param_table(net: EncoderNet, *parts) -> list:
    """(key, array) of every trainable array of `net` and then of [dec, head]."""
    table = [(f"enc.{i}.{name}", getattr(layer, name))
             for i, layer in enumerate(net.layers) for name in _LAYER_FIELDS]
    for part, (prefix, _cls, names) in zip(parts, _PARTS):
        table += [(f"{prefix}.{name}", getattr(part, name)) for name in names]
    return table


def all_params(net: EncoderNet, dec: DecoderNet, head: ClassifierHead) -> dict:
    return dict(_param_table(net, dec, head))


def _build(cls, checked: bool, **fields):
    """cls(**fields); with checked=False, the same without copies or checks."""
    if checked:
        return cls(**fields)
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _assemble(template: EncoderNet, params: dict, checked: bool = True) -> tuple:
    """(encoder[, decoder, head]) like `template` over `params`' arrays."""
    layers = tuple(
        _build(Layer, checked, activation=layer.activation,
               **{name: params[f"enc.{i}.{name}"] for name in _LAYER_FIELDS})
        for i, layer in enumerate(template.layers))
    out = [_build(EncoderNet, checked, layers=layers, q_id=template.q_id,
                  q_res=template.q_res)]
    for prefix, cls, names in _PARTS:
        if f"{prefix}.{names[0]}" in params:
            out.append(_build(cls, checked, **{name: params[f"{prefix}.{name}"]
                                               for name in names}))
    return tuple(out)


class _FlatParams:
    """A phase's trainable arrays in one contiguous float64 vector, with Adam.

    `views` and `grads` hold C-ordered views of `data` (read-only) and of
    `grad` (writable), keyed like the table; both moments share the layout.
    """

    # Adam's block length: the six float64 blocks of one pass (parameter,
    # gradient, both moments, two scratch blocks; 1.5 MB) fit a 2 MB L2 cache.
    block = 32768

    def __init__(self, table: list):
        n = sum(array.size for _, array in table)
        self.data, self.grad, self.m, self.v = (np.empty(n) for _ in range(4))
        self._scratch = np.empty((2, min(n, self.block)))
        readonly = self.data.view()
        readonly.setflags(write=False)
        self.views, self.grads, self._weights = {}, {}, []
        lo = 0
        for key, array in table:
            hi = lo + array.size
            self.data[lo:hi] = array.ravel()
            self.views[key] = readonly[lo:hi].reshape(array.shape)
            self.grads[key] = self.grad[lo:hi].reshape(array.shape)
            if key.endswith(".weight"):
                self._weights.append(slice(lo, hi))
            lo = hi
        self.t = 0

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


# ---------------------------------------------------------------------------
# Batched loss and exact gradients.

def _joint_forward(net: EncoderNet, dec: DecoderNet, head: ClassifierHead,
                   batch: TrainingBatch, lambda_r: float) -> tuple:
    """Batch-mean joint loss plus the intermediates backward() consumes.

    Returns (report, activations, c_id, c_res, diff, prob): the encoder
    activations, both code blocks, the decoded-minus-target residual and the
    softmax probabilities of the identification head.
    """
    require(np.isfinite(lambda_r) and lambda_r >= 0,
            "lambda_r must be finite and non-negative")
    require(bool(np.all(batch.labels < head.n_classes)),
            "labels must be within the head's class count")
    require(batch.images.shape[1] == net.input_dim,
            "batch image width must match the encoder")
    require(batch.target_delta.shape[1] == dec.out_dim,
            "batch target width must match the decoder")
    require((dec.q_id, dec.q_res, head.q_id) == (net.q_id, net.q_res, net.q_id),
            "decoder and head widths must match the encoder heads")

    codes, activations = _forward_trace(net, batch.images)
    c_id = codes[:, :net.q_id]
    c_res = codes[:, net.q_id:]
    diff = decode(dec, c_id, c_res) - batch.target_delta
    recon = float(np.mean(np.sum(diff * diff, axis=1))) / dec.out_dim

    logits = c_id @ head.weight.T + head.bias
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp_shifted = np.exp(shifted)
    z = exp_shifted.sum(axis=1)
    prob = exp_shifted / z[:, None]
    rows = np.arange(batch.size)
    ident = float(np.mean(np.log(z) - shifted[rows, batch.labels]))
    accuracy = float(np.mean(np.argmax(logits, axis=1) == batch.labels))
    if not (np.isfinite(recon) and np.isfinite(ident)):
        raise NumericalFailureError("joint loss became non-finite")
    report = joint_loss(recon, ident, lambda_r, accuracy)
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
        layer = net.layers[i]
        post = activations[i + 1]
        g_z = upstream * _activation_grad(post, layer.activation)
        _affine_grads(grads, f"enc.{i}.weight", f"enc.{i}.bias", g_z, activations[i])
        if i > 0:
            upstream = g_z @ layer.weight


def backward(net: EncoderNet, dec: DecoderNet, head: ClassifierHead,
             batch: TrainingBatch, lambda_r: float, out: dict | None = None) -> tuple:
    """Exact gradients of the batch-mean joint loss for every parameter.

    Returns (grads, report): a dict keyed like all_params() (`out`, its
    C-ordered arrays overwritten, if given) plus the loss report for the same
    batch. Accumulation is batch-vectorized with a fixed reduction order, so
    repeated calls are bit-identical.
    """
    report, activations, c_id, c_res, diff, prob = _joint_forward(
        net, dec, head, batch, lambda_r)
    b = batch.size
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
                        alpha_exp: np.ndarray, clip: bool = True) -> np.ndarray:
    """Latent regression targets alpha / (3 sigma), one row per sample.

    With clip=True values are clamped to [-0.99, 0.99] so a bounded output
    head can reach them; phase II leaves them unclipped to keep the
    code-to-shape relation exactly linear.
    """
    out = np.concatenate([alpha_id / (TARGET_SCALE * model.sigma_id),
                          alpha_exp / (TARGET_SCALE * model.sigma_exp)], axis=1)
    return np.clip(out, -TARGET_CLIP, TARGET_CLIP) if clip else out


def training_batch(dataset, indices) -> TrainingBatch:
    """Assemble images/labels/shape-delta targets for the given sample rows."""
    rows = np.asarray(indices, dtype=np.int64)
    target = dataset.ground_truth_shapes(rows) - dataset.model.mean
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
    fixed config seed.
    """
    model = dataset.model
    require(net.q_id == model.k_id and net.q_res == model.k_exp,
            "phase I requires encoder head widths equal to the basis widths")
    train_idx = np.asarray(dataset.train_indices, dtype=np.int64)
    val_idx = np.asarray(dataset.val_indices, dtype=np.int64)
    require(train_idx.size >= 1, "phase I needs a non-empty training split")

    def arrays(idx):
        return (dataset.images(idx), coefficient_targets(
            model, dataset.alpha_id[idx], dataset.alpha_exp[idx], clip=True))

    train_images, train_targets = arrays(train_idx)
    val_images, val_targets = arrays(val_idx) if val_idx.size else (None, None)

    rng = np.random.default_rng(config.seed)
    flat = _FlatParams(_param_table(net))
    (stepping,) = _assemble(net, flat.views, checked=False)
    trained, history = net, []
    q_total = net.q_id + net.q_res
    for _ in range(config.epochs):
        order = rng.permutation(train_idx.size)
        for start in range(0, train_idx.size, config.batch_size):
            rows = order[start:start + config.batch_size]
            codes, activations = _forward_trace(stepping, train_images[rows])
            grad_codes = (2.0 / (rows.size * q_total)) * (codes - train_targets[rows])
            _encoder_backprop(stepping, activations, grad_codes, flat.grads)
            flat.step(config, decay=PHASE1_WEIGHT_DECAY)
        (trained,) = _assemble(net, flat.views)
        train_loss = _regression_loss(trained, train_images, train_targets)
        val_loss = (_regression_loss(trained, val_images, val_targets)
                    if val_images is not None else float("nan"))
        history.append((train_loss, val_loss))
    return trained, history


# ---------------------------------------------------------------------------
# Phase II: closed-form decoder fit on exact coefficient/component pairs.

def train_phase2(dec: DecoderNet, dataset, n_pairs: int = 96,
                 seed: int = 0, min_norm: bool = False) -> DecoderNet:
    """Fit both linear decoders by least squares on synthetic exact pairs.

    Coefficient draws come fresh from the generating distribution (the
    rendered subjects alone cannot span the identity coefficient space when
    there are fewer training subjects than identity dimensions), and targets
    are the exactly linear shape components, so the fit is exact up to
    rounding. Raises UnderdeterminedError when n_pairs cannot determine the
    affine map, unless min_norm=True accepts the minimum-norm solution.
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
        if n_pairs < k + 1 and not min_norm:
            raise UnderdeterminedError(
                f"{n_pairs} pairs cannot determine a width-{k} affine decoder; "
                "pass min_norm=True to accept the minimum-norm fit")
        alphas = rng.normal(0.0, 1.0, size=(int(n_pairs), k)) * sigma
        codes = alphas / (TARGET_SCALE * sigma)
        targets = alphas @ basis.T
        design = np.column_stack([codes, np.ones(codes.shape[0])])
        if not min_norm:
            rank = np.linalg.matrix_rank(design)
            if rank < k + 1:
                raise UnderdeterminedError(
                    f"design rank {rank} < {k + 1}; the sampled codes do not "
                    "span the code space")
        solution, *_ = np.linalg.lstsq(design, targets, rcond=None)
        return solution[:k].T, solution[k]

    weight_id, bias_id = fit(model.basis_id, model.sigma_id)
    weight_res, bias_res = fit(model.basis_exp, model.sigma_exp)
    return DecoderNet(weight_id, bias_id, weight_res, bias_res)


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
    flat = _FlatParams(_param_table(net, dec, head))
    stepping = _assemble(net, flat.views, checked=False)
    last_good, trace = (net, dec, head), []
    try:
        for stage, (lam, n_epochs) in enumerate(stages):
            for _ in range(int(n_epochs)):
                order = rng.permutation(train_idx.size)
                for step, start in enumerate(range(0, train_idx.size, config.batch_size)):
                    rows = order[start:start + config.batch_size]
                    batch = _build(TrainingBatch, False, images=full.images[rows],
                                   labels=full.labels[rows],
                                   target_delta=full.target_delta[rows])
                    backward(*stepping, batch, lam, flat.grads)
                    flat.step(config)
                step = None
                if not np.all(np.isfinite(flat.data)):
                    raise NumericalFailureError("parameters became non-finite")
                epoch_end = _assemble(net, flat.views)
                trace.append(batch_loss(*epoch_end, full, lam))
                last_good = epoch_end
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
    params = all_params(net, dec, head)
    grads, _ = backward(net, dec, head, batch, lambda_r)

    keys = sorted(params)
    offsets = np.cumsum([0] + [params[k].size for k in keys])
    total = int(offsets[-1])
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(total, size=min(int(n_coords), total), replace=False))
    grad_scale = max(float(np.max(np.abs(grads[k]))) if grads[k].size else 0.0
                     for k in keys)
    floor = 1e-4 * (1.0 + grad_scale)

    def loss_with(key: str, flat_index: int, value: float) -> float:
        array = params[key].copy()
        array.flat[flat_index] = value
        return batch_loss(*_assemble(net, {**params, key: array}), batch,
                          lambda_r).total

    worst = 0.0
    for global_index in chosen:
        slot = int(np.searchsorted(offsets, global_index, side="right") - 1)
        key, flat = keys[slot], int(global_index - offsets[slot])
        base = float(params[key].flat[flat])
        numeric = (loss_with(key, flat, base + step)
                   - loss_with(key, flat, base - step)) / (2.0 * step)
        analytic = float(grads[key].flat[flat])
        worst = max(worst, abs(numeric - analytic)
                    / max(abs(numeric), abs(analytic), floor))
    return worst
