"""Tests for the encoder/decoder stack, exact gradients, and the trainers."""

import dataclasses
import os
import re
import tempfile
import tracemalloc
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from morphfit import network
from morphfit.config import RunConfig
from morphfit.errors import (
    InvalidArgumentError,
    NumericalFailureError,
    UnderdeterminedError,
    require,
)
from morphfit.network import (
    DEFAULT_PHASE3_STAGES,
    PHASE1_WEIGHT_DECAY,
    ClassifierHead,
    DecoderNet,
    EncoderNet,
    LossReport,
    TrainConfig,
    TrainingBatch,
    backward,
    batch_loss,
    coefficient_targets,
    decode,
    encode_images,
    finite_diff_check,
    head_from_class_means,
    init_decoder,
    init_encoder,
    init_head,
    train_phase1,
    train_phase2,
    train_phase3,
    training_batch,
)
from morphfit.serialization import load_checkpoint, save_checkpoint
from morphfit.synthetic import Dataset, DatasetSpec

from oracles import compose_shape, summed_decode, whole_joint_backward
from conftest import row_coeffs


def encoder_of(layers, q_id: int, q_res: int) -> EncoderNet:
    """The encoder of (weight, bias, activation) layers, built through its
    constructor from the arrays given."""
    widths = [layers[0][0].shape[1]] + [weight.shape[0] for weight, _, _ in layers]
    params = {}
    for i, (weight, bias, _) in enumerate(layers):
        params[f"enc.{i}.weight"], params[f"enc.{i}.bias"] = weight, bias
    return EncoderNet(widths, [tag for _, _, tag in layers], q_id, q_res, params)


def decoder_of(weight_id, bias_id, weight_res, bias_res) -> DecoderNet:
    return DecoderNet(weight_id.shape[0], weight_id.shape[1], weight_res.shape[1],
                      {"dec.weight_id": weight_id, "dec.bias_id": bias_id,
                       "dec.weight_res": weight_res, "dec.bias_res": bias_res})


def head_of(weight, bias) -> ClassifierHead:
    return ClassifierHead(*weight.shape, {"head.weight": weight, "head.bias": bias})


def small_net(rng: np.random.Generator, in_dim: int = 6, hidden: int = 5,
              q_id: int = 2, q_res: int = 2, activation: str = "tanh") -> EncoderNet:
    layers = ((rng.normal(0.0, 0.3, size=(hidden, in_dim)),
               rng.normal(0.0, 0.1, size=hidden), activation),
              (rng.normal(0.0, 0.3, size=(q_id + q_res, hidden)),
               rng.normal(0.0, 0.1, size=q_id + q_res), activation))
    return encoder_of(layers, q_id, q_res)


def small_decoder(rng: np.random.Generator, out_dim: int = 9, q_id: int = 2,
                  q_res: int = 2) -> DecoderNet:
    return decoder_of(rng.normal(0.0, 0.3, size=(out_dim, q_id)),
                      rng.normal(0.0, 0.1, size=out_dim),
                      rng.normal(0.0, 0.3, size=(out_dim, q_res)),
                      rng.normal(0.0, 0.1, size=out_dim))


def small_batch(rng: np.random.Generator, size: int = 4, in_dim: int = 6,
                out_dim: int = 9, n_classes: int = 3) -> TrainingBatch:
    return TrainingBatch(rng.uniform(-1.0, 1.0, size=(size, in_dim)),
                         rng.integers(0, n_classes, size=size),
                         rng.normal(0.0, 0.3, size=(size, out_dim)))


def encode_one(net: EncoderNet, x: np.ndarray) -> np.ndarray:
    """Both code blocks of one input row, concatenated."""
    c_id, c_res = encode_images(net, x[None, :])
    return np.concatenate([c_id[0], c_res[0]])


def argmax_accuracy(head: ClassifierHead, codes_id: np.ndarray,
                    labels: np.ndarray) -> float:
    logits = codes_id @ head.weight.T + head.bias
    return float(np.mean(np.argmax(logits, axis=1) == labels))


# Per-sample oracles for the batched joint loss.
def recon_oracle(predicted: np.ndarray, target: np.ndarray) -> float:
    diff = predicted - target
    return float(diff @ diff) / diff.size


def ident_oracle(head: ClassifierHead, c_id: np.ndarray, label: int) -> float:
    logits = head.weight @ c_id + head.bias
    shifted = logits - logits.max()
    return float(np.log(np.sum(np.exp(shifted))) - shifted[label])


def one_sample_batch(image_dim: int, label: int, target: np.ndarray) -> TrainingBatch:
    return TrainingBatch(np.zeros((1, image_dim)), np.array([label]), target[None, :])


# Slow oracles for the flat in-place Adam update and the trainers built on
# it: the dict-based update and the per-step re-assembled training loops it
# replaced, kept verbatim but for the update formula, which follows the flat
# buffer's efficient form; the textbook formula stays as an oracle for that.
@dataclass
class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_update(m: np.ndarray, v: np.ndarray, config: TrainConfig, t: int,
                textbook: bool = False) -> np.ndarray:
    """The bias-corrected step after t updates left the moments m and v: in
    the efficient form of arXiv:1412.6980 section 2, or with textbook=True as
    its Algorithm 1 writes it, lr * m_hat / (sqrt(v_hat) + eps)."""
    c1, c2 = 1.0 - config.beta1 ** t, 1.0 - config.beta2 ** t
    if textbook:
        return config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.epsilon)
    return ((m / (np.sqrt(v) + config.epsilon * np.sqrt(c2)))
            * (config.learning_rate * np.sqrt(c2) / c1))


def optimizer_step(params: dict, grads: dict, state: AdamState,
                   config: TrainConfig, step_count: int) -> tuple:
    """One adaptive-moment update with bias correction; purely functional.

    Returns (new_params, new_state). step_count starts at 1 for the first
    update.
    """
    require(int(step_count) >= 1, "step_count starts at 1")
    t = int(step_count)
    new_params = {}
    new_state = AdamState(dict(state.m), dict(state.v))
    for key in sorted(params):
        g = grads[key]
        m = new_state.m.get(key)
        v = new_state.v.get(key)
        m = (1.0 - config.beta1) * g if m is None else config.beta1 * m + (1.0 - config.beta1) * g
        v = (1.0 - config.beta2) * g * g if v is None else config.beta2 * v + (1.0 - config.beta2) * g * g
        new_state.m[key] = m
        new_state.v[key] = v
        new_params[key] = params[key] - adam_update(m, v, config, t)
    return new_params, new_state


def flat_step(flat, grads: dict, config: TrainConfig, decay: float = 0.0) -> None:
    """Write `grads` into the buffer's gradient views, then take one step."""
    for key, value in grads.items():
        flat.grads[key][...] = value
    flat.step(config, decay=decay)


def decay_oracle(params: dict, config: TrainConfig) -> dict:
    shrink = 1.0 - config.learning_rate * PHASE1_WEIGHT_DECAY
    return {key: value * shrink if key.endswith(".weight") else value
            for key, value in params.items()}


def encoder_params(net: EncoderNet) -> dict:
    return dict(net.params)


def assemble_encoder(template: EncoderNet, params: dict) -> EncoderNet:
    widths = [template.input_dim] + [weight.shape[0] for weight, _, _ in template.layers]
    return EncoderNet(widths, [tag for _, _, tag in template.layers], template.q_id,
                      template.q_res, params)


def assemble_decoder(params: dict) -> DecoderNet:
    out_dim, q_id = params["dec.weight_id"].shape
    return DecoderNet(out_dim, q_id, params["dec.weight_res"].shape[1], params)


def assemble_head(params: dict) -> ClassifierHead:
    return ClassifierHead(*params["head.weight"].shape, params)


def phase1_oracle(net: EncoderNet, dataset, config: TrainConfig) -> tuple:
    train_idx = np.asarray(dataset.train_indices, dtype=np.int64)
    val_idx = np.asarray(dataset.val_indices, dtype=np.int64)

    def arrays(idx):
        return (np.array([dataset.depth[int(i)].ravel() for i in idx]),
                coefficient_targets(dataset.model, dataset.alpha_id[idx],
                                    dataset.alpha_exp[idx]))

    train_images, train_targets = arrays(train_idx)
    val_images, val_targets = arrays(val_idx)
    rng = np.random.default_rng(config.seed)
    params, state, step, history = encoder_params(net), AdamState(), 0, []
    q_total = net.q_id + net.q_res
    for _ in range(config.epochs):
        order = rng.permutation(train_idx.size)
        for start in range(0, train_idx.size, config.batch_size):
            rows = order[start:start + config.batch_size]
            current = assemble_encoder(net, params)
            codes, activations = network._forward_trace(current, train_images[rows])
            grad_codes = (2.0 / (rows.size * q_total)) * (codes - train_targets[rows])
            grads = {}
            network._encoder_backprop(current, activations, grad_codes, grads)
            step += 1
            params, state = optimizer_step(params, grads, state, config, step)
            params = decay_oracle(params, config)
        current = assemble_encoder(net, params)
        history.append((network._regression_loss(current, train_images, train_targets),
                        network._regression_loss(current, val_images, val_targets)))
    return assemble_encoder(net, params), history


def phase3_oracle(net, dec, head, dataset, config: TrainConfig, stages) -> tuple:
    train_idx = np.asarray(dataset.train_indices, dtype=np.int64)
    full = training_batch(dataset, train_idx)
    rng = np.random.default_rng(config.seed)
    params, state, step, trace = ({**net.params, **dec.params, **head.params},
                                   AdamState(), 0, [])
    for lam, n_epochs in stages:
        for _ in range(n_epochs):
            order = rng.permutation(train_idx.size)
            for start in range(0, train_idx.size, config.batch_size):
                batch = training_batch(
                    dataset, train_idx[order[start:start + config.batch_size]])
                grads, _ = backward(assemble_encoder(net, params),
                                    assemble_decoder(params),
                                    assemble_head(params), batch, lam)
                step += 1
                params, state = optimizer_step(params, grads, state, config, step)
            trace.append(batch_loss(assemble_encoder(net, params),
                                    assemble_decoder(params),
                                    assemble_head(params), full, lam))
    return (assemble_encoder(net, params), assemble_decoder(params),
            assemble_head(params), trace)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bit patterns (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a, dtype=np.float64).view(np.uint64),
        np.ascontiguousarray(b, dtype=np.float64).view(np.uint64))


def fortran_ordered(*parts) -> tuple:
    """The same networks built through their constructors from copies of
    their arrays with every matrix Fortran-ordered."""
    out = []
    for part in parts:
        params = {key: np.asfortranarray(array) for key, array in part.params.items()}
        assert not any(a.ndim == 2 and a.flags.c_contiguous for a in params.values())
        out.append(assemble_encoder(part, params) if isinstance(part, EncoderNet)
                   else assemble_decoder(params) if isinstance(part, DecoderNet)
                   else assemble_head(params))
    return tuple(out)


def network_arrays(*parts) -> list:
    """Every parameter array of an (encoder, decoder, head) prefix."""
    return [array for part in parts for array in part.params.values()]


def flat_values(flat) -> dict:
    """The buffer's current parameters, keyed and shaped like its gradients."""
    out, lo = {}, 0
    for key, grad in flat.grads.items():
        out[key] = flat.data[lo:lo + grad.size].reshape(grad.shape)
        lo += grad.size
    return out


# ---------------------------------------------------------------------------
# the one constructor: a structure over one read-only vector


@st.composite
def network_arrays_given(draw):
    """(encoder, decoder, head) structures and their arrays, each drawn C- or
    Fortran-ordered."""
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    q_id, q_res = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    widths.append(q_id + q_res)
    activations = draw(st.lists(st.sampled_from(["tanh", "linear"]),
                                min_size=len(widths) - 1, max_size=len(widths) - 1))
    out_dim, n_classes = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    shapes = {f"enc.{i}.{name}": shape
              for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:]))
              for name, shape in (("weight", (fan_out, fan_in)), ("bias", (fan_out,)))}
    shapes.update({"dec.weight_id": (out_dim, q_id), "dec.bias_id": (out_dim,),
                   "dec.weight_res": (out_dim, q_res), "dec.bias_res": (out_dim,),
                   "head.weight": (n_classes, q_id), "head.bias": (n_classes,)})
    given = {}
    for key, shape in shapes.items():
        array = draw(arrays(np.float64, shape, elements=st.floats(-2.0, 2.0)))
        given[key] = np.asfortranarray(array) if draw(st.booleans()) else array
    return (widths, activations, q_id, q_res, out_dim, n_classes), given


class TestOneConstructor:
    @settings(max_examples=40, deadline=None)
    @given(network_arrays_given(), st.integers(1, 3))
    def test_views_of_one_vector(self, drawn, rows):
        (widths, activations, q_id, q_res, out_dim, n_classes), given = drawn
        nets = (EncoderNet(widths, activations, q_id, q_res, given),
                DecoderNet(out_dim, q_id, q_res, given),
                ClassifierHead(n_classes, q_id, given))
        for net in nets:
            vector = net.vector
            assert vector.flags.c_contiguous and not vector.flags.writeable
            lo, hi = np.lib.array_utils.byte_bounds(vector)
            assert sum(view.size for view in net.params.values()) == vector.size
            for key, view in net.params.items():
                assert view.flags.c_contiguous and not view.flags.writeable, key
                start, end = np.lib.array_utils.byte_bounds(view)
                assert lo <= start and end <= hi, key
                assert same_bits(view, given[key]), key
        assert [k for net in nets for k in net.params] == list(given)

        with tempfile.TemporaryDirectory() as root:
            first, second = os.path.join(root, "a.ckpt"), os.path.join(root, "b.ckpt")
            save_checkpoint(*nets, RunConfig(), first)
            save_checkpoint(*load_checkpoint(first)[:3], RunConfig(), second)
            assert Path(first).read_bytes() == Path(second).read_bytes()

        # the per-layer loop over standalone C-ordered copies of the arrays
        images = np.linspace(-1.0, 1.0, rows * widths[0]).reshape(rows, widths[0])
        current = images
        for i, tag in enumerate(activations):
            z = (current @ np.ascontiguousarray(given[f"enc.{i}.weight"]).T
                 + np.ascontiguousarray(given[f"enc.{i}.bias"]))
            current = np.tanh(z) if tag == "tanh" else z
        want = np.clip(current, -network.OUTPUT_CLIP, network.OUTPUT_CLIP)
        c_id, c_res = encode_images(nets[0], images)
        assert same_bits(c_id, want[:, :q_id]) and same_bits(c_res, want[:, q_id:])

    def test_vector_is_kept_without_a_copy(self):
        head = head_of(np.arange(6.0).reshape(3, 2), np.zeros(3))
        other = ClassifierHead(3, 2, head.vector)
        assert np.shares_memory(other.vector, head.vector)
        assert not other.vector.flags.writeable
        assert same_bits(other.weight, head.weight)

    @pytest.mark.parametrize("params, message", [
        (np.zeros(8), "of length 9"),
        (np.zeros(9, dtype=np.float32), "float64"),
        (np.zeros(18)[::2], "C-ordered"),
        ({"head.weight": np.zeros((3, 2))}, "head.bias: missing"),
        ({"head.weight": np.zeros((2, 3)), "head.bias": np.zeros(3)},
         "head.weight: shape (2, 3), expected (3, 2)"),
        ({"head.weight": np.full((3, 2), np.inf), "head.bias": np.zeros(3)},
         "parameters must be finite"),
        (np.full(9, np.nan), "parameters must be finite"),
    ])
    def test_rejected(self, params, message):
        with pytest.raises(InvalidArgumentError, match=re.escape(message)):
            ClassifierHead(3, 2, params)


# ---------------------------------------------------------------------------
# forward passes


class TestEncoderForward:
    def test_zero_network_outputs_zero(self):
        layers = ((np.zeros((5, 6)), np.zeros(5), "tanh"),
                  (np.zeros((4, 5)), np.zeros(4), "tanh"))
        c_id, c_res = encode_images(encoder_of(layers, 2, 2), np.zeros(6))
        assert np.array_equal(c_id, np.zeros((1, 2)))
        assert np.array_equal(c_res, np.zeros((1, 2)))

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        layers = ((rng.normal(0.0, 50.0, size=(4, 6)), np.zeros(4), "tanh"),)
        net = encoder_of(layers, 2, 2)
        assert np.all(np.abs(encode_one(net, np.ones(6))) < 1.0)

    def test_matches_layer_loop_oracle(self):
        rng = np.random.default_rng(1)
        net = small_net(rng)
        x = rng.uniform(-1.0, 1.0, size=6)
        merged = encode_one(net, x)

        current = x.copy()
        for weight, bias, _ in net.layers:
            out_dim, in_dim = weight.shape
            nxt = np.empty(out_dim)
            for j in range(out_dim):
                z = bias[j]
                for k in range(in_dim):
                    z += weight[j, k] * current[k]
                nxt[j] = np.tanh(z)
            current = nxt
        assert np.max(np.abs(merged - current)) < 1e-12

    def test_linear_activation_is_affine(self):
        rng = np.random.default_rng(2)
        weight = rng.normal(0.0, 0.1, size=(4, 6))
        bias = rng.normal(0.0, 0.1, size=4)
        net = encoder_of(((weight, bias, "linear"),), 2, 2)
        x = rng.uniform(-1.0, 1.0, size=6)
        merged = encode_one(net, x)
        assert np.max(np.abs(merged - (weight @ x + bias))) < 1e-15

    def test_input_validation(self):
        net = small_net(np.random.default_rng(0))
        with pytest.raises(InvalidArgumentError):
            encode_images(net, np.zeros(5))
        with pytest.raises(InvalidArgumentError):
            encode_images(net, np.zeros((3, 7)))

    def test_structure_validation(self):
        good = {"enc.0.weight": np.zeros((4, 6)), "enc.0.bias": np.zeros(4)}
        with pytest.raises(InvalidArgumentError):
            EncoderNet((6,), (), 2, 2, {})
        with pytest.raises(InvalidArgumentError):
            EncoderNet((6, 4), ("tanh",), 3, 3, good)  # final width 4 != 6
        with pytest.raises(InvalidArgumentError):
            EncoderNet((6, 4), ("relu",), 2, 2, good)
        with pytest.raises(InvalidArgumentError):
            EncoderNet((6, 4, 4), ("tanh", "tanh"), 2, 2,
                       {**good, "enc.1.weight": np.zeros((4, 5)), "enc.1.bias": np.zeros(4)})

    def test_batched_encode_matches_single(self):
        rng = np.random.default_rng(3)
        net = small_net(rng)
        images = rng.uniform(-1.0, 1.0, size=(3, 6))
        codes_id, codes_res = encode_images(net, images)
        for row in range(3):
            single = encode_one(net, images[row])
            # batched matmul may round differently from the single-row path
            assert np.max(np.abs(codes_id[row] - single[:2])) < 1e-14
            assert np.max(np.abs(codes_res[row] - single[2:])) < 1e-14


class TestDecoderForward:
    def test_zero_code_returns_biases(self):
        rng = np.random.default_rng(4)
        dec = small_decoder(rng)
        delta = decode(dec, np.zeros(2), np.zeros(2))
        assert np.array_equal(delta, dec.bias_id + dec.bias_res)

    def test_unit_code_reads_column(self):
        rng = np.random.default_rng(5)
        dec = small_decoder(rng)
        delta = decode(dec, np.array([0.0, 1.0]), np.zeros(2))
        want = dec.weight_id[:, 1] + dec.bias_id + dec.bias_res
        assert np.max(np.abs(delta - want)) < 1e-15

    def test_matches_matvec_loop(self):
        rng = np.random.default_rng(6)
        dec = small_decoder(rng)
        c_id, c_res = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        delta = decode(dec, c_id, c_res)
        for b in range(3):
            for row in range(9):
                want = (dec.bias_id[row]
                        + sum(dec.weight_id[row, k] * c_id[b, k] for k in range(2))
                        + dec.bias_res[row]
                        + sum(dec.weight_res[row, k] * c_res[b, k] for k in range(2)))
                assert abs(delta[b, row] - want) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(7)
        dec = small_decoder(rng)
        a_id, a_res, b_id, b_res = rng.normal(size=(4, 2))
        zero = np.zeros(2)
        lhs = decode(dec, a_id + b_id, a_res + b_res) + decode(dec, zero, zero)
        rhs = decode(dec, a_id, a_res) + decode(dec, b_id, b_res)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 50),
           st.integers(1, 6), st.integers(1, 6))
    def test_matches_summed_oracle(self, seed, rows, out_dim, q_id, q_res):
        # codes as the trainers and eval hand them in: column blocks of one
        # (rows, q_id + q_res) array
        rng = np.random.default_rng(seed)
        dec = small_decoder(rng, out_dim, q_id, q_res)
        codes = rng.uniform(-1.0, 1.0, size=(rows, q_id + q_res))
        c_id, c_res = codes[:, :q_id], codes[:, q_id:]
        got, want = decode(dec, c_id, c_res), summed_decode(dec, c_id, c_res)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        out = np.full(want.shape, np.nan)
        assert decode(dec, c_id, c_res, out=out) is out and out.tobytes() == want.tobytes()

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        net, dec = small_net(rng, q_id=3, q_res=1), small_decoder(rng)
        head = head_of(np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(InvalidArgumentError):
            batch_loss(net, dec, head, small_batch(rng), 0.5)


# ---------------------------------------------------------------------------
# losses


class TestLosses:
    # recon and ident through batch_loss: a zero-weight encoder yields zero
    # codes, so the decoded shape is the decoder bias and the logits the head
    # bias; a 1-row batch makes the batch means the per-sample losses.

    def test_reconstruction_loss_zero_on_identical(self):
        net = encoder_of(((np.zeros((4, 6)), np.zeros(4), "tanh"),), 2, 2)
        dec = decoder_of(np.zeros((12, 2)), np.arange(12.0), np.zeros((12, 2)),
                         np.zeros(12))
        head = head_of(np.zeros((2, 2)), np.zeros(2))
        batch = one_sample_batch(6, 0, np.arange(12.0))
        assert batch_loss(net, dec, head, batch, 1.0).recon == 0.0

    def test_reconstruction_loss_unit_offset(self):
        net = encoder_of(((np.zeros((4, 6)), np.zeros(4), "tanh"),), 2, 2)
        dec = decoder_of(np.zeros((12, 2)), np.arange(12.0) + 1.0,
                         np.zeros((12, 2)), np.zeros(12))
        head = head_of(np.zeros((2, 2)), np.zeros(2))
        batch = one_sample_batch(6, 0, np.arange(12.0))
        assert batch_loss(net, dec, head, batch, 1.0).recon == 1.0

    def test_reconstruction_loss_matches_loop(self):
        rng = np.random.default_rng(9)
        net = encoder_of(((np.zeros((4, 6)), np.zeros(4), "tanh"),), 2, 2)
        a, b = rng.normal(size=12), rng.normal(size=12)
        dec = decoder_of(np.zeros((12, 2)), a, np.zeros((12, 2)), np.zeros(12))
        head = head_of(np.zeros((2, 2)), np.zeros(2))
        expected = sum((x - y) ** 2 for x, y in zip(a, b)) / 12
        report = batch_loss(net, dec, head, one_sample_batch(6, 0, b), 1.0)
        assert abs(report.recon - expected) < 1e-12

    def test_reconstruction_loss_length_mismatch(self):
        rng = np.random.default_rng(9)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(InvalidArgumentError):
            batch_loss(net, dec, head, small_batch(rng, out_dim=12), 0.5)

    def test_identification_loss_uniform_head(self):
        net = encoder_of(((np.zeros((4, 6)), np.zeros(4), "tanh"),), 2, 2)
        dec = decoder_of(np.zeros((12, 2)), np.zeros(12), np.zeros((12, 2)),
                         np.zeros(12))
        head = head_of(np.zeros((7, 2)), np.zeros(7))
        report = batch_loss(net, dec, head, one_sample_batch(6, 2, np.zeros(12)),
                            0.5)
        assert abs(report.ident - np.log(7.0)) < 1e-12

    def test_identification_loss_decreases_with_margin(self):
        # a linear encoder whose bias is the identity code
        dec = decoder_of(np.zeros((12, 3)), np.zeros(12), np.zeros((12, 1)),
                         np.zeros(12))
        head = head_of(np.vstack([np.eye(3), -np.eye(3)]), np.zeros(6))
        losses = []
        for t in (0.0, 0.25, 0.5, 0.9):
            net = encoder_of(((np.zeros((4, 6)), np.array([t, 0.0, 0.0, 0.0]),
                                    "linear"),), 3, 1)
            batch = one_sample_batch(6, 0, np.zeros(12))
            losses.append(batch_loss(net, dec, head, batch, 0.5).ident)
        assert all(later < earlier for earlier, later in zip(losses, losses[1:]))

    def test_identification_loss_matches_softmax_oracle(self):
        rng = np.random.default_rng(10)
        code = rng.uniform(-0.9, 0.9, size=3)
        net = encoder_of(((np.zeros((4, 6)), np.append(code, 0.0),
                                "linear"),), 3, 1)
        dec = decoder_of(np.zeros((12, 3)), np.zeros(12), np.zeros((12, 1)),
                         np.zeros(12))
        head = head_of(rng.normal(size=(5, 3)), rng.normal(size=5))
        logits = head.weight @ code + head.bias
        probs = np.exp(logits) / np.exp(logits).sum()
        report = batch_loss(net, dec, head, one_sample_batch(6, 3, np.zeros(12)),
                            0.5)
        assert abs(report.ident + np.log(probs[3])) < 1e-12

    def test_identification_loss_validation(self):
        rng = np.random.default_rng(11)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(np.zeros((4, 2)), np.zeros(4))
        batch = TrainingBatch(np.zeros((1, 6)), np.array([4]), np.zeros((1, 9)))
        with pytest.raises(InvalidArgumentError):
            batch_loss(net, dec, head, batch, 0.5)
        with pytest.raises(InvalidArgumentError):
            batch_loss(net, dec, head_of(np.zeros((4, 3)), np.zeros(4)),
                       small_batch(rng), 0.5)

    def test_joint_loss_weighting(self):
        report = LossReport(2.0, 2.0, 1.0, 0.0, 0.5)
        assert report.total == 2.0
        assert report.recon == 2.0 and report.ident == 1.0
        # a zero encoder and a uniform 4-class head: recon is the squared
        # decoder bias offset, 3.0, and ident is log 4
        net = encoder_of(((np.zeros((4, 6)), np.zeros(4), "tanh"),), 2, 2)
        dec = decoder_of(np.zeros((12, 2)), np.full(12, np.sqrt(3.0)),
                         np.zeros((12, 2)), np.zeros(12))
        head = head_of(np.zeros((4, 2)), np.zeros(4))
        batch = one_sample_batch(6, 0, np.zeros(12))
        for lambda_r in (0.0, 0.5, 1.0):
            got = batch_loss(net, dec, head, batch, lambda_r)
            assert got.lambda_r == lambda_r and got.ident == np.log(4.0)
            assert abs(got.recon - 3.0) < 1e-15
            assert got.total == lambda_r * got.recon + got.ident

    def test_loss_report_validation(self):
        """The report's one producer: total is lambda_r * recon + ident bit for
        bit, accuracy lies in [0, 1], and every field is a Python float, also
        for an np.float64 weight (the phase III trace CSV reprs each field)."""
        rng = np.random.default_rng(21)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)), rng.normal(size=3))
        batch = small_batch(rng, size=6)
        c_id, _ = encode_images(net, batch.images)
        predicted = np.argmax(c_id @ head.weight.T + head.bias, axis=1)
        # half the labels are the head's prediction, half are not
        labels = np.where(np.arange(6) < 3, predicted, (predicted + 1) % 3)
        batch = TrainingBatch(batch.images, labels, batch.target_delta)
        for lambda_r in (0.0, 0.7, np.float64(0.3), np.float64(1e-3)):
            for report in (batch_loss(net, dec, head, batch, lambda_r),
                           backward(net, dec, head, batch, lambda_r)[1]):
                assert [type(value) for value in report] == [float] * 5
                assert report.lambda_r == lambda_r
                total = report.lambda_r * report.recon + report.ident
                assert report.total.hex() == total.hex()
                assert 0.0 <= report.accuracy <= 1.0
                assert report.accuracy == 0.5

    def test_batch_loss_matches_single_sample_primitives(self):
        rng = np.random.default_rng(11)
        net = small_net(rng)
        dec = small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)), rng.normal(size=3))
        batch = small_batch(rng, size=1)

        report = batch_loss(net, dec, head, batch, lambda_r=0.7)
        code = encode_one(net, batch.images[0])
        delta = (dec.weight_id @ code[:2] + dec.bias_id
                 + dec.weight_res @ code[2:] + dec.bias_res)
        recon = recon_oracle(delta, batch.target_delta[0])
        ident = ident_oracle(head, code[:2], int(batch.labels[0]))
        assert abs(report.recon - recon) < 1e-12
        assert abs(report.ident - ident) < 1e-12
        assert abs(report.total - (0.7 * recon + ident)) < 1e-12


# ---------------------------------------------------------------------------
# gradients and the optimizer


class TestBackward:
    def test_zero_lambda_keeps_decoder_still(self):
        rng = np.random.default_rng(12)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)), rng.normal(size=3))
        batch = small_batch(rng)
        grads, _ = backward(net, dec, head, batch, lambda_r=0.0)
        for key in ("dec.weight_id", "dec.bias_id", "dec.weight_res", "dec.bias_res"):
            assert np.array_equal(grads[key], np.zeros_like(grads[key]))

    def test_duplicated_batch_preserves_gradients(self):
        rng = np.random.default_rng(13)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)), rng.normal(size=3))
        batch = small_batch(rng)
        doubled = TrainingBatch(np.vstack([batch.images, batch.images]),
                                np.concatenate([batch.labels, batch.labels]),
                                np.vstack([batch.target_delta, batch.target_delta]))
        grads_a, _ = backward(net, dec, head, batch, 0.5)
        grads_b, _ = backward(net, dec, head, doubled, 0.5)
        for key in grads_a:
            assert np.max(np.abs(grads_a[key] - grads_b[key])) < 1e-12

    def test_report_matches_batch_loss(self):
        rng = np.random.default_rng(14)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)), rng.normal(size=3))
        batch = small_batch(rng)
        _, report = backward(net, dec, head, batch, 0.5)
        direct = batch_loss(net, dec, head, batch, 0.5)
        assert abs(report.total - direct.total) < 1e-12
        assert report.accuracy == direct.accuracy

    def test_non_finite_loss_raises(self):
        rng = np.random.default_rng(15)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)), rng.normal(size=3))
        batch = TrainingBatch(rng.uniform(-1, 1, size=(2, 6)),
                              np.array([0, 1]),
                              np.full((2, 9), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NumericalFailureError):
            backward(net, dec, head, batch, 0.5)

    def test_label_out_of_range_rejected(self):
        rng = np.random.default_rng(16)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)), rng.normal(size=3))
        batch = TrainingBatch(rng.uniform(-1, 1, size=(2, 6)),
                              np.array([0, 3]), np.zeros((2, 9)))
        with pytest.raises(InvalidArgumentError):
            backward(net, dec, head, batch, 0.5)

    @pytest.mark.parametrize("loss", [backward, batch_loss])
    def test_negative_label_rejected(self, loss):
        # -1 would index the last class's logit instead of failing
        rng = np.random.default_rng(25)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)), rng.normal(size=3))
        batch = TrainingBatch(rng.uniform(-1, 1, size=(2, 6)),
                              np.array([0, -1]), np.zeros((2, 9)))
        with pytest.raises(InvalidArgumentError, match=r"^labels must lie in \[0, 3\)$"):
            loss(net, dec, head, batch, 0.5)

    @pytest.mark.parametrize("loss", [backward, batch_loss])
    @pytest.mark.parametrize("rows, message", [
        ((0, 0, 0), r"images must be \(B, D\)"),
        ((2, 1, 2), "one label per image required"),
        ((2, 3, 2), "one label per image required"),
        ((2, 2, 1), "one target row per image"),
        ((2, 2, 3), "one target row per image"),
    ])
    def test_misaligned_rows_rejected(self, loss, rows, message):
        # one label or target row would broadcast over the batch unnoticed
        rng = np.random.default_rng(26)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)), rng.normal(size=3))
        n_images, n_labels, n_targets = rows
        batch = TrainingBatch(rng.uniform(-1, 1, size=(n_images, 6)),
                              np.zeros(n_labels, dtype=np.int64),
                              np.zeros((n_targets, 9)))
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            loss(net, dec, head, batch, 0.5)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_out_views_filled_like_the_dict(self, order):
        # the views sit in one buffer with a NaN guard cell before, between
        # and after them; backward must fill every view, bit for bit as its
        # dict, and write nothing else
        rng = np.random.default_rng(24)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)), rng.normal(size=3))
        batch = small_batch(rng)
        parts = (net, dec, head)
        if order == "F":
            parts = fortran_ordered(*parts)
            assert parts[1].weight_id.flags.c_contiguous
        want, want_report = backward(*parts, batch, 0.5)
        table = [item for part in parts for item in part.params.items()]
        buffer = np.full(sum(a.size + 1 for _, a in table) + 1, np.nan)
        out, guards = {}, [0]
        for key, array in table:
            lo = guards[-1] + 1
            out[key] = buffer[lo:lo + array.size].reshape(array.shape)
            guards.append(lo + array.size)
        views = dict(out)
        inputs = [a.copy() for a in network_arrays(*parts)]
        got, report = backward(*parts, batch, 0.5, out)
        assert got is out and all(got[key] is views[key] for key in views)
        assert report == want_report and set(got) == set(want)
        for key, value in want.items():
            assert same_bits(got[key], value), key
        assert np.all(np.isnan(buffer[guards]))
        assert all(same_bits(a, b) for a, b in zip(network_arrays(*parts), inputs))


# The joint loss decodes by the row blocks of `evaluation._blocks` (README,
# Determinism): at the default widths a block of two or more rows keeps the
# bits of the whole product, and a block is never one row alone.
def default_width_parts(seed: int) -> tuple:
    """(encoder, decoder, head) at the default config's widths, biases non-zero."""
    config, rng = RunConfig(), np.random.default_rng(seed)
    q_id, q_res, out_dim = config.k_id, config.k_exp, 3 * config.n_vertices
    net = init_encoder(config.image_resolution ** 2, q_id, q_res, seed=seed)
    dec = decoder_of(rng.normal(0.0, 0.05, size=(out_dim, q_id)), rng.normal(0.0, 0.01, out_dim),
                     rng.normal(0.0, 0.05, size=(out_dim, q_res)), rng.normal(0.0, 0.01, out_dim))
    n_classes = config.n_subjects - round(config.n_subjects / 4)
    return net, dec, head_of(rng.normal(0.0, 1.0, size=(n_classes, q_id)),
                             rng.normal(0.0, 0.1, n_classes))


def default_width_batch(rng: np.random.Generator, rows: int, parts: tuple) -> TrainingBatch:
    net, dec, head = parts
    return TrainingBatch(rng.uniform(0.0, 1.0, size=(rows, net.input_dim)),
                         rng.integers(0, head.n_classes, size=rows),
                         rng.normal(0.0, 0.05, size=(rows, dec.out_dim)))


class TestBlockedJointLoss:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 80), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 0.5, 1.0, 1.7]))
    @example(1, 0, 0.5).via("one row")
    @example(2, 1, 0.5).via("the least block")
    @example(32, 2, 1.0).via("one whole block")
    @example(33, 3, 1.0).via("two blocks of 16 and 17")
    @example(65, 4, 0.5).via("three blocks of 21, 22 and 22")
    @example(80, 5, 1.0).via("three blocks of 26, 27 and 27")
    def test_matches_whole_product_oracle(self, rows, seed, lambda_r):
        parts = default_width_parts(seed % 1000)
        batch = default_width_batch(np.random.default_rng(seed), rows, parts)
        want_grads, want = whole_joint_backward(*parts, batch, lambda_r)
        grads, report = backward(*parts, batch, lambda_r)
        assert repr(report) == repr(want)
        assert repr(batch_loss(*parts, batch, lambda_r)) == repr(want)
        assert set(grads) == set(want_grads)
        for key, value in want_grads.items():
            assert np.array_equal(grads[key], value), key

    def test_peak_grows_by_less_than_one_target_array(self):
        # the whole split's loss holds one block of decoded rows: from n rows to
        # 2n its peak grows by the encoder forward's rows, not by (n, 3n) arrays
        parts, n, peaks = default_width_parts(6), 120, []
        rng = np.random.default_rng(7)
        for rows in (n, 2 * n):
            batch = default_width_batch(rng, rows, parts)
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                batch_loss(*parts, batch, 0.5)
                peaks.append(tracemalloc.get_traced_memory()[1] - entry)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < n * parts[1].out_dim * 8


class TestOptimizerStep:
    """The flat in-place Adam update (`_FlatParams.step`)."""

    def test_zero_gradient_leaves_params(self):
        flat = network._FlatParams([("w", np.array([1.0, -2.0, 3.0]))])
        flat_step(flat, {"w": np.zeros(3)}, TrainConfig())
        assert np.array_equal(flat_values(flat)["w"], [1.0, -2.0, 3.0])

    def test_first_step_closed_form(self):
        config = TrainConfig(learning_rate=0.01)
        g = np.array([0.3, -0.7, 1e-12])
        w = np.array([1.0, 2.0, 3.0])
        flat = network._FlatParams([("w", w)])
        flat_step(flat, {"w": g}, config)
        expected = w - config.learning_rate * g / (np.abs(g) + config.epsilon)
        assert np.max(np.abs(flat_values(flat)["w"] - expected)) < 1e-15
        assert np.array_equal(flat.m, (1.0 - config.beta1) * g)
        assert np.array_equal(flat.v, (1.0 - config.beta2) * g * g)

    def test_multi_step_matches_reference_loop(self):
        config = TrainConfig(learning_rate=0.005)
        rng = np.random.default_rng(17)
        params = {"a": rng.normal(size=4), "b": rng.normal(size=(2, 3))}
        flat = network._FlatParams(list(params.items()))
        reference = {k: v.copy() for k, v in params.items()}
        m = {k: np.zeros_like(v) for k, v in params.items()}
        v = {k: np.zeros_like(val) for k, val in params.items()}
        for t in range(1, 4):
            grads = {k: rng.normal(size=val.shape) for k, val in params.items()}
            flat_step(flat, grads, config)
            for k in reference:
                m[k] = config.beta1 * m[k] + (1 - config.beta1) * grads[k]
                v[k] = config.beta2 * v[k] + (1 - config.beta2) * grads[k] ** 2
                m_hat = m[k] / (1 - config.beta1 ** t)
                v_hat = v[k] / (1 - config.beta2 ** t)
                reference[k] -= config.learning_rate * m_hat / (np.sqrt(v_hat)
                                                                + config.epsilon)
        for k in reference:
            assert np.max(np.abs(flat_values(flat)[k] - reference[k])) < 1e-15

    def test_input_state_not_mutated(self):
        # the buffer copies its inputs, and a step writes neither the
        # arrays it was built from nor the gradients
        w, g = np.ones(2), np.ones(2)
        flat = network._FlatParams([("w", w)])
        flat_step(flat, {"w": g}, TrainConfig())
        assert np.array_equal(w, np.ones(2)) and np.array_equal(g, np.ones(2))
        assert np.array_equal(flat.grads["w"], g)
        assert not np.shares_memory(flat.data, w)

    def test_step_count_validated(self):
        # bias correction counts steps from 1, as the oracle requires
        with pytest.raises(InvalidArgumentError):
            optimizer_step({}, {}, AdamState(), TrainConfig(), 0)
        flat = network._FlatParams([("w", np.array([0.5, -1.5]))])
        assert flat.t == 0
        g = {"w": np.array([0.2, 0.4])}
        flat_step(flat, g, TrainConfig())
        assert flat.t == 1
        want, _ = optimizer_step({"w": np.array([0.5, -1.5])}, g, AdamState(),
                                 TrainConfig(), 1)
        assert same_bits(flat_values(flat)["w"], want["w"])

    def test_blocks_span_array_boundaries(self):
        # arrays larger than a block and blocks straddling two arrays
        rng = np.random.default_rng(23)
        params = {"enc.0.weight": rng.normal(size=(300, 150)),
                  "enc.0.bias": rng.normal(size=300),
                  "head.weight": rng.normal(size=(7, 9))}
        config = TrainConfig(learning_rate=0.01)
        flat = network._FlatParams(list(params.items()))
        assert flat.data.size > 1.3 * flat.block
        state = AdamState()
        for t in range(1, 4):
            grads = {k: rng.normal(size=a.shape) for k, a in params.items()}
            flat_step(flat, grads, config, decay=PHASE1_WEIGHT_DECAY)
            params, state = optimizer_step(params, grads, state, config, t)
            params = decay_oracle(params, config)
        for key, value in params.items():
            assert same_bits(flat_values(flat)[key], value)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_dict_oracle(self, data):
        elements = st.one_of(st.sampled_from([0.0, -0.0]),
                             st.floats(-100.0, 100.0))
        names = data.draw(st.lists(st.sampled_from(
            ["enc.0.weight", "enc.0.bias", "dec.weight_id", "head.weight"]),
            min_size=1, max_size=4, unique=True))
        shapes = {k: data.draw(array_shapes(min_dims=1, max_dims=2, min_side=0,
                                            max_side=5)) for k in names}
        params = {k: data.draw(arrays(np.float64, shapes[k], elements=elements))
                  for k in names}
        config = TrainConfig(
            learning_rate=data.draw(st.floats(1e-4, 1.0)),
            beta1=data.draw(st.floats(0.0, 0.99)),
            beta2=data.draw(st.floats(0.0, 0.999)),
            epsilon=data.draw(st.sampled_from([1e-8, 1e-3])))
        decay = data.draw(st.sampled_from([0.0, PHASE1_WEIGHT_DECAY]))
        flat = network._FlatParams(list(params.items()))
        flat.block = data.draw(st.integers(1, 8))
        state = AdamState()
        for t in range(1, data.draw(st.integers(1, 6)) + 1):
            grads = {k: data.draw(arrays(np.float64, shapes[k], elements=elements))
                     for k in names}
            flat_step(flat, grads, config, decay=decay)
            params, state = optimizer_step(params, grads, state, config, t)
            if decay:
                params = decay_oracle(params, config)
        for key in names:
            assert same_bits(flat_values(flat)[key], params[key])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_update_within_1e12_of_textbook(self, data):
        # from the same moments, every step of the efficient form moves each
        # parameter by the textbook amount to 1e-12 relative (the floor covers
        # updates that round into the subnormal range)
        elements = st.one_of(st.sampled_from([0.0, -0.0]),
                             st.floats(-100.0, 100.0))
        shape = data.draw(array_shapes(min_dims=1, max_dims=2, max_side=5))
        config = TrainConfig(
            learning_rate=data.draw(st.floats(1e-4, 1.0)),
            beta1=data.draw(st.floats(0.0, 0.99)),
            beta2=data.draw(st.floats(0.0, 0.999)),
            epsilon=data.draw(st.sampled_from([1e-8, 1e-3])))
        params, state = {"w": np.zeros(shape)}, AdamState()
        for t in range(1, data.draw(st.integers(1, 6)) + 1):
            grads = {"w": data.draw(arrays(np.float64, shape, elements=elements))}
            params, state = optimizer_step(params, grads, state, config, t)
            m, v = state.m["w"], state.v["w"]
            want = adam_update(m, v, config, t, textbook=True)
            got = adam_update(m, v, config, t)
            assert np.all(np.abs(got - want)
                          <= 1e-12 * np.abs(want) + np.finfo(np.float64).tiny)


class TestFiniteDiffCheck:
    def test_linear_stack_tightens_audit(self):
        # with no activation curvature the residual error is difference-quotient
        # rounding noise, three orders below the tanh tolerance
        rng = np.random.default_rng(18)
        net = small_net(rng, activation="linear")
        dec = small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)) * 0.3, np.zeros(3))
        batch = small_batch(rng)
        assert finite_diff_check(net, dec, head, batch, step=1e-4,
                                 n_coords=120) < 1e-8

    def test_tanh_stack_within_tolerance(self):
        rng = np.random.default_rng(19)
        net = init_encoder(16, 3, 2, hidden=(12,), seed=1)
        dec = init_decoder(10, 3, 2, seed=2)
        head = init_head(4, 3, seed=3)
        batch = TrainingBatch(rng.uniform(-1, 1, size=(5, 16)),
                              rng.integers(0, 4, size=5),
                              rng.normal(0.0, 0.3, size=(5, 10)))
        assert finite_diff_check(net, dec, head, batch, n_coords=150) < 1e-5

    def test_deterministic(self):
        rng = np.random.default_rng(20)
        net, dec = small_net(rng), small_decoder(rng)
        head = head_of(rng.normal(size=(3, 2)), np.zeros(3))
        batch = small_batch(rng)
        assert (finite_diff_check(net, dec, head, batch)
                == finite_diff_check(net, dec, head, batch))


# ---------------------------------------------------------------------------
# classifier head warm start


class TestHeadFromClassMeans:
    def test_closed_form_parameters(self):
        codes = np.array([[1.0, 0.0], [3.0, 0.0], [0.0, 2.0], [0.0, 4.0]])
        labels = np.array([0, 0, 1, 1])
        head = head_from_class_means(codes, labels, 2, scale=10.0)
        means = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert np.array_equal(head.weight, 10.0 * means)
        assert np.array_equal(head.bias, -5.0 * np.sum(means * means, axis=1))

    def test_missing_class_rejected(self):
        with pytest.raises(InvalidArgumentError):
            head_from_class_means(np.zeros((3, 2)), np.array([0, 0, 2]), 3)

    def test_separated_clusters_classified(self):
        rng = np.random.default_rng(21)
        centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
        labels = np.repeat(np.arange(3), 30)
        codes = centers[labels] + rng.normal(0.0, 0.2, size=(90, 2))
        head = head_from_class_means(codes, labels, 3)
        assert argmax_accuracy(head, codes, labels) == 1.0


# ---------------------------------------------------------------------------
# dataset plumbing


class TestDatasetPlumbing:
    def test_coefficient_targets_scale_and_clip(self, default_dataset):
        dataset, model = default_dataset, default_dataset.model
        targets = coefficient_targets(model, dataset.alpha_id[:20],
                                      dataset.alpha_exp[:20])
        # the per-sample stack it replaced, bit for bit, then clipped
        want = np.array([np.concatenate([
            row_coeffs(dataset, i).alpha_id / (3.0 * model.sigma_id),
            row_coeffs(dataset, i).alpha_exp / (3.0 * model.sigma_exp)])
            for i in range(20)])
        assert np.array_equal(targets, np.clip(want, -0.99, 0.99))
        # beyond three sigma the clip binds
        beyond = coefficient_targets(model, 4.0 * model.sigma_id[None],
                                     -4.0 * model.sigma_exp[None])
        assert beyond.tolist() == [[0.99] * model.k_id + [-0.99] * model.k_exp]

    def test_training_batch_rejects_no_rows(self, default_dataset):
        with pytest.raises(InvalidArgumentError, match=r"^images must be \(B, D\)$"):
            training_batch(default_dataset, default_dataset.train_indices[:0])

    def test_training_batch_rejects_overflowing_targets(self, default_dataset):
        # finite coefficients, which the dataset accepts, whose two GEMVs each
        # reach ~1.7e308 at one coordinate, so their sum overflows
        model, row = default_dataset.model, 17
        v = int(np.argmax(np.abs(model.basis_id).sum(axis=1)))
        alpha_id, alpha_exp = default_dataset.alpha_id.copy(), default_dataset.alpha_exp.copy()
        alpha_id[row] = 1.7e308 * np.sign(model.basis_id[v])
        alpha_exp[row] = 1.7e308 * np.sign(model.basis_exp[v])
        dataset = dataclasses.replace(default_dataset, alpha_id=alpha_id,
                                      alpha_exp=alpha_exp)
        training_batch(dataset, [3, 16])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="^targets must be finite$"):
                training_batch(dataset, [3, row])

    def test_training_batch_rows(self, default_dataset):
        rows = [3, 17, 151]
        batch = training_batch(default_dataset, rows)
        mean = default_dataset.model.mean
        for out_row, idx in enumerate(rows):
            shape = compose_shape(default_dataset.model,
                                  row_coeffs(default_dataset, idx))
            assert np.array_equal(batch.images[out_row],
                                  default_dataset.depth[idx].ravel())
            assert batch.labels[out_row] == default_dataset.labels[idx]
            assert np.array_equal(batch.target_delta[out_row],
                                  shape.coords - mean)


# ---------------------------------------------------------------------------
# training phases


@pytest.fixture(scope="module")
def quick_phase1(default_dataset):
    """Short regression run with a slim hidden layer, shared by phase tests."""
    net = init_encoder(1024, 20, 8, hidden=(64,), seed=0)
    encoder, history = train_phase1(net, default_dataset,
                                    TrainConfig(epochs=10, seed=0))
    return net, encoder, history


class TestTrainPhase1:
    def test_loss_drops_substantially(self, quick_phase1):
        _, _, history = quick_phase1
        assert history[-1][0] < 0.5 * history[0][0]
        assert len(history) == 10
        assert all(np.isfinite(val) for _, val in history)

    def test_deterministic(self, default_dataset):
        net = init_encoder(1024, 20, 8, hidden=(32,), seed=4)
        config = TrainConfig(epochs=2, seed=11)
        enc_a, hist_a = train_phase1(net, default_dataset, config)
        enc_b, hist_b = train_phase1(net, default_dataset, config)
        assert hist_a == hist_b
        for (weight_a, bias_a, _), (weight_b, bias_b, _) in zip(enc_a.layers,
                                                                enc_b.layers):
            assert np.array_equal(weight_a, weight_b)
            assert np.array_equal(bias_a, bias_b)

    def test_single_subject_memorization(self, tiny_single_subject):
        net = init_encoder(256, 6, 4, hidden=(32,), seed=0)
        config = TrainConfig(epochs=400, batch_size=3, seed=0)
        _, history = train_phase1(net, tiny_single_subject, config)
        assert history[-1][0] < 1e-2

    def test_head_width_mismatch_rejected(self, default_dataset):
        net = init_encoder(1024, 5, 8, hidden=(16,), seed=0)
        with pytest.raises(InvalidArgumentError):
            train_phase1(net, default_dataset, TrainConfig(epochs=1))


@pytest.fixture(scope="module")
def tiny_single_subject(small_model) -> Dataset:
    """Two subjects of three images: the training split is the first
    subject's three images, and there are no validation rows (an overfit
    sanity target)."""
    from morphfit.synthetic import build_dataset

    spec = DatasetSpec(n_subjects=2, images_per_subject=3, image_resolution=16,
                       seed=42)
    return build_dataset(small_model, spec)


class TestTrainPhase2:
    def test_recovers_exact_linear_decoder(self, default_dataset):
        model = default_dataset.model
        dec = train_phase2(init_decoder(model.mean.size, 20, 8, seed=1),
                           default_dataset, seed=3)
        expected_id = model.basis_id @ np.diag(3.0 * model.sigma_id)
        expected_res = model.basis_exp @ np.diag(3.0 * model.sigma_exp)
        assert np.max(np.abs(dec.weight_id - expected_id)) < 1e-8
        assert np.max(np.abs(dec.weight_res - expected_res)) < 1e-8
        assert np.max(np.abs(dec.bias_id)) < 1e-9
        assert np.max(np.abs(dec.bias_res)) < 1e-9

    def test_heldout_codes_decode_exactly(self, default_dataset):
        model = default_dataset.model
        dec = train_phase2(init_decoder(model.mean.size, 20, 8, seed=1),
                           default_dataset, seed=3)
        rng = np.random.default_rng(123)
        alphas = rng.normal(size=(10, model.k_id)) * model.sigma_id
        codes = alphas / (3.0 * model.sigma_id)
        predicted = codes @ dec.weight_id.T + dec.bias_id
        truth = alphas @ model.basis_id.T
        assert float(np.mean((predicted - truth) ** 2)) < 1e-10

    def test_underdetermined_is_rejected(self, default_dataset):
        model = default_dataset.model
        dec = init_decoder(model.mean.size, 20, 8, seed=1)
        with pytest.raises(UnderdeterminedError,
                           match="^5 pairs cannot determine a width-20 affine decoder$"):
            train_phase2(dec, default_dataset, n_pairs=5)
        # the width-20 identity decoder needs 21 pairs
        with pytest.raises(UnderdeterminedError, match="^20 pairs"):
            train_phase2(dec, default_dataset, n_pairs=20)
        fitted = train_phase2(dec, default_dataset, n_pairs=21)
        assert np.all(np.isfinite(fitted.weight_id))

    @pytest.mark.parametrize("draws, rank", [
        (lambda size: np.ones(size), 1),
        (lambda size: np.eye(*size) * np.r_[np.ones(size[1] - 1), 0.0], 20),
        (lambda size: np.eye(*size) * np.r_[np.ones(size[1] - 1), 1e-20], 20),
    ], ids=["every-row-repeats", "a-zero-column", "a-column-at-1e-20"])
    def test_rank_deficient_design_is_rejected(self, default_dataset, monkeypatch,
                                               draws, rank):
        # 96 pairs, but codes that span fewer than the identity code's 20
        # dimensions plus the bias: lstsq's rank (matrix_rank's cutoff) says so
        class Draws:
            def normal(self, loc, scale, size):
                return draws(size)
        monkeypatch.setattr(network.np.random, "default_rng", lambda seed: Draws())
        model = default_dataset.model
        with pytest.raises(UnderdeterminedError) as info:
            train_phase2(init_decoder(model.mean.size, 20, 8, seed=1), default_dataset)
        assert str(info.value) == (f"design rank {rank} < 21; the sampled codes do "
                                   "not span the code space")

    def test_deterministic(self, default_dataset):
        model = default_dataset.model
        dec = init_decoder(model.mean.size, 20, 8, seed=1)
        a = train_phase2(dec, default_dataset, seed=3)
        b = train_phase2(dec, default_dataset, seed=3)
        assert np.array_equal(a.weight_id, b.weight_id)
        assert np.array_equal(a.weight_res, b.weight_res)

    def test_width_mismatch_rejected(self, default_dataset):
        with pytest.raises(InvalidArgumentError):
            train_phase2(init_decoder(1800, 3, 8, seed=0), default_dataset)


class TestTrainPhase3:
    def test_default_schedule_constant(self):
        assert DEFAULT_PHASE3_STAGES == ((0.5, 10), (1.0, 20))

    def test_emitted_lambda_schedule(self, quick_phase1, default_dataset):
        _, encoder, _ = quick_phase1
        dec = train_phase2(init_decoder(1800, 20, 8, seed=1), default_dataset,
                           seed=3)
        images = default_dataset.images(default_dataset.train_indices)
        labels = default_dataset.labels[default_dataset.train_indices]
        codes_id, _ = encode_images(encoder, images)
        head = head_from_class_means(codes_id, labels, 15)
        before = argmax_accuracy(head, codes_id, labels)

        _, _, head3, trace = train_phase3(
            encoder, dec, head, default_dataset,
            TrainConfig(learning_rate=2e-4, seed=0),
            stages=((0.5, 2), (1.0, 3)))
        assert [report.lambda_r for report in trace] == [0.5, 0.5, 1.0, 1.0, 1.0]
        assert trace[-1].accuracy >= before - 1e-12
        for report in trace:
            assert abs(report.total - (report.lambda_r * report.recon
                                       + report.ident)) <= 1e-10

    def test_deterministic(self, quick_phase1, default_dataset):
        _, encoder, _ = quick_phase1
        dec = train_phase2(init_decoder(1800, 20, 8, seed=1), default_dataset,
                           seed=3)
        head = init_head(15, 20, seed=5)
        config = TrainConfig(learning_rate=2e-4, seed=0)
        run_a = train_phase3(encoder, dec, head, default_dataset, config,
                             stages=((0.5, 2),))
        run_b = train_phase3(encoder, dec, head, default_dataset, config,
                             stages=((0.5, 2),))
        assert np.array_equal(run_a[2].weight, run_b[2].weight)
        assert np.array_equal(run_a[1].weight_id, run_b[1].weight_id)
        assert np.array_equal(run_a[0].layers[0][0], run_b[0].layers[0][0])

    def test_numerical_failure_carries_last_good(self, quick_phase1,
                                                 default_dataset):
        _, encoder, _ = quick_phase1
        dec = train_phase2(init_decoder(1800, 20, 8, seed=1), default_dataset,
                           seed=3)
        head = init_head(15, 20, seed=5)
        config = TrainConfig(learning_rate=1e200, seed=0)
        with np.errstate(over="ignore"), pytest.raises(NumericalFailureError) as exc_info:
            train_phase3(encoder, dec, head, default_dataset, config,
                         stages=((0.5, 1),))
        last_good = exc_info.value.last_good
        assert last_good[0] is encoder  # no epoch finished; inputs stand
        assert last_good[3] == []

    def test_stage_validation(self, quick_phase1, default_dataset):
        _, encoder, _ = quick_phase1
        dec = train_phase2(init_decoder(1800, 20, 8, seed=1), default_dataset,
                           seed=3)
        head = init_head(15, 20, seed=5)
        with pytest.raises(InvalidArgumentError):
            train_phase3(encoder, dec, head, default_dataset, TrainConfig(),
                         stages=((-0.5, 2),))


@pytest.fixture(scope="module")
def phase3_inputs(quick_phase1, default_dataset):
    """Phase I encoder, phase II decoder and a class-mean head: the joint
    phase's usual inputs."""
    _, encoder, _ = quick_phase1
    dec = train_phase2(init_decoder(1800, 20, 8, seed=1), default_dataset, seed=3)
    images = default_dataset.images(default_dataset.train_indices)
    labels = default_dataset.labels[default_dataset.train_indices]
    head = head_from_class_means(encode_images(encoder, images)[0], labels, 15)
    return encoder, dec, head


SHORT_STAGES = ((0.5, 1), (1.0, 1))


class TestTrainingLoopOracle:
    """The flat-buffer trainers against the per-step re-assembled dict loops.

    A network built from Fortran-ordered arrays holds them in its C-ordered
    vector, so training it must give the bits of the C-ordered run.
    """

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_phase1_bitwise_equal(self, default_dataset, order):
        net = init_encoder(1024, 20, 8, hidden=(32,), seed=4)
        given = net
        if order == "F":
            (given,) = fortran_ordered(net)
            assert given.layers[0][0].flags.c_contiguous
        config = TrainConfig(epochs=2, seed=11)
        encoder, history = train_phase1(given, default_dataset, config)
        want_encoder, want_history = phase1_oracle(net, default_dataset, config)
        assert history == want_history
        for got, want in zip(network_arrays(encoder), network_arrays(want_encoder)):
            assert same_bits(got, want)

    @pytest.mark.parametrize("contiguous", [False, True])
    def test_phase3_bitwise_equal(self, phase3_inputs, default_dataset,
                                  contiguous):
        encoder, dec, head = phase3_inputs
        # lstsq gives phase II's weights Fortran-ordered; DecoderNet copies
        # them to C order
        assert dec.weight_id.flags.c_contiguous
        given = dec
        if not contiguous:
            (given,) = fortran_ordered(dec)
        config = TrainConfig(learning_rate=2e-4, seed=0)
        got = train_phase3(encoder, given, head, default_dataset, config,
                           stages=SHORT_STAGES)
        want = phase3_oracle(encoder, dec, head, default_dataset, config,
                             SHORT_STAGES)
        assert got[3] == want[3]
        for a, b in zip(network_arrays(*got[:3]), network_arrays(*want[:3])):
            assert same_bits(a, b)


class TestTrainedNetworksOwnTheirMemory:
    """Each returned network is one read-only vector that no trainer, other
    run or input shares, and that later training leaves alone."""

    @pytest.fixture
    def buffers(self, monkeypatch):
        """The parameter vector of every trainer made while the test runs."""
        made, real_init = [], network._FlatParams.__init__

        def recording_init(self, table):
            real_init(self, table)
            made.append(self.data)

        monkeypatch.setattr(network._FlatParams, "__init__", recording_init)
        return made

    def check_owned(self, nets: list, others: list, buffers: list) -> None:
        for i, net in enumerate(nets):
            assert not net.vector.flags.writeable
            assert all(np.shares_memory(a, net.vector) and not a.flags.writeable
                       for a in net.params.values())
            for other in nets[i + 1:] + others:
                assert not np.shares_memory(net.vector, other.vector)
            assert not any(np.shares_memory(net.vector, b) for b in buffers)

    def test_phase1(self, default_dataset, buffers):
        net = init_encoder(1024, 20, 8, hidden=(16,), seed=2)
        config = TrainConfig(epochs=1, seed=3)
        encoder, _ = train_phase1(net, default_dataset, config)
        saved = encoder.vector.copy()
        further, _ = train_phase1(encoder, default_dataset, config)
        second, _ = train_phase1(net, default_dataset, config)
        assert len(buffers) == 3
        self.check_owned([encoder], [second, further, net], buffers)
        assert same_bits(encoder.vector, saved)

    def test_phase3(self, phase3_inputs, default_dataset, buffers):
        config = TrainConfig(learning_rate=2e-4, seed=0)
        run = train_phase3(*phase3_inputs, default_dataset, config,
                           stages=((0.5, 1),))
        saved = [part.vector.copy() for part in run[:3]]
        further = train_phase3(*run[:3], default_dataset, config,
                               stages=((0.5, 1),))
        second = train_phase3(*phase3_inputs, default_dataset, config,
                              stages=((0.5, 1),))
        assert len(buffers) == 3
        self.check_owned(list(run[:3]), [*second[:3], *further[:3], *phase3_inputs],
                         buffers)
        assert all(same_bits(part.vector, v) for part, v in zip(run[:3], saved))

    def test_last_good_after_a_failure(self, phase3_inputs, default_dataset,
                                       monkeypatch, buffers):
        # fail on the second step of the second epoch: last_good must hold
        # the first epoch's state, untouched by the steps taken since
        config = TrainConfig(learning_rate=2e-4, seed=0)
        one_epoch = train_phase3(*phase3_inputs, default_dataset, config,
                                 stages=((0.5, 1),))
        steps_per_epoch = -(-len(default_dataset.train_indices) // config.batch_size)
        calls = []
        real_backward = network.backward

        def failing_backward(*args):
            calls.append(None)
            if len(calls) == steps_per_epoch + 2:
                raise NumericalFailureError("injected")
            return real_backward(*args)

        monkeypatch.setattr(network, "backward", failing_backward)
        with pytest.raises(NumericalFailureError) as exc_info:
            train_phase3(*phase3_inputs, default_dataset, config,
                         stages=((0.5, 3),))
        last_good = exc_info.value.last_good
        assert last_good[3] == one_epoch[3]
        self.check_owned(list(last_good[:3]), [*one_epoch[:3], *phase3_inputs],
                         buffers)
        for a, b in zip(network_arrays(*last_good[:3]), network_arrays(*one_epoch[:3])):
            assert same_bits(a, b)


class TestPhase3FailureContext:
    """A non-finite parameter forced in after a chosen step must fail the
    next step with the stage, lambda_r, epoch, step and last losses named."""

    @pytest.mark.parametrize("stages, poisoned_step, where, error", [
        (((0.5, 2),), 0, "stage 0 (lambda_r 0.5), epoch 0, step 1",
         "encoder activations became non-finite"),
        (((0.5, 2),), 1, "stage 0 (lambda_r 0.5), epoch 0, end of epoch",
         "parameters became non-finite"),
        (((0.5, 1), (1.0, 2)), 3, "stage 1 (lambda_r 1.0), epoch 1, end of epoch",
         "parameters became non-finite"),
        (((0.5, 1), (1.0, 2)), 4, "stage 1 (lambda_r 1.0), epoch 2, step 1",
         "encoder activations became non-finite"),
    ])
    def test_error_names_where_and_last_losses(self, phase3_inputs, default_dataset,
                                               monkeypatch, stages, poisoned_step,
                                               where, error):
        config = TrainConfig(learning_rate=2e-4, batch_size=64, seed=0)
        steps_per_epoch = -(-len(default_dataset.train_indices) // config.batch_size)
        assert steps_per_epoch == 2  # the cases above count on it
        done = [lam for lam, n in stages for _ in range(n)][
            :poisoned_step // steps_per_epoch]
        finished = train_phase3(*phase3_inputs, default_dataset, config,
                                stages=tuple((lam, 1) for lam in done)) if done else None
        real_step = network._FlatParams.step
        taken = []

        def poisoning_step(self, *args, **kwargs):
            real_step(self, *args, **kwargs)
            taken.append(None)
            if len(taken) == poisoned_step + 1:
                self.data[0] = np.nan

        monkeypatch.setattr(network._FlatParams, "step", poisoning_step)
        with pytest.raises(NumericalFailureError) as exc_info:
            train_phase3(*phase3_inputs, default_dataset, config, stages=stages)
        message = str(exc_info.value)
        assert message.startswith(f"phase III {where}: {error}; ")
        last_good = exc_info.value.last_good
        if finished is None:
            assert message.endswith("; no epoch finished")
            assert last_good[0] is phase3_inputs[0] and last_good[3] == []
        else:
            last = finished[3][-1]
            assert message.endswith(f"; last finished epoch: total {last.total!r}, "
                                    f"recon {last.recon!r}, ident {last.ident!r}")
            assert last_good[3] == finished[3]
            for a, b in zip(network_arrays(*last_good[:3]),
                            network_arrays(*finished[:3])):
                assert same_bits(a, b)


class TestSingleSnapshotVector:
    """The epoch's loss runs before the copy into the trainer's one snapshot
    vector, so a loss that fails leaves the epoch before intact."""

    def test_failed_epoch_loss_keeps_the_epoch_before(self, phase3_inputs,
                                                      default_dataset, monkeypatch):
        config = TrainConfig(learning_rate=2e-4, batch_size=64, seed=0)
        finished = train_phase3(*phase3_inputs, default_dataset, config,
                                stages=((0.5, 1),))
        real_loss, calls = network.batch_loss, []

        def failing_loss(*args):
            calls.append(None)
            if len(calls) == 2:
                raise NumericalFailureError("joint loss became non-finite")
            return real_loss(*args)

        monkeypatch.setattr(network, "batch_loss", failing_loss)
        with pytest.raises(NumericalFailureError) as exc_info:
            train_phase3(*phase3_inputs, default_dataset, config, stages=((0.5, 3),))
        assert "epoch 1, end of epoch: joint loss became non-finite" in str(exc_info.value)
        last_good = exc_info.value.last_good
        assert last_good[3] == finished[3]
        for a, b in zip(network_arrays(*last_good[:3]), network_arrays(*finished[:3])):
            assert same_bits(a, b)


class TestSecondMomentOverflow:
    """An Adam second moment that overflowed while the parameters stayed
    finite fails the epoch's end, silently: Adam steps raise no warning."""

    def test_step_overflows_without_a_warning(self):
        flat = network._FlatParams([("w", np.zeros(3))])
        flat.grad[:] = (1e200, -1e300, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            flat.step(TrainConfig())
            flat.step(TrainConfig())
        assert np.isinf(flat.v[:2]).all() and np.isfinite(flat.data).all()

    def poison(self, monkeypatch, after_step: int) -> None:
        real_step, taken = network._FlatParams.step, []

        def poisoning_step(self, *args, **kwargs):
            real_step(self, *args, **kwargs)
            taken.append(None)
            if len(taken) == after_step + 1:
                self.v[-1] = np.inf
        monkeypatch.setattr(network._FlatParams, "step", poisoning_step)

    def test_phase3_keeps_the_epoch_before(self, phase3_inputs, default_dataset,
                                           monkeypatch):
        config = TrainConfig(learning_rate=2e-4, batch_size=64, seed=0)
        finished = train_phase3(*phase3_inputs, default_dataset, config,
                                stages=((0.5, 1),))
        self.poison(monkeypatch, 2)
        with pytest.raises(NumericalFailureError) as exc_info:
            train_phase3(*phase3_inputs, default_dataset, config, stages=((0.5, 3),))
        last = finished[3][-1]
        assert str(exc_info.value) == (
            "phase III stage 0 (lambda_r 0.5), epoch 1, end of epoch: Adam's second "
            f"moment became non-finite; last finished epoch: total {last.total!r}, "
            f"recon {last.recon!r}, ident {last.ident!r}")
        last_good = exc_info.value.last_good
        assert last_good[3] == finished[3]
        for a, b in zip(network_arrays(*last_good[:3]), network_arrays(*finished[:3])):
            assert same_bits(a, b)

    def test_phase1_names_the_epoch(self, default_dataset, monkeypatch):
        net = init_encoder(1024, 20, 8, hidden=(16,), seed=2)
        self.poison(monkeypatch, 0)
        with pytest.raises(NumericalFailureError, match="^phase I epoch 0, end of epoch: "
                           "Adam's second moment became non-finite$"):
            train_phase1(net, default_dataset, TrainConfig(batch_size=64, epochs=2, seed=3))


class TestPhase1FailureContext:
    """A non-finite parameter forced in after a chosen step fails the next
    step or the epoch's end with the epoch and the step named."""

    @pytest.mark.parametrize("batch_size, poisoned_step, where, error", [
        (64, 0, "epoch 0, step 1", "encoder activations became non-finite"),
        (64, 1, "epoch 0, end of epoch", "parameters became non-finite"),
        (64, 3, "epoch 1, end of epoch", "parameters became non-finite"),
        (256, 0, "epoch 0, end of epoch", "parameters became non-finite"),
    ])
    def test_error_names_epoch_and_step(self, default_dataset, monkeypatch,
                                        batch_size, poisoned_step, where, error):
        assert -(-len(default_dataset.train_indices) // 64) == 2  # the cases count on it
        net = init_encoder(1024, 20, 8, hidden=(16,), seed=2)
        config = TrainConfig(batch_size=batch_size, epochs=2, seed=3)
        real_step = network._FlatParams.step
        taken = []

        def poisoning_step(self, *args, **kwargs):
            real_step(self, *args, **kwargs)
            taken.append(None)
            if len(taken) == poisoned_step + 1:
                self.data[0] = np.nan

        monkeypatch.setattr(network._FlatParams, "step", poisoning_step)
        with pytest.raises(NumericalFailureError,
                           match=f"^phase I {where}: {error}$"):
            train_phase1(net, default_dataset, config)
