"""Command line pipeline: gen-data, fit, train, eval, export-bases, check-grad.

Each subcommand reads one RunConfig assembled from defaults, then an optional
config file, then explicit flag overrides; after its artifacts, it echoes the
effective config into the output directory. Outputs are deterministic for a
fixed config, so rerunning a command reproduces its files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import network as nw
from .config import RunConfig, format_config, load_config, parse_config
from .errors import MorphfitError, require
from .evaluation import (disentangling_report, evaluate_reconstruction,
                         rank_n_identification, reconstruction_truth,
                         verification_pairs, verification_report)
from .fitting import multi_image_fit
from .serialization import (_atomic_write, load_checkpoint, load_dataset,
                            save_checkpoint, save_dataset, write_obj,
                            write_table_csv)
from .synthetic import _compose_rows, build_dataset, generate_model


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="morphfit",
        description="synthetic 3D face shape pipeline: generate, fit, "
                    "train, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override any config key")

    p = sub.add_parser("gen-data", help="generate the synthetic model and "
                                        "rendered dataset")
    common(p)

    p = sub.add_parser("fit", help="fit one subject's landmark sets")
    common(p)
    p.add_argument("--data", required=True, help="dataset container path")
    p.add_argument("--subject", type=int, default=0, help="subject label")

    p = sub.add_parser("train", help="run training phases I, II and III")
    common(p)
    p.add_argument("--data", required=True, help="dataset container path")

    p = sub.add_parser("eval", help="verification, reconstruction and "
                                    "disentangling reports")
    common(p)
    p.add_argument("--data", required=True, help="dataset container path")
    p.add_argument("--checkpoint", required=True, help="phase III checkpoint")
    p.add_argument("--baseline", help="phase II checkpoint for the "
                                      "reconstruction comparison")

    p = sub.add_parser("export-bases", help="write decoder columns as OBJ "
                                            "point clouds")
    common(p)
    p.add_argument("--data", required=True, help="dataset container path")
    p.add_argument("--checkpoint", required=True, help="checkpoint to export")

    p = sub.add_parser("check-grad", help="finite-difference gradient audit")
    common(p)
    return parser


def _effective_config(args) -> RunConfig:
    config = RunConfig()
    if args.config:
        config = load_config(args.config, config)
    override_lines = []
    for item in args.overrides:
        override_lines.append(item if "=" in item else item + " =")
    if args.seed is not None:
        override_lines.append(f"seed = {args.seed}")
    if args.out is not None:
        override_lines.append(f"output_dir = {args.out}")
    if override_lines:
        config = parse_config("\n".join(override_lines), config)
    return config


def _echo_config(config: RunConfig) -> None:
    _atomic_write(os.path.join(config.output_dir, "config.txt"),
                  format_config(config).encode("utf-8"))


def _cmd_gen_data(args) -> int:
    config = _effective_config(args)
    model = generate_model(config.model_spec())
    dataset = build_dataset(model, config.dataset_spec())
    save_dataset(dataset, os.path.join(config.output_dir, "dataset.mfd"))
    _echo_config(config)
    print(f"wrote {dataset.labels.size} samples to "
          f"{os.path.join(config.output_dir, 'dataset.mfd')}")
    return 0


def _cmd_fit(args) -> int:
    config = _effective_config(args)
    dataset = load_dataset(args.data)
    rows = dataset.labels == args.subject
    if not rows.any():
        raise MorphfitError(f"subject {args.subject} not present in dataset")
    result = multi_image_fit(dataset.model, dataset.landmarks[rows],
                             config.fit_config())

    # the identity shape (zero residual) first, then one shape per image
    alpha_exp = np.vstack([np.zeros(dataset.model.k_exp), result.alpha_exp])
    shapes = _compose_rows(dataset.model,
                           np.tile(result.alpha_id, (len(alpha_exp), 1)), alpha_exp)
    names = ["identity.obj", *(f"full_{j:02d}.obj" for j in range(len(shapes) - 1))]
    for name, coords in zip(names, shapes):
        write_obj(coords, os.path.join(config.output_dir, name))
    write_table_csv(("subject", "converged", "iterations_used",
                     "final_objective"),
                    [(args.subject, result.converged, result.iterations_used,
                      result.objective_trace[-1])],
                    os.path.join(config.output_dir, "fit.csv"))
    _echo_config(config)
    print(f"subject {args.subject}: converged={result.converged} "
          f"iterations={result.iterations_used}")
    return 0


def _init_networks(config: RunConfig, dataset) -> tuple:
    """Seeded initial encoder, decoder and head sized for the dataset."""
    require(config.seed >= 0, f"seed must be non-negative, got {config.seed}")
    model = dataset.model
    return (nw.init_encoder(dataset.spec.image_resolution ** 2, model.k_id,
                            model.k_exp, seed=config.seed),
            nw.init_decoder(model.mean.size, model.k_id, model.k_exp,
                            seed=config.seed + 1),
            nw.init_head(dataset.n_train_subjects, model.k_id,
                         seed=config.seed + 2))


def _train_pipeline(config: RunConfig, dataset):
    """Phases I-III with stage seeds derived from the master seed."""
    encoder, decoder, head = _init_networks(config, dataset)
    enc1, history = nw.train_phase1(encoder, dataset, config.train_config("I"))
    del encoder  # no checkpoint holds the initial encoder
    dec2 = nw.train_phase2(decoder, dataset, n_pairs=config.phase2_pairs,
                           seed=config.seed + 3)

    codes, _ = nw.encode_images(enc1, dataset.images(dataset.train_indices))
    warm_head = nw.head_from_class_means(codes,
                                         dataset.labels[dataset.train_indices],
                                         dataset.n_train_subjects,
                                         scale=config.head_scale)
    enc3, dec3, head3, trace = nw.train_phase3(enc1, dec2, warm_head, dataset,
                                               config.train_config("III"))
    return (decoder, head), (enc1, dec2, warm_head), (enc3, dec3, head3), history, trace


def _cmd_train(args) -> int:
    config = _effective_config(args)
    dataset = load_dataset(args.data)
    init, after2, after3, history, trace = _train_pipeline(config, dataset)
    out = config.output_dir
    for phase, nets in enumerate(((after2[0], *init), after2, after3), start=1):
        save_checkpoint(*nets, config, os.path.join(out, f"phase{phase}.ckpt"))
    write_table_csv(("epoch", "train_loss", "val_loss"),
                    [(i, tr, va) for i, (tr, va) in enumerate(history)],
                    os.path.join(out, "phase1_trace.csv"))
    write_table_csv(("epoch", "lambda_r", "total", "recon", "ident",
                     "accuracy"),
                    [(i, r.lambda_r, r.total, r.recon, r.ident, r.accuracy)
                     for i, r in enumerate(trace)],
                    os.path.join(out, "phase3_trace.csv"))
    _echo_config(config)
    print(f"phase I final train loss {history[-1][0]:.6g}; "
          f"phase III final total loss {trace[-1].total:.6g}")
    return 0


def _check_checkpoint_fits(dataset, encoder, decoder) -> None:
    """InvalidArgumentError naming both values unless the checkpoint's
    networks have the widths that the dataset's model and images call for."""
    model, side = dataset.model, dataset.spec.image_resolution
    for what, got, want, why in (
            ("decoder output length", decoder.out_dim, model.mean.size,
             f"3 * {model.n} vertices"),
            ("identity code width", decoder.q_id, model.k_id, "k_id"),
            ("residual code width", decoder.q_res, model.k_exp, "k_exp"),
            ("encoder input length", encoder.input_dim, side ** 2,
             f"{side}x{side} images")):
        require(got == want,
                f"checkpoint {what} is {got}, but the dataset needs {want} ({why})")


def _cmd_eval(args) -> int:
    config = _effective_config(args)
    dataset = load_dataset(args.data)
    encoder, decoder, _head, _cfg = load_checkpoint(args.checkpoint)
    _check_checkpoint_fits(dataset, encoder, decoder)
    model = dataset.model
    out = config.output_dir

    rows = dataset.test_indices
    images = dataset.images(slice(rows[0], rows[-1] + 1))  # one block of rows: a view
    labels = dataset.labels[rows]
    c_id, c_res = nw.encode_images(encoder, images)

    # verification over all held-out pairs; gallery = first image per subject
    pairs = verification_pairs(c_id, labels)
    _, gallery_rows = np.unique(labels, return_index=True)
    probe_rows = np.setdiff1d(np.arange(labels.size), gallery_rows)
    rank1, rank5 = (rank_n_identification(c_id[gallery_rows], labels[gallery_rows],
                                          c_id[probe_rows], labels[probe_rows], n)
                    for n in (1, 5))
    report = verification_report(pairs, n_folds=config.n_folds,
                                 rank1=rank1, rank5=rank5)
    # each report's fields, in order, are its CSV columns
    write_table_csv(report._fields, [report], os.path.join(out, "verification.csv"))

    truth = reconstruction_truth(dataset.ground_truth_shapes(rows), model.landmark_indices,
                                 model.nose_tip_index, config.crop_radius)

    def reconstruction(codes, dec):
        def predict(rows, shapes):
            nw.decode(dec, codes[0][rows], codes[1][rows], out=shapes)
            shapes += model.mean
        return evaluate_reconstruction(predict, truth)

    recon = reconstruction((c_id, c_res), decoder)
    write_table_csv(recon._fields, [recon], os.path.join(out, "reconstruction.csv"))
    if args.baseline:
        enc2, dec2 = load_checkpoint(args.baseline)[:2]
        baseline = reconstruction(nw.encode_images(enc2, images), dec2)
        del enc2, dec2  # the rest of eval needs the phase III encoder only
        write_table_csv(baseline._fields, [baseline],
                        os.path.join(out, "reconstruction_baseline.csv"))

    disentangling = disentangling_report(
        lambda images: nw.encode_images(encoder, images), dataset, (c_id, c_res))
    write_table_csv(disentangling._fields, [disentangling],
                    os.path.join(out, "disentangling.csv"))
    _echo_config(config)
    print(f"auc {report.auc:.4f} eer {report.eer:.4f} "
          f"rmse {recon.rmse_paper:.6g}")
    return 0


def _cmd_export_bases(args) -> int:
    config = _effective_config(args)
    dataset = load_dataset(args.data)
    encoder, decoder, _head, _cfg = load_checkpoint(args.checkpoint)
    _check_checkpoint_fits(dataset, encoder, decoder)
    mean = dataset.model.mean
    out = config.output_dir
    # a unit code step per column, added to the mean, mirrors how the
    # decoder is read as a shape basis
    for name, weight in (("id", decoder.weight_id), ("res", decoder.weight_res)):
        for k in range(weight.shape[1]):
            write_obj(mean + weight[:, k],
                      os.path.join(out, f"basis_{name}_{k:02d}.obj"))
    _echo_config(config)
    print(f"wrote {decoder.q_id + decoder.q_res} basis meshes to {out}")
    return 0


def _cmd_check_grad(args) -> int:
    config = _effective_config(args)
    model = generate_model(config.model_spec())
    dataset = build_dataset(model, config.dataset_spec())
    encoder, decoder, head = _init_networks(config, dataset)
    batch = nw.training_batch(dataset,
                              dataset.train_indices[:config.batch_size])
    error = nw.finite_diff_check(encoder, decoder, head, batch,
                                 lambda_r=config.lambda_r)
    print(f"max relative gradient error: {error:.3e}")
    return 0 if error < 1e-5 else 1


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "fit": _cmd_fit,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "export-bases": _cmd_export_bases,
    "check-grad": _cmd_check_grad,
}


def cli(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code.

    Usage problems exit 2 (argparse convention); any pipeline error, file
    error or refused allocation is reported as a single `error: Kind:
    message` line on stderr with exit 1: a floating-point overflow, invalid
    operation or division by zero (not underflow) as a NumericalFailureError.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command](args)
    except FloatingPointError as exc:
        print(f"error: NumericalFailureError: {args.command}: {exc}", file=sys.stderr)
        return 1
    except (MorphfitError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
