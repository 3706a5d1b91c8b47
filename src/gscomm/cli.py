"""Command-line interface.

Subcommands: train-mae, train-ssae, finetune, encode, decode, transmit,
evaluate, sweep. Configuration comes from a flat key=value text file
(``--config``); see README for the recognized keys.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .channel import CODECS, ChannelConfig
from .checkpoint import load_params, save_params
from .classifier import ClassifierModel
from .datasets import load_stl10_binary, read_ppm, synthetic_dataset, write_ppm
from .distill import DistillConfig, MaskingNetwork
from .framing import bits_to_bytes, bytes_to_bits
from .masking import MaskParams, write_pbm
from .pipeline import (
    PipelineModels,
    RefineParams,
    TrainBudget,
    receive,
    report_csv,
    run_end_to_end,
    sweep,
    train_classifier_on,
    train_masker,
    train_ssae_on,
    transmit,
)
from .ssae import SSAE, SSAEConfig
from .vit import ViTConfig


def parse_config(path):
    """Flat key=value text file; '#' starts a comment."""
    cfg = {}
    if path is None:
        return cfg
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _int(cfg, key, default):
    return int(cfg.get(key, default))


def _float(cfg, key, default):
    return float(cfg.get(key, default))


def _vit_config(cfg):
    return ViTConfig(
        patch_size=_int(cfg, "patch_size", 8),
        dim=_int(cfg, "dim", 32),
        blocks=_int(cfg, "blocks", 2),
        heads=_int(cfg, "heads", 4),
        img_h=_int(cfg, "img_h", 32),
        img_w=_int(cfg, "img_w", 32),
    )


def _distill_config(cfg):
    return DistillConfig(
        epsilon=_float(cfg, "epsilon", 0.1),
        proj_dim=_int(cfg, "proj_dim", 16),
        masked_patches=_int(cfg, "masked_patches", 4),
        xi_range=(_float(cfg, "xi_lo", 0.9), _float(cfg, "xi_hi", 1.1)),
    )


def _ssae_config(cfg):
    return SSAEConfig(
        latent_channels=_int(cfg, "latent_channels", 4),
        downs=_int(cfg, "downs", 3),
        bits=_int(cfg, "bits", 8),
        stem_channels=_int(cfg, "stem_channels", 32),
    )


def _refine_params(cfg):
    return RefineParams(
        psi=_float(cfg, "psi", 5e-3),
        eta=_float(cfg, "eta", 0.5),
        palette_size=_int(cfg, "palette_size", 8),
        run_bits=_int(cfg, "run_bits", 4),
    )


def _budget(cfg):
    return TrainBudget(
        distill_steps=_int(cfg, "distill_steps", 150),
        distill_lr=_float(cfg, "distill_lr", 0.05),
        ssae_steps=_int(cfg, "ssae_steps", 400),
        ssae_lr=_float(cfg, "ssae_lr", 0.3),
        finetune_steps=_int(cfg, "finetune_steps", 250),
        finetune_lr=_float(cfg, "finetune_lr", 0.05),
        batch_size=_int(cfg, "batch_size", 8),
    )


def _dataset(cfg, seed):
    source = cfg.get("dataset", "synthetic")
    if source == "synthetic":
        return synthetic_dataset(
            _int(cfg, "num_classes", 4),
            _int(cfg, "images_per_class", 25),
            _int(cfg, "img_h", 32),
            seed,
        )
    if source == "stl10_binary":
        images = load_stl10_binary(cfg["dataset_path"], limit=_int(cfg, "limit", 16))
        from .datasets import SyntheticExample

        return [SyntheticExample(image=im, label=0, fg_mask=np.ones(im.shape[1:])) for im in images]
    raise ValueError(f"unknown dataset source {source!r}")


def _load_masker(cfg, seed):
    vit_cfg = _vit_config(cfg)
    net = MaskingNetwork(
        vit_cfg,
        _distill_config(cfg),
        rng=np.random.default_rng(seed),
        mask_params=MaskParams(rho=_float(cfg, "rho", 2e-3)),
    )
    if "mae_ckpt" in cfg:
        load_params(cfg["mae_ckpt"], net.params)
    return net


def _load_ssae(cfg, seed):
    ssae = SSAE(_ssae_config(cfg), rng=np.random.default_rng(seed))
    if "ssae_ckpt" in cfg:
        ssae.load(cfg["ssae_ckpt"])
    return ssae


def _write_log(path, losses, learning_rate):
    """Per-step training log: one `step,loss,learning_rate` CSV row per step."""
    with open(path, "w") as fh:
        fh.write("step,loss,learning_rate\n")
        for i, loss in enumerate(losses):
            fh.write(f"{i},{loss!r},{learning_rate!r}\n")


def cmd_train_mae(args):
    cfg = parse_config(args.config)
    data = _dataset(cfg, args.seed)
    budget = _budget(cfg)
    student, _, losses = train_masker(
        data, _vit_config(cfg), _distill_config(cfg), budget, args.seed
    )
    save_params(args.out, student.params)
    if args.log:
        _write_log(args.log, losses, budget.distill_lr)
    print(f"wrote {args.out} (final loss {losses[-1]:.4f})")


def cmd_train_ssae(args):
    cfg = parse_config(args.config)
    data = _dataset(cfg, args.seed)
    budget = _budget(cfg)
    images = [ex.image for ex in data]
    if "mae_ckpt" in cfg:
        masker = _load_masker(cfg, args.seed)
        masks3 = [masker.semantic_mask(im).mask3 for im in images]
    else:
        masks3 = [np.broadcast_to(ex.fg_mask, ex.image.shape).copy() for ex in data]
    ssae, losses = train_ssae_on(images, masks3, _ssae_config(cfg), budget, args.seed)
    ssae.save(args.out)
    if args.log:
        _write_log(args.log, losses, budget.ssae_lr)
    print(f"wrote {args.out} (final loss {losses[-1]:.4f})")


def cmd_finetune(args):
    cfg = parse_config(args.config)
    frac = _float(cfg, "labeled_fraction", 0.1)
    if not 0 < frac <= 1:
        raise ValueError("labeled_fraction must lie in (0, 1]")
    data = _dataset(cfg, args.seed)
    budget = _budget(cfg)
    rng = np.random.default_rng(args.seed)
    n_labeled = max(1, int(round(frac * len(data))))
    idx = rng.choice(len(data), size=n_labeled, replace=False)
    pairs = [(data[int(i)].image, data[int(i)].label) for i in idx]
    backbone = None
    if "mae_ckpt" in cfg:
        backbone = _load_masker(cfg, args.seed).params
    model, losses = train_classifier_on(
        pairs, _vit_config(cfg), _int(cfg, "num_classes", 4), budget, args.seed,
        backbone_params=backbone,
    )
    save_params(args.out, model.params)
    if args.log:
        _write_log(args.log, losses, budget.finetune_lr)
    print(f"wrote {args.out} (final loss {losses[-1]:.4f})")


def cmd_encode(args):
    cfg = parse_config(args.config)
    models = PipelineModels(_load_masker(cfg, args.seed), _load_ssae(cfg, args.seed))
    frame, mask = transmit(read_ppm(args.input), models, _refine_params(cfg), args.seed)
    with open(args.out, "wb") as fh:
        fh.write(frame)
    if args.mask_out:
        write_pbm(args.mask_out, mask.mask)
    print(f"wrote {args.out} ({len(frame)} bytes)")


def cmd_decode(args):
    cfg = parse_config(args.config)
    ssae = _load_ssae(cfg, args.seed)
    with open(args.input, "rb") as fh:
        frame = fh.read()
    write_ppm(args.out, receive(frame, ssae))
    print(f"wrote {args.out}")


def cmd_transmit(args):
    with open(args.input, "rb") as fh:
        frame = fh.read()
    if args.snr_db is not None:
        channel = ChannelConfig(mode="awgn_snr_db", snr_db=args.snr_db, seed=args.seed)
    else:
        channel = ChannelConfig(mode="bsc_ber", ber=args.ber, seed=args.seed)
    fec = CODECS[args.fec]
    bits = bytes_to_bits(frame)
    received = fec.decode(channel.apply(fec.encode(bits)))
    with open(args.out, "wb") as fh:
        fh.write(bits_to_bytes(received)[: len(frame)])
    print(f"wrote {args.out}")


def _models(cfg, seed):
    masker = _load_masker(cfg, seed)
    ssae = _load_ssae(cfg, seed)
    clf = None
    if "classifier_ckpt" in cfg:
        clf = ClassifierModel(
            _vit_config(cfg), _int(cfg, "num_classes", 4), rng=np.random.default_rng(seed)
        )
        load_params(cfg["classifier_ckpt"], clf.params)
    return PipelineModels(
        masker=masker, ssae=ssae, classifier=clf, fec=CODECS[cfg.get("fec", "identity")]
    )


def cmd_evaluate(args):
    cfg = parse_config(args.config)
    data = _dataset(cfg, args.seed)
    models = _models(cfg, args.seed)
    refine = _refine_params(cfg)
    channel = ChannelConfig(mode="bsc_ber", ber=_float(cfg, "ber", 0.0), seed=0)
    rows = []
    for i, ex in enumerate(data):
        _, _, row = run_end_to_end(
            ex.image, models, refine, channel, label=ex.label, seed=args.seed + i
        )
        rows.append(row)
    with open(args.out, "w") as fh:
        fh.write(report_csv(rows))
    print(f"wrote {args.out} ({len(rows)} rows)")


def cmd_sweep(args):
    cfg = parse_config(args.config)
    data = _dataset(cfg, args.seed)
    models = _models(cfg, args.seed)
    refine = _refine_params(cfg)
    grid = [float(v) for v in cfg.get("grid", "0,0.001,0.01,0.1").split(",")]
    mode = cfg.get("grid_mode", "bsc_ber")
    examples = [(ex.image, ex.label) for ex in data]
    _, csv = sweep(
        examples, grid, models, refine,
        replicates=_int(cfg, "replicates", 1), base_seed=args.seed, mode=mode,
    )
    with open(args.out, "w") as fh:
        fh.write(csv)
    print(f"wrote {args.out}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gscomm")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)

    p = sub.add_parser("train-mae", help="distill the student masking network")
    common(p)
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_train_mae)

    p = sub.add_parser("train-ssae", help="train the semantic autoencoder")
    common(p)
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_train_ssae)

    p = sub.add_parser("finetune", help="fine-tune the classifier head")
    common(p)
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("encode", help="PPM image -> .gscf frame")
    common(p)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--mask-out", dest="mask_out", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help=".gscf frame -> PPM image")
    common(p)
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("transmit", help="pass a frame through the channel")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ber", type=float, default=0.0)
    p.add_argument("--snr-db", dest="snr_db", type=float, default=None)
    p.add_argument("--fec", choices=sorted(CODECS), default="identity")
    p.set_defaults(func=cmd_transmit)

    p = sub.add_parser("evaluate", help="per-image end-to-end report CSV")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="BER/SNR grid sweep CSV")
    common(p)
    p.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
