"""Command-line interface.

Subcommands: train-mae, train-ssae, finetune, encode, decode, transmit,
evaluate, sweep. Configuration comes from a flat key=value text file
(``--config``); see README for the recognized keys. A key's default is the
default of the library dataclass field it sets, and an unknown key is an error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .channel import CODECS, ChannelConfig
from .checkpoint import load_params, save_params
from .classifier import ClassifierModel
from .datasets import SyntheticExample, load_stl10_binary, read_ppm, synthetic_dataset, write_ppm
from .distill import DistillConfig, MaskingNetwork
from .framing import bits_to_bytes, bytes_to_bits
from .masking import write_pbm
from .pipeline import (
    PipelineModels,
    RefineParams,
    TrainBudget,
    receive,
    report,
    report_csv,
    sweep,
    train_classifier_on,
    train_masker,
    train_ssae_on,
    transmit,
)
from .ssae import SSAE, SSAEConfig
from .vit import ViTConfig


# the config keys: every field of the dataclasses the CLI reads, then the CLI's own
KEYS = frozenset(
    [f.name for cls in (ViTConfig, DistillConfig, SSAEConfig, TrainBudget, RefineParams)
     for f in fields(cls)]
    + ["dataset", "dataset_path", "limit", "num_classes", "images_per_class", "labeled_fraction",
       "mae_ckpt", "ssae_ckpt", "classifier_ckpt", "grid", "grid_mode", "replicates", "fec", "ber"]
)


def parse_config(path):
    """Flat key=value text file; '#' starts a comment. A key outside KEYS is an error."""
    cfg = {}
    if path is None:
        return cfg
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ValueError(f"{path}:{number}: expected key = value, got {line!r}")
            key = key.strip()
            if key not in KEYS:
                raise ValueError(f"{path}:{number}: unknown config key {key!r}")
            cfg[key] = value.strip()
    return cfg


def _parse(key, text, kind):
    """A config value as a `kind`; one that does not parse raises ValueError naming its key."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"config key {key} = {text!r} is not a valid {kind.__name__}") from None


def _get(cfg, key, default):
    """Key `key` parsed with the type of `default`, which a missing key keeps."""
    return _parse(key, cfg[key], type(default)) if key in cfg else default


def read_config(cls, cfg):
    """Build dataclass `cls` from a parsed config: each field is a key, parsed with
    the type of the field's default, and a missing key keeps the default."""
    return cls(**{f.name: _get(cfg, f.name, f.default) for f in fields(cls)})


def _count(cfg, key, default):
    """An integer key that counts something, so must be at least 1."""
    value = _get(cfg, key, default)
    if value < 1:
        raise ValueError(f"{key} must be at least 1, got {value}")
    return value


def _checked(kind, valid, rule):
    """An argparse type: text read as a `kind` for which valid(value) holds, else `rule`."""

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    return parse


def _dataset(cfg, seed):
    img_h, img_w = _count(cfg, "img_h", ViTConfig.img_h), _count(cfg, "img_w", ViTConfig.img_w)
    if img_w != img_h:
        raise ValueError(f"img_w = {img_w} differs from img_h = {img_h}: "
                         "both dataset sources give square images")
    source = cfg.get("dataset", "synthetic")
    if source == "synthetic":
        return synthetic_dataset(
            _count(cfg, "num_classes", 4), _count(cfg, "images_per_class", 25), img_h, seed
        )
    if source == "stl10_binary":
        if "dataset_path" not in cfg:
            raise ValueError("dataset = stl10_binary needs the key dataset_path")
        images = load_stl10_binary(cfg["dataset_path"], limit=_count(cfg, "limit", 16))
        return [SyntheticExample(image=im, label=None, fg_mask=np.ones(im.shape[1:]))
                for im in images]
    raise ValueError(f"unknown dataset source {source!r}")


def _restore(model, cfg, key):
    """`model`, its parameters loaded from the checkpoint at config key `key` when that is set."""
    if key in cfg:
        load_params(cfg[key], model.params)
    return model


def _load_masker(cfg, seed):
    return _restore(MaskingNetwork(read_config(ViTConfig, cfg), read_config(DistillConfig, cfg),
                                   rng=np.random.default_rng(seed)), cfg, "mae_ckpt")


def _load_ssae(cfg, seed):
    return _restore(SSAE(read_config(SSAEConfig, cfg), rng=np.random.default_rng(seed)),
                    cfg, "ssae_ckpt")


def _finish(args, params, losses, learning_rate):
    """Trainers' ending: save `params` to --out, write the optional per-step log
    (one `step,loss,learning_rate` CSV row per step), print the final loss, if any."""
    save_params(args.out, params)
    if args.log:
        with open(args.log, "w") as fh:
            fh.write("step,loss,learning_rate\n")
            for i, loss in enumerate(losses):
                fh.write(f"{i},{loss!r},{learning_rate!r}\n")
    print(f"wrote {args.out} ({f'final loss {losses[-1]:.4f}' if losses else 'no steps'})")


def cmd_train_mae(args, cfg):
    budget = read_config(TrainBudget, cfg)
    student, _, losses = train_masker(
        _dataset(cfg, args.seed), read_config(ViTConfig, cfg), read_config(DistillConfig, cfg),
        budget, args.seed,
    )
    _finish(args, student.params, losses, budget.distill_lr)


def cmd_train_ssae(args, cfg):
    data = _dataset(cfg, args.seed)
    budget = read_config(TrainBudget, cfg)
    images = [ex.image for ex in data]
    if "mae_ckpt" in cfg:
        masker = _load_masker(cfg, args.seed)
        masks3 = list(masker.semantic_mask(np.stack(images)).mask3)
    else:
        masks3 = [np.broadcast_to(ex.fg_mask, ex.image.shape).copy() for ex in data]
    ssae, losses = train_ssae_on(images, masks3, read_config(SSAEConfig, cfg), budget, args.seed)
    _finish(args, ssae.params, losses, budget.ssae_lr)


def cmd_finetune(args, cfg):
    frac = _get(cfg, "labeled_fraction", 0.1)
    if not 0 < frac <= 1:
        raise ValueError("labeled_fraction must lie in (0, 1]")
    if cfg.get("dataset") == "stl10_binary":
        raise ValueError("dataset = stl10_binary has no labels; finetune needs labeled images")
    data = _dataset(cfg, args.seed)
    budget = read_config(TrainBudget, cfg)
    rng = np.random.default_rng(args.seed)
    n_labeled = max(1, int(round(frac * len(data))))
    idx = rng.choice(len(data), size=n_labeled, replace=False)
    pairs = [(data[int(i)].image, data[int(i)].label) for i in idx]
    backbone = None
    if "mae_ckpt" in cfg:
        backbone = _load_masker(cfg, args.seed).params
    model, losses = train_classifier_on(
        pairs, read_config(ViTConfig, cfg), _count(cfg, "num_classes", 4), budget, args.seed,
        backbone_params=backbone,
    )
    _finish(args, model.params, losses, budget.finetune_lr)


def cmd_encode(args, cfg):
    models = PipelineModels(_load_masker(cfg, args.seed), _load_ssae(cfg, args.seed))
    frame, mask = transmit(
        read_ppm(args.input), models, read_config(RefineParams, cfg), args.seed
    )
    with open(args.out, "wb") as fh:
        fh.write(frame)
    if args.mask_out:
        write_pbm(args.mask_out, mask.mask)
    print(f"wrote {args.out} ({len(frame)} bytes)")


def cmd_decode(args, cfg):
    ssae = _load_ssae(cfg, args.seed)
    with open(args.input, "rb") as fh:
        frame = fh.read()
    write_ppm(args.out, receive(frame, ssae))
    print(f"wrote {args.out}")


def cmd_transmit(args, cfg):
    with open(args.input, "rb") as fh:
        frame = fh.read()
    if args.snr_db is not None:
        channel = ChannelConfig(mode="awgn_snr_db", snr_db=args.snr_db, seed=args.seed)
    else:
        channel = ChannelConfig(mode="bsc_ber", ber=args.ber, seed=args.seed)
    received = channel.send(bytes_to_bits(frame), CODECS[args.fec])
    with open(args.out, "wb") as fh:
        fh.write(bits_to_bytes(received)[: len(frame)])
    print(f"wrote {args.out}")


def _models(cfg, seed):
    fec = cfg.get("fec", "identity")
    if fec not in CODECS:
        raise ValueError(f"unknown fec {fec!r}; choices: {', '.join(sorted(CODECS))}")
    masker = _load_masker(cfg, seed)
    ssae = _load_ssae(cfg, seed)
    clf = None
    if "classifier_ckpt" in cfg:
        clf = _restore(ClassifierModel(read_config(ViTConfig, cfg), _count(cfg, "num_classes", 4),
                                       rng=np.random.default_rng(seed)), cfg, "classifier_ckpt")
    return PipelineModels(masker=masker, ssae=ssae, classifier=clf, fec=CODECS[fec])


def _examples(cfg, seed):
    return [(ex.image, ex.label) for ex in _dataset(cfg, seed)]


def cmd_evaluate(args, cfg):
    channel = ChannelConfig(mode="bsc_ber", ber=_get(cfg, "ber", 0.0), seed=0)
    rows = report(
        _examples(cfg, args.seed), _models(cfg, args.seed), read_config(RefineParams, cfg),
        channel, base_seed=args.seed,
    )
    with open(args.out, "w") as fh:
        fh.write(report_csv(rows))
    print(f"wrote {args.out} ({len(rows)} rows)")


def cmd_sweep(args, cfg):
    grid = [_parse("grid", v, float) for v in cfg.get("grid", "0,0.001,0.01,0.1").split(",")]
    _, csv = sweep(
        _examples(cfg, args.seed), grid, _models(cfg, args.seed), read_config(RefineParams, cfg),
        replicates=_get(cfg, "replicates", 1), base_seed=args.seed,
        mode=cfg.get("grid_mode", "bsc_ber"),
    )
    with open(args.out, "w") as fh:
        fh.write(csv)
    print(f"wrote {args.out}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="gscomm")
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _checked(int, lambda value: value >= 0, "must be at least 0")
    for name, func, text in (
        ("train-mae", cmd_train_mae, "distill the student masking network"),
        ("train-ssae", cmd_train_ssae, "train the semantic autoencoder"),
        ("finetune", cmd_finetune, "fine-tune the classifier head"),
        ("encode", cmd_encode, "PPM image -> .gscf frame"),
        ("decode", cmd_decode, ".gscf frame -> PPM image"),
        ("transmit", cmd_transmit, "pass a frame through the channel"),
        ("evaluate", cmd_evaluate, "per-image end-to-end report CSV"),
        ("sweep", cmd_sweep, "BER/SNR grid sweep CSV"),
    ):
        p = sub.add_parser(name, help=text)
        if name == "transmit":
            p.set_defaults(config=None)  # the channel step reads no config
        else:
            p.add_argument("--config", default=None)
        p.add_argument("--seed", type=seed, default=0)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func)
    for name in ("train-mae", "train-ssae", "finetune"):
        sub.choices[name].add_argument("--log", default=None)
    for name in ("encode", "decode", "transmit"):
        sub.choices[name].add_argument("--in", dest="input", required=True)
    sub.choices["encode"].add_argument("--mask-out", dest="mask_out", default=None)

    p = sub.choices["transmit"]
    noise = p.add_mutually_exclusive_group()
    noise.add_argument("--ber", default=0.0,
                       type=_checked(float, lambda ber: 0.0 <= ber <= 0.5, "must lie in [0, 0.5]"))
    # inf is a noiseless channel; NaN noise would decide every bit 0
    noise.add_argument("--snr-db", dest="snr_db", default=None,
                       type=_checked(float, lambda snr: not np.isnan(snr), "must be a number"),
                       help="AWGN SNR in dB; write a value such as -inf or -1e1 as --snr-db=VALUE")
    p.add_argument("--fec", choices=sorted(CODECS), default="identity")

    parsed = parser.parse_args(argv)
    return parsed.func(parsed, parse_config(parsed.config))


if __name__ == "__main__":
    sys.exit(main())
