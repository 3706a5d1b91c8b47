"""End-to-end orchestration: mask -> encode -> frame -> channel -> decode ->
refine -> classify, with per-image reports and grid sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import CODECS, ChannelConfig, measure_ber
from .classifier import ClassifierConfig, ClassifierModel, classify, finetune
from .distill import MaskingNetwork, train_step_distill
from .errors import CorruptFrameError, UndefinedMetricError, UnsupportedFormatError
from .framing import bits_to_bytes, bytes_to_bits, parse_frame, serialize_frame
from .masking import apply_mask
from .metrics import masked_psnr
from .ssae import SSAE, apply_refinement, plan_refinement


@dataclass
class RefineParams:
    psi: float = 5e-3
    eta: float = 0.5
    palette_size: int = 8  # F
    run_bits: int = 4  # L


@dataclass
class ReportRow:
    payload_bits: int
    measured_ber: float
    masked_psnr_db: float
    accuracy: float  # 1.0/0.0 per image, nan when unlabeled
    non_masked_pixel_fraction: float
    failure: str = ""


@dataclass
class PipelineModels:
    masker: MaskingNetwork
    ssae: SSAE
    classifier: ClassifierModel = None
    fec: object = CODECS["identity"]


def _transmit(image, models, refine, seed):
    """`transmit`, also returning the transmitter's decode and refinement plan."""
    image = np.asarray(image, dtype=np.float64)
    mask = models.masker.semantic_mask(image)
    masked = apply_mask(image, mask)
    _, quantized = models.ssae.encode_quantize(masked)
    decoded = models.ssae.decode(quantized)
    plan = plan_refinement(
        masked, decoded, mask, refine.psi, refine.eta,
        refine.palette_size, refine.run_bits, seed=seed,
    )
    dims = (image.shape[1], image.shape[2], models.masker.vit_config.patch_size)
    return serialize_frame(quantized, plan, models.ssae.config, dims), mask, decoded, plan


def transmit(image, models, refine, seed=0):
    """Transmitter half: mask, encode, plan, serialize; returns (frame bytes, mask)."""
    return _transmit(image, models, refine, seed)[:2]


def receive(frame, ssae):
    """Receiver half: parse, decode, refine. Rejects with CorruptFrameError or
    UnsupportedFormatError."""
    quantized, plan, _ = parse_frame(frame)
    return apply_refinement(ssae.decode(quantized), plan)


def run_end_to_end(image, models, refine, channel, label=None, seed=0):
    """One image through the full chain; returns (reconstruction, prediction, row)."""
    frame, mask, decoded, plan = _transmit(image, models, refine, seed)
    payload_bits = 8 * len(frame)

    sent = bytes_to_bits(frame)
    bits = replace(channel, seed=seed ^ channel.seed).send(sent, models.fec)
    ber = measure_ber(sent, bits)
    received = bits_to_bytes(bits)[: len(frame)]

    fraction = float(mask.mask.mean())
    try:
        # parse_frame inverts serialize_frame, so an intact frame needs no parse or decode
        recon = (apply_refinement(decoded, plan) if received == frame
                 else receive(received, models.ssae))
    except (CorruptFrameError, UnsupportedFormatError) as exc:
        row = ReportRow(payload_bits, ber, math.nan, math.nan, fraction, failure=str(exc))
        return None, None, row

    try:
        psnr = masked_psnr(image, recon, mask)
    except UndefinedMetricError:
        psnr = math.nan
    pred = classify(recon, models.classifier) if models.classifier else None
    if label is not None and pred is not None:
        acc = float(pred.label == label)
    else:
        acc = math.nan
    row = ReportRow(payload_bits, ber, psnr, acc, fraction)
    return recon, pred, row


REPORT_COLUMNS = tuple(f.name for f in fields(ReportRow))
SWEEP_COLUMNS = (
    "grid_value", "replicate", "mean_masked_psnr_db", "mean_accuracy",
    "mean_payload_bits", "failures",
)


def _fmt(x):
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.6f}"
    return str(x)


def _csv(columns, rows):
    """Header line, then one line per row; each row maps column name -> value."""
    lines = [",".join(columns)]
    lines += [",".join(_fmt(r[c]) for c in columns) for r in rows]
    return "\n".join(lines) + "\n"


def report_csv(rows):
    return _csv(REPORT_COLUMNS, [vars(r) for r in rows])


def report(examples, models, refine, channel, base_seed=0):
    """One run_end_to_end row per (image, label) example; example i uses seed base_seed + i."""
    return [
        run_end_to_end(image, models, refine, channel, label=label, seed=base_seed + i)[2]
        for i, (image, label) in enumerate(examples)
    ]


def sweep(examples, grid_values, models, refine, replicates=1, base_seed=0,
          mode="bsc_ber"):
    """Grid sweep; one CSV row per (grid value, replicate), averaging that point's
    `report` over the delivered images. Returns (rows, csv).

    `mode` is a ChannelConfig mode: each grid value is a BER or an SNR in dB.
    """
    if not grid_values:
        raise ValueError("grid must be non-empty")
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    out = []
    for gi, value in enumerate(grid_values):
        channel = ChannelConfig(mode=mode, ber=value, snr_db=value, seed=0)
        for rep in range(replicates):
            rows = report(examples, models, refine, channel,
                          base_seed + 1_000_003 * gi + 7919 * rep)
            delivered = [row for row in rows if not row.failure]
            psnrs = [r.masked_psnr_db for r in delivered if math.isfinite(r.masked_psnr_db)]
            accs = [r.accuracy for r in delivered if not math.isnan(r.accuracy)]
            payloads = [r.payload_bits for r in delivered]
            out.append(
                {
                    "grid_value": value,
                    "replicate": rep,
                    "mean_masked_psnr_db": float(np.mean(psnrs)) if psnrs else math.nan,
                    "mean_accuracy": float(np.mean(accs)) if accs else math.nan,
                    "mean_payload_bits": float(np.mean(payloads)) if payloads else math.nan,
                    "failures": len(rows) - len(delivered),
                }
            )
    return out, _csv(SWEEP_COLUMNS, out)


# ---------------------------------------------------------------------------
# Desk-scale training orchestration (used by the CLI and acceptance tests)
# ---------------------------------------------------------------------------


@dataclass
class TrainBudget:
    distill_steps: int = 150
    distill_lr: float = 0.05
    ssae_steps: int = 400
    ssae_lr: float = 0.3
    finetune_steps: int = 250
    finetune_lr: float = 0.05
    batch_size: int = 8

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        for stage in ("distill", "ssae", "finetune"):
            steps, lr = getattr(self, stage + "_steps"), getattr(self, stage + "_lr")
            if steps < 0:
                raise ValueError(f"{stage}_steps must be at least 0, got {steps}")
            if not lr > 0:
                raise ValueError(f"{stage}_lr must be positive, got {lr}")


def train_masker(examples, vit_config, distill_config, budget, seed):
    """Distill a student masking network against a random teacher that no step updates."""
    rng = np.random.default_rng(seed)
    teacher = MaskingNetwork(vit_config, distill_config, rng=np.random.default_rng(seed + 1))
    student = MaskingNetwork(vit_config, distill_config, rng=np.random.default_rng(seed + 2))
    images = [ex.image for ex in examples]
    losses = []
    for step in range(budget.distill_steps):
        idx = rng.choice(len(images), size=min(budget.batch_size, len(images)), replace=False)
        batch = [images[int(i)] for i in idx]
        losses.append(
            train_step_distill(student, teacher, batch, distill_config, budget.distill_lr, rng)
        )
    return student, teacher, losses


def train_ssae_on(examples, masks3, ssae_config, budget, seed):
    """Train an SSAE on (image, 3-channel mask) pairs."""
    rng = np.random.default_rng(seed)
    ssae = SSAE(ssae_config, rng=np.random.default_rng(seed + 3))
    n = len(examples)
    losses = []
    for step in range(budget.ssae_steps):
        idx = rng.choice(n, size=min(budget.batch_size, n), replace=False)
        losses.append(
            ssae.train_step(
                [examples[int(i)] for i in idx], [masks3[int(i)] for i in idx], budget.ssae_lr
            )
        )
    return ssae, losses


def train_classifier_on(pairs, vit_config, num_classes, budget, seed, backbone_params=None):
    model = ClassifierModel(
        vit_config, num_classes, rng=np.random.default_rng(seed + 4),
        backbone_params=backbone_params,
    )
    cfg = ClassifierConfig(
        num_classes=num_classes, lr=budget.finetune_lr, steps=budget.finetune_steps,
        batch_size=budget.batch_size,
    )
    losses = finetune(model, pairs, cfg, rng=np.random.default_rng(seed + 5))
    return model, losses
