"""Stage-by-stage replicas of the program's hot paths, timed from outside.

`transmit`/`receive` call the stage functions of `masking`, `ssae`,
`framing` and `channel` in the order `pipeline.run_end_to_end` does; the
`*_step` functions call the pieces of each trainer's step (forward,
`backward()`, `sgd_step`) in the order the trainer does. Each call can be
timed into a `Trace`. The benchmark asserts that these replicas give the
same rows, reconstructions, predictions and losses as the real functions,
so the per-layer figures measure the code that the end-to-end figures run.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from gscomm import autodiff as ad
from gscomm.autodiff import Tensor
from gscomm.channel import measure_ber
from gscomm.classifier import classify
from gscomm.distill import _clamp_min, distill_loss, make_views
from gscomm.errors import CorruptFrameError, UndefinedMetricError, UnsupportedFormatError
from gscomm.framing import (
    bits_to_bytes,
    bytes_to_bits,
    frame_size_bits,
    parse_frame,
    serialize_frame,
)
from gscomm.masking import apply_mask
from gscomm.metrics import masked_psnr
from gscomm.pipeline import ReportRow
from gscomm.ssae import (
    apply_refinement,
    kmeans_palette,
    plan_refinement,
    rle_decode,
    rle_encode,
)
from gscomm.vit import patchify, vit_forward

ns = time.perf_counter_ns


class Trace:
    """Spans, per-layer samples and counts of one traced run, kept in memory."""

    def __init__(self):
        self.samples = {}  # layer name -> list of ns (one per call or step)
        self.counts = {}  # counter name -> list of values
        self.spans = []  # (op id, name, start ns, end ns)
        self.op = 0
        self.chain_ns = 0  # time spent in the current image's own chain calls

    def call(self, name, fn, *args, chain=True, **kwargs):
        start = ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = ns()
            self.spans.append((self.op, name, start, end))
            self.samples.setdefault(name, []).append(end - start)
            if chain:
                self.chain_ns += end - start

    def add(self, name, duration_ns):
        self.samples.setdefault(name, []).append(duration_ns)

    def count(self, name, value):
        self.counts.setdefault(name, []).append(value)


class NullTrace(Trace):
    """Calls straight through; records nothing."""

    def call(self, name, fn, *args, chain=True, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, duration_ns):
        pass

    def count(self, name, value):
        pass


@dataclass
class Sent:
    image: np.ndarray
    mask: object  # SemanticMask
    masked: np.ndarray
    latent: np.ndarray
    quantized: object  # QuantizedLatent
    local_recon: np.ndarray
    plan: object  # RefinementPlan
    frame: bytes
    payload_bits: int


@dataclass
class Received:
    recon: np.ndarray  # None when the frame was rejected
    pred: object  # Prediction or None
    row: ReportRow
    decoded_bits: np.ndarray


def transmit(trace, image, models, refine, seed):
    """Transmitter half of `run_end_to_end`: mask, encode, plan, serialize."""
    image = np.asarray(image, dtype=np.float64)
    mask = trace.call("masking.semantic_mask", models.masker.semantic_mask, image)
    masked = apply_mask(image, mask)
    latent, quantized = trace.call(
        "ssae.encode_quantize", models.ssae.encode_quantize, masked
    )
    local_recon = trace.call("ssae.decode", models.ssae.decode, quantized)
    plan = trace.call(
        "ssae.plan_refinement", plan_refinement, masked, local_recon, mask,
        refine.psi, refine.eta, refine.palette_size, refine.run_bits, seed=seed,
    )
    cfg = models.ssae.config
    dims = (image.shape[1], image.shape[2], models.masker.vit_config.patch_size)
    frame = trace.call("framing.serialize", serialize_frame, quantized, plan, cfg, dims)
    return Sent(image, mask, masked, latent, quantized, local_recon, plan, frame,
                frame_size_bits(cfg, dims, plan))


def refined_pixels(masked, plan):
    """(n, 3) source pixels of the flagged patches, patch by patch, raster order."""
    p = plan.patch_size
    patches = patchify(masked, p)[np.flatnonzero(plan.flags)]
    return patches.reshape(-1, 3, p, p).transpose(0, 2, 3, 1).reshape(-1, 3)


def replay_refinement(trace, sent, seed):
    """Re-run k-means and RLE encode as separate calls on `plan_refinement`'s inputs.

    Returns (palette, rle bits, k-means iterations); the caller checks they
    equal the plan's.
    """
    plan = sent.plan
    pixels = refined_pixels(sent.masked, plan)
    centers, _, history = trace.call(
        "ssae.kmeans_palette", kmeans_palette, pixels, plan.palette_size, seed,
        return_inertia=True, chain=False,
    )
    palette = np.clip(np.rint(centers * 255.0), 0, 255).astype(np.uint8)
    d = ((pixels[:, None, :] * 255.0 - palette[None].astype(np.float64)) ** 2).sum(axis=2)
    rle = trace.call(
        "ssae.rle_encode", rle_encode, d.argmin(axis=1), plan.palette_size,
        plan.run_bits, chain=False,
    )
    return palette, rle, len(history)


def through_channel(bits, fec, channel):
    """FEC encode, channel, FEC decode: the channel step of `run_end_to_end`."""
    return fec.decode(channel.apply(fec.encode(bits)))


def receive(trace, sent, models, channel, label, seed, replay=False):
    """Channel and receiver half of `run_end_to_end`.

    Raises whatever `run_end_to_end` raises. With `replay`, RLE decode is also
    timed as its own call on the parsed plan.
    """
    sent_bits = bytes_to_bits(sent.frame)
    decoded = trace.call(
        "channel.transmit", through_channel, sent_bits, models.fec,
        replace(channel, seed=seed ^ channel.seed),
    )
    ber = measure_ber(sent_bits, decoded)
    fraction = float(sent.mask.mask.mean())
    try:
        rx_quantized, rx_plan, _ = trace.call(
            "framing.parse", parse_frame, bits_to_bytes(decoded)[: len(sent.frame)]
        )
        recon = trace.call("ssae.decode", models.ssae.decode, rx_quantized)
        if replay and rx_plan.t_prime > 0:
            p = rx_plan.patch_size
            try:
                trace.call(
                    "ssae.rle_decode", rle_decode, rx_plan.rle_bits,
                    rx_plan.t_prime * p * p, rx_plan.palette_size, rx_plan.run_bits,
                    chain=False,
                )
            except CorruptFrameError:
                pass  # apply_refinement below raises the same error
        recon = trace.call("ssae.apply_refinement", apply_refinement, recon, rx_plan)
    except (CorruptFrameError, UnsupportedFormatError) as exc:
        row = ReportRow(sent.payload_bits, ber, math.nan, math.nan, fraction,
                        failure=str(exc))
        return Received(None, None, row, decoded)

    try:
        psnr = masked_psnr(sent.image, recon, sent.mask)
    except UndefinedMetricError:
        psnr = math.nan
    pred = None
    if models.classifier:
        pred = trace.call("classifier.classify", classify, recon, models.classifier)
    acc = float(pred.label == label) if label is not None and pred is not None else math.nan
    row = ReportRow(sent.payload_bits, ber, psnr, acc, fraction)
    return Received(recon, pred, row, decoded)


# ---------------------------------------------------------------------------
# Trainer steps, piece by piece
# ---------------------------------------------------------------------------


def distill_forward(trace, student, teacher, batch, config, rng):
    """Forward half of `train_step_distill`: (mean loss Tensor, mean of item losses)."""
    losses = []
    total = None
    views_ns = forward_ns = 0
    for image in batch:
        t0 = ns()
        views = make_views(image, teacher, config, rng)
        t1 = ns()
        q_t = teacher.project(views.teacher_view).q.data
        q_s = student.project(views.student_view).q
        loss = distill_loss(q_t, q_s)
        total = loss if total is None else total + loss
        losses.append(loss.item())
        t2 = ns()
        views_ns += t1 - t0
        forward_ns += t2 - t1
    t0 = ns()
    mean_loss = total / len(batch)
    forward_ns += ns() - t0
    trace.add("distill.make_views", views_ns)
    trace.add("distill.forward", forward_ns)
    return mean_loss, float(np.mean(losses))


def distill_step(trace, student, teacher, batch, config, lr, rng):
    """`distill.train_step_distill`, piece by piece."""
    mean_loss, loss = distill_forward(trace, student, teacher, batch, config, rng)
    trace.call("distill.backward", mean_loss.backward)
    ad.sgd_step(student.params.values(), lr)
    ad.zero_grads(student.params.values())
    return loss


def ssae_forward(ssae, images, masks3):
    """Forward half of `SSAE.train_step`."""
    batch = np.stack([np.asarray(im, dtype=np.float64) for im in images])
    latent = ssae.encode(Tensor(batch), training=True)
    recon = ssae.decode_latent(latent, training=True)
    residual = Tensor(batch) - recon
    total = None
    for i, m3 in enumerate(masks3):
        term = ad.masked_frobenius_norm(residual[i], np.asarray(m3, dtype=np.float64))
        total = term if total is None else total + term
    return total / len(images)


def ssae_step(trace, ssae, images, masks3, lr):
    """`SSAE.train_step`, piece by piece."""
    loss = trace.call("ssae.train_forward", ssae_forward, ssae, images, masks3)
    trace.call("ssae.train_backward", loss.backward)
    ad.sgd_step(ssae.params.values(), lr)
    ad.zero_grads(ssae.params.values())
    return loss.item()


def finetune_forward(model, labeled, idx):
    """Forward half of one `classifier.finetune` step on batch `idx`."""
    total = None
    for i in idx:
        image, label = labeled[int(i)]
        p = ad.softmax(model.logits(image))
        loss = -(_clamp_min(p[int(label)], 1e-12).log())
        total = loss if total is None else total + loss
    return total / len(idx)


def finetune_step(trace, model, labeled, config, rng):
    """One step of `classifier.finetune(model, labeled, config, rng)`, piece by piece."""
    n = len(labeled)
    idx = rng.choice(n, size=min(config.batch_size, n), replace=False)
    loss = trace.call("classifier.finetune_forward", finetune_forward, model, labeled, idx)
    trace.call("classifier.finetune_backward", loss.backward)
    trace.call("autodiff.sgd_step", ad.sgd_step, model.params.values(), config.lr)
    ad.zero_grads(model.params.values())
    return loss.item()


# ---------------------------------------------------------------------------
# Autodiff ops at the shapes the models use
# ---------------------------------------------------------------------------


def _fwd_bwd(trace, name, op, inputs, rng):
    """Time op(*inputs) and the backward of sum(op(*inputs) * G)."""
    leaves = [Tensor(x, requires_grad=True) for x in inputs]
    out = trace.call(name + "_fwd", op, *leaves)
    loss = (out * rng.normal(size=out.data.shape)).sum()
    trace.call(name + "_bwd", loss.backward)


def op_shapes(ssae_cfg, vit_cfg):
    """Inputs of each timed op: SSAE conv at batch 8, the rest at one ViT image."""
    s, c, p = ssae_cfg.stem_channels, vit_cfg.dim, vit_cfg.patch_size
    tokens = vit_cfg.num_patches + 1
    d = vit_cfg.head_dim
    return {
        "autodiff.conv2d_3x3": (
            lambda x, k: ad.conv2d(x, k, stride=1, padding=1),
            [(8, s, vit_cfg.img_h, vit_cfg.img_w), (s, s, 3, 3)],
        ),
        "autodiff.conv2d_patch": (
            lambda x, k: ad.conv2d(x, k, stride=p, padding=0),
            [(3, vit_cfg.img_h, vit_cfg.img_w), (c, 3, p, p)],
        ),
        "autodiff.matmul": (ad.matmul, [(tokens, c), (c, d)]),  # one head's q/k/v
        "autodiff.softmax": (ad.softmax, [(tokens, tokens)]),
        "autodiff.layernorm": (ad.layernorm, [(tokens, c)]),
    }


def time_ops(trace, shapes, rng, image, vit_cfg, vit_params):
    for name, (op, dims) in shapes.items():
        _fwd_bwd(trace, name, op, [rng.uniform(-1, 1, size=dim) for dim in dims], rng)
    trace.call("vit.forward", vit_forward, image, vit_cfg, vit_params)
