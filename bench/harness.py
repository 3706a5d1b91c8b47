"""Set-up, workloads and metrics of the gscomm benchmark.

One process is one closed-loop caller: the next image or step starts when
the previous one has returned. Each run repeats whole rounds of the same
operations until `seconds` have passed.
"""

from __future__ import annotations

import copy
import math
import re
import time
from dataclasses import dataclass, field

import numpy as np

from gscomm.channel import ChannelConfig
from gscomm.classifier import ClassifierConfig, finetune
from gscomm.datasets import synthetic_dataset
from gscomm.distill import DistillConfig, train_step_distill
from gscomm.framing import bytes_to_bits
from gscomm.pipeline import (
    PipelineModels,
    RefineParams,
    TrainBudget,
    run_end_to_end,
    train_classifier_on,
    train_masker,
    train_ssae_on,
)
from gscomm.ssae import SSAEConfig
from gscomm.vit import ViTConfig

import checks
import traced
from checks import Failures, same_outcome
from traced import NullTrace, Trace, ns

WORKLOADS = ("train", "link_clean", "link_noisy")

VIT = ViTConfig()  # P=8, dim 32, 2 blocks, 4 heads, 32x32 images
SSAE_CFG = SSAEConfig(latent_channels=4, downs=1, bits=8, stem_channels=16)
DISTILL = DistillConfig(masked_patches=4, epsilon=0.2)
REFINE = RefineParams()
LR_DISTILL, LR_SSAE, LR_FINETUNE = 0.002, 0.1, 0.1
NOISY_BER = 1e-2
CLASSES = 4
# The models are the system under test, so their training data and seeds are
# fixed; --seed chooses the inputs sent through them.
MODEL_SEED = 20240
FAULT_IMAGE_SEED = 77
REDRAWS = 8  # channel draws a seeded link_noisy image may take in set-up


@dataclass(frozen=True)
class Sizes:
    setup_images: int = 32  # synthetic images of the set-up training run
    distill_steps: int = 4
    ssae_steps: int = 6
    finetune_steps: int = 8
    train_batches: int = 4  # seeded batch-8 batches the train workload cycles through
    clean_images: int = 32
    noisy_images: int = 95  # seeded images; the fixed fault ops make 100
    probe_images: int = 8  # link images in the train workload's traced run
    op_repeats: int = 3  # autodiff op timings per traced round
    setups: int = 3  # set-ups per run; setup_s is their median


FULL = Sizes()
TINY = Sizes(setup_images=8, distill_steps=1, ssae_steps=1, finetune_steps=1,
             train_batches=1, clean_images=2, noisy_images=7, probe_images=2,
             op_repeats=1, setups=1)


def _data_seed(seed, stream):
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def train_models(sizes):
    """Short seeded training run: distilled masker, SSAE, fine-tuned classifier."""
    data = synthetic_dataset(CLASSES, sizes.setup_images // CLASSES, VIT.img_h, MODEL_SEED)
    budget = TrainBudget(
        distill_steps=sizes.distill_steps, distill_lr=LR_DISTILL,
        ssae_steps=sizes.ssae_steps, ssae_lr=LR_SSAE,
        finetune_steps=sizes.finetune_steps, finetune_lr=LR_FINETUNE, batch_size=8,
    )
    student, teacher, _ = train_masker(data, VIT, DISTILL, budget, seed=MODEL_SEED)
    masks3 = [student.semantic_mask(ex.image).mask3 for ex in data]
    ssae, _ = train_ssae_on([ex.image * m for ex, m in zip(data, masks3)], masks3,
                            SSAE_CFG, budget, seed=MODEL_SEED)
    clf, _ = train_classifier_on([(ex.image, ex.label) for ex in data], VIT, CLASSES,
                                 budget, seed=MODEL_SEED, backbone_params=student.params)
    return TrainState(student, teacher, ssae, clf, np.random.default_rng(MODEL_SEED),
                      np.random.default_rng(MODEL_SEED + 1))


@dataclass
class TrainState:
    student: object
    teacher: object
    ssae: object
    clf: object
    distill_rng: np.random.Generator
    finetune_rng: np.random.Generator

    def pipeline(self):
        return PipelineModels(masker=self.student, ssae=self.ssae, classifier=self.clf)


@dataclass
class Batch:
    images: list
    masked: list  # images times the masker's 3-channel masks, for the SSAE
    masks3: list
    pairs: list  # (image, label) for fine-tuning


@dataclass
class LinkOp:
    image: np.ndarray
    label: int
    fg_mask: np.ndarray
    seed: int
    channel: ChannelConfig
    fault: str = ""  # the FAULTS entry a fixed fault op exercises


FINETUNE_STEP = ClassifierConfig(num_classes=CLASSES, lr=LR_FINETUNE, steps=1, batch_size=8)


def train_op(state, batch):
    """One batch-8 step of each trainer; returns the three losses."""
    return (
        train_step_distill(state.student, state.teacher, batch.images, DISTILL, LR_DISTILL,
                           state.distill_rng),
        state.ssae.train_step(batch.masked, batch.masks3, LR_SSAE),
        finetune(state.clf, batch.pairs, FINETUNE_STEP, rng=state.finetune_rng)[0],
    )


def link_op(models, op):
    """`run_end_to_end` on one op: ((recon, pred, row), None) or (None, exception)."""
    try:
        return run_end_to_end(op.image, models, REFINE, op.channel, label=op.label,
                              seed=op.seed), None
    except Exception as exc:  # a failed operation; counted, never hidden
        return None, exc


def _link_ops(seed, stream, count, ber):
    examples = synthetic_dataset(CLASSES, -(-count // CLASSES), VIT.img_h,
                                 _data_seed(seed, stream))[:count]
    rng = np.random.default_rng(_data_seed(seed, stream + 1))
    channel = ChannelConfig(mode="bsc_ber", ber=ber, seed=0)
    return [LinkOp(ex.image, ex.label, ex.fg_mask, int(rng.integers(2**31)), channel)
            for ex in examples], rng


def _train_batches(seed, state, count):
    examples = synthetic_dataset(CLASSES, 2 * count, VIT.img_h, _data_seed(seed, 3))
    batches = []
    for b in range(count):
        chunk = examples[8 * b : 8 * b + 8]
        images = [ex.image for ex in chunk]
        masks3 = [state.student.semantic_mask(im).mask3 for im in images]
        batches.append(Batch(images, [im * m for im, m in zip(images, masks3)], masks3,
                             [(ex.image, ex.label) for ex in chunk]))
    return batches


@dataclass
class FixedErrors(ChannelConfig):
    """A channel that flips the same bit positions whatever the seed (with the
    identity codec, positions in the frame)."""

    errors: tuple = ()

    def apply(self, bits):
        out = np.asarray(bits, dtype=np.uint8).copy()
        out[list(self.errors)] ^= 1
        return out


# Receiver faults: `run_end_to_end` raises these on corrupt frames that it
# should reject as `CorruptFrameError`. Each has its exception and message,
# and the edit by which a fixed fault op hits it: header fields to set, or
# None for one more flag bit set than T'.
FAULTS = {
    "extra_flag": (ValueError, r"cannot reshape array of size 0 into shape \(8,8,3\)", None),
    "no_palette": (OverflowError, r"cannot convert float infinity to integer",
                   {"refine": 0, "F": 0}),
    "zero_width": (ValueError, r"zero-size array to reduction operation minimum", {"W": 0}),
    "deeper_latent": (ValueError, r"could not broadcast input array from shape", {"D": 3}),
    "fewer_channels": (ValueError, r"conv2d channel mismatch", {"C_o": 2}),
}


def fault_of(exc):
    """The FAULTS entry `exc` is, or None."""
    for name, (kind, message, _) in FAULTS.items():
        if type(exc) is kind and re.match(message, str(exc)):
            return name
    return None


def _corrupt(sent, edit):
    """The sent frame with one more flag set (edit None), or with header fields
    changed and its sections cut to the sizes the new header gives, padded
    with zeros to the sent length."""
    frame = sent.frame
    if edit is None:
        out = bytearray(frame)
        flag = checks.flags_at(sent, SSAE_CFG) + int(np.flatnonzero(sent.plan.flags == 0)[0])
        out[flag // 8] |= 0x80 >> (flag % 8)
        return bytes(out)
    old = dict(zip(checks.HEADER_FIELDS, checks.HEADER.unpack_from(frame)))
    new = {**old, **edit}
    (latent, flags), (new_latent, new_flags) = checks.section_bytes(old), checks.section_bytes(new)
    at = checks.HEADER.size
    out = (checks.HEADER.pack(*new.values()) + frame[at : at + new_latent]
           + frame[at + latent : at + latent + new_flags] + frame[at + latent + flags :])
    return out.ljust(len(frame), b"\0")


def fault_ops(models):
    """One fixed image sent once per FAULTS entry, through a channel that
    makes that entry's edit.

    The errors come from the documented layout and the sent frame alone, so
    the inputs depend neither on --seed nor on how the receiver reacts.
    """
    for ex in synthetic_dataset(CLASSES, 2, VIT.img_h, FAULT_IMAGE_SEED):
        sent = traced.transmit(NullTrace(), ex.image, models, REFINE, seed=0)
        if 0 < sent.plan.t_prime < sent.plan.flags.size:
            break
    else:
        raise RuntimeError("no fault image with 0 < T' < T")
    sent_bits = bytes_to_bits(sent.frame)
    ops = []
    for name, (_, _, edit) in FAULTS.items():
        errors = np.flatnonzero(sent_bits != bytes_to_bits(_corrupt(sent, edit)))
        ops.append(LinkOp(ex.image, ex.label, ex.fg_mask, 0,
                          FixedErrors(mode="bsc_ber", errors=tuple(errors.tolist())), name))
    return ops


@dataclass
class Bench:
    workload: str
    state: TrainState
    models: PipelineModels
    batches: list = None
    ops: list = None  # link ops of one round: seeded, then the fixed fault ops
    seeded: int = 0  # how many of `ops` come from --seed
    rng: np.random.Generator = None  # redraws of seeded channel seeds
    expected: list = None  # link_op result of each op, from the reference pass
    screened: list = field(default_factory=list)  # seeded ops redrawn after a named fault


def set_up(workload, seed, sizes):
    """What a run needs before its first operation: the models and the inputs."""
    state = train_models(sizes)
    bench = Bench(workload, state, state.pipeline())
    if workload == "train":
        bench.batches = _train_batches(seed, state, sizes.train_batches)
        state.distill_rng = np.random.default_rng(_data_seed(seed, 13))
        state.finetune_rng = np.random.default_rng(_data_seed(seed, 14))
    elif workload == "link_clean":
        bench.ops, bench.rng = _link_ops(seed, 1, sizes.clean_images, 0.0)
    else:
        bench.ops, bench.rng = _link_ops(seed, 5, sizes.noisy_images, NOISY_BER)
    bench.seeded = len(bench.ops or ())
    return bench


def reference_pass(bench):
    """Untimed: the outcome of each link op, which every later call must repeat.

    On link_noisy a seeded image hits a named receiver fault on some channel
    draws only, which would make the failed share depend on the seed; such an
    image takes the next channel draw, at most REDRAWS times. Any other
    exception is kept, and `verify` fails the run on it. The faults stay
    measured through the fixed fault ops, appended here.
    """
    if bench.ops is None:
        return
    bench.expected = []
    for op in bench.ops:
        out = link_op(bench.models, op)
        for _ in range(REDRAWS if bench.workload == "link_noisy" else 0):
            if fault_of(out[1]) is None:
                break
            bench.screened.append(f"seed {op.seed}: {out[1]!r}")
            op.seed = int(bench.rng.integers(2**31))
            out = link_op(bench.models, op)
        bench.expected.append(out)
    if bench.workload == "link_noisy":
        for op in fault_ops(bench.models):
            bench.ops.append(op)
            bench.expected.append(link_op(bench.models, op))


def timed_set_up(workload, seed, sizes, fail):
    """`sizes.setups` set-ups, then the reference pass on the last; returns it
    and the median set-up duration in s."""
    durations, bench = [], None
    for _ in range(sizes.setups):
        t0 = time.perf_counter()
        again = set_up(workload, seed, sizes)
        durations.append(time.perf_counter() - t0)
        if bench is not None:
            fail.check(checks.params_equal(bench.state.clf.params, again.state.clf.params)
                       and checks.params_equal(bench.state.ssae.params, again.state.ssae.params),
                       "set-up is not deterministic")
        bench = again
    reference_pass(bench)
    return bench, float(np.median(durations))


# ---------------------------------------------------------------------------
# Checks that need the benchmark's state
# ---------------------------------------------------------------------------


def check_outcome(fail, got, want, where):
    (out, exc), (want_out, want_exc) = got, want
    if want_exc is not None:
        fail.check(exc is not None and repr(exc) == repr(want_exc),
                   f"{where}: expected {want_exc!r}, got {exc!r}")
    elif fail.check(exc is None, f"{where}: raised {exc!r}"):
        fail.check(same_outcome(out, want_out), f"{where}: output differs from set-up's")


def verify(bench, seed, fail):
    """Correctness checks run once per run, before timing."""
    if bench.workload == "train":
        verify_gradients(bench, seed, fail)
        return
    models = bench.models
    for i, (op, (out, exc)) in enumerate(zip(bench.ops, bench.expected)):
        where = f"{bench.workload} op {i}"
        if i >= bench.seeded:  # a fixed fault op: its own fault, or a rejected frame
            fail.check(exc is None or fault_of(exc) == op.fault,
                       f"{where}: {op.fault} op failed with {exc!r}")
            continue
        if not fail.check(exc is None, f"{where}: failed with {exc!r}"):
            continue
        _, pred, row = out
        if bench.workload == "link_clean":
            sent = traced.transmit(NullTrace(), op.image, models, REFINE, op.seed)
            rx = traced.receive(NullTrace(), sent, models, op.channel, op.label, op.seed)
            fail.check(same_outcome((rx.recon, rx.pred, rx.row), out),
                       f"{where}: stage-by-stage chain differs from run_end_to_end")
            checks.check_clean_image(fail, sent, rx, SSAE_CFG, where)
        elif not row.failure:
            checks.check_prediction(fail, pred, where)
    if bench.workload == "link_noisy":
        checks.check_flips(fail, [out[2] for out, _ in bench.expected[: bench.seeded]],
                           NOISY_BER)


def verify_gradients(bench, seed, fail):
    """Backward against central differences, for each trainer, on throwaway copies."""
    state = copy.deepcopy(bench.state)
    batch = bench.batches[0]
    rng = np.random.default_rng(_data_seed(seed, 9))
    views_rng = copy.deepcopy(state.distill_rng)
    checks.finite_difference(
        fail, "distill", state.student.params,
        lambda: traced.distill_forward(NullTrace(), state.student, state.teacher, batch.images,
                                       DISTILL, copy.deepcopy(views_rng))[0], rng)
    checks.finite_difference(
        fail, "ssae", state.ssae.params,
        lambda: traced.ssae_forward(state.ssae, batch.masked, batch.masks3), rng)
    idx = np.arange(len(batch.pairs))
    checks.finite_difference(
        fail, "finetune", state.clf.params,
        lambda: traced.finetune_forward(state.clf, batch.pairs, idx), rng)


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------


def measure(bench, seconds, fail):
    """Whole rounds until `seconds` pass; returns (op durations ns, attempted, failed)."""
    durations, failed, delivered, rejected = [], 0, 0, 0
    deadline = time.perf_counter() + seconds
    teacher = checks.snapshot(bench.state.teacher.params)
    while True:
        if bench.workload == "train":
            for b, batch in enumerate(bench.batches):
                t0 = ns()
                losses = train_op(bench.state, batch)
                durations.append(ns() - t0)
                fail.check(all(math.isfinite(x) for x in losses),
                           f"train batch {b}: losses {losses}")
        else:
            for i, op in enumerate(bench.ops):
                t0 = ns()
                got = link_op(bench.models, op)
                durations.append(ns() - t0)
                out, exc = got
                failed += exc is not None
                delivered += exc is None and not out[2].failure
                rejected += exc is None and bool(out[2].failure)
                check_outcome(fail, got, bench.expected[i], f"{bench.workload} op {i}")
        if time.perf_counter() >= deadline:
            break
    if bench.ops:
        fail.check(delivered + rejected + failed == len(durations),
                   f"{delivered} delivered + {rejected} rejected + {failed} failed"
                   f" != {len(durations)} attempted")
    fail.check(checks.params_equal(teacher, bench.state.teacher.params),
               "distillation teacher changed")
    return durations, len(durations), failed


def end_to_end(durations, round_size, setup_s):
    """Set-up time, and throughput from each operation's median latency.

    Each operation of a round (one image, or one batch's trainer steps) runs
    once per round and takes the same path every time. Its median over the
    rounds rides out the host's seconds-long speed swings, and summing the
    medians over the round keeps the mix of fast and slow paths (rejected
    vs delivered frames) fixed.
    """
    ms = np.asarray(durations, dtype=np.float64).reshape(-1, round_size) / 1e6
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1e3 * round_size / float(np.median(ms, axis=0).sum()), "1/s"),
    }


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------


def trainer_twins(trace, state, batch, fail):
    """One step of each trainer, untraced on a copy and traced on `state`; both
    must give the same loss and parameters."""
    twin = copy.deepcopy(state)
    t0 = ns()
    want = train_step_distill(twin.student, twin.teacher, batch.images, DISTILL, LR_DISTILL,
                              twin.distill_rng)
    trace.add("distill.step", ns() - t0)
    got = traced.distill_step(trace, state.student, state.teacher, batch.images, DISTILL,
                              LR_DISTILL, state.distill_rng)
    fail.check(got == want and checks.params_equal(twin.student.params, state.student.params),
               f"traced distill step differs: {got!r} vs {want!r}")

    t0 = ns()
    want = twin.ssae.train_step(batch.masked, batch.masks3, LR_SSAE)
    trace.add("ssae.step", ns() - t0)
    got = traced.ssae_step(trace, state.ssae, batch.masked, batch.masks3, LR_SSAE)
    fail.check(got == want and checks.params_equal(twin.ssae.params, state.ssae.params),
               f"traced SSAE step differs: {got!r} vs {want!r}")

    t0 = ns()
    want = finetune(twin.clf, batch.pairs, FINETUNE_STEP, rng=twin.finetune_rng)[0]
    trace.add("classifier.finetune_step", ns() - t0)
    got = traced.finetune_step(trace, state.clf, batch.pairs, FINETUNE_STEP, state.finetune_rng)
    fail.check(got == want and checks.params_equal(twin.clf.params, state.clf.params),
               f"traced fine-tune step differs: {got!r} vs {want!r}")
    return got


def traced_link_op(trace, models, op, want, fail, where):
    """`run_end_to_end` untraced, then stage by stage; both must agree."""
    t0 = ns()
    untraced = link_op(models, op)
    trace.add("pipeline.run_end_to_end", ns() - t0)
    check_outcome(fail, untraced, want, where)

    trace.chain_ns = 0
    sent = traced.transmit(trace, op.image, models, REFINE, op.seed)
    mask = sent.mask.mask
    truth = op.fg_mask > 0.5
    trace.count("masking.foreground_fraction", float(mask.mean()))
    fg = mask > 0.5
    trace.count("masking.fg_iou", float((truth & fg).sum() / (truth | fg).sum()))
    trace.count("ssae.refined_patches", sent.plan.t_prime)
    trace.count("framing.frame_bytes", len(sent.frame))
    trace.count("pipeline.payload_bits", sent.payload_bits)
    if sent.plan.t_prime > 0:
        palette, rle, iterations = traced.replay_refinement(trace, sent, op.seed)
        fail.check(np.array_equal(palette, sent.plan.palette)
                   and np.array_equal(rle, sent.plan.rle_bits),
                   f"{where}: separate k-means/RLE calls disagree with plan_refinement")
        trace.count("ssae.kmeans_iterations", iterations)
        record_bits = max(1, math.ceil(math.log2(sent.plan.palette_size))) + sent.plan.run_bits
        trace.count("ssae.rle_records", rle.size // record_bits)
    try:
        rx = traced.receive(trace, sent, models, op.channel, op.label, op.seed, replay=True)
        got = (rx.recon, rx.pred, rx.row), None
    except Exception as exc:  # must match the untraced failure
        rx, got = None, (None, exc)
    trace.add("pipeline.traced_sum", trace.chain_ns)
    check_outcome(fail, got, want, where + " (traced)")
    if rx is not None:
        sent_bits = bytes_to_bits(sent.frame)
        trace.count("channel.bit_errors", int((rx.decoded_bits != sent_bits).sum()))
        if not rx.row.failure:
            trace.count("pipeline.masked_psnr_db", rx.row.masked_psnr_db)
        if op.channel.ber == 0.0 and not isinstance(op.channel, FixedErrors):
            checks.check_clean_image(fail, sent, rx, SSAE_CFG, where)
    return got


def traced_run(bench, seed, seconds, sizes, fail):
    """Whole traced rounds until `seconds` pass; returns (trace, attempted, failed)."""
    trace = Trace()
    state = copy.deepcopy(bench.state)  # the link models stay as set up
    if bench.workload == "train":
        probe, _ = _link_ops(seed, 7, sizes.probe_images, 0.0)
        link_ops, expected = probe, [link_op(bench.models, op) for op in probe]
    else:
        link_ops, expected = bench.ops, bench.expected
    batches = bench.batches or _train_batches(seed, bench.state, 1)
    shapes = traced.op_shapes(SSAE_CFG, VIT)
    op_rng = np.random.default_rng(_data_seed(seed, 11))
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        trace.op += 1
        losses = trainer_twins(trace, state, batches[r % len(batches)], fail)
        if bench.workload == "train":
            attempted += 1
            fail.check(math.isfinite(losses), "traced fine-tune loss is not finite")
        rejected = delivered = 0
        for i, op in enumerate(link_ops):
            trace.op += 1
            out, exc = traced_link_op(trace, bench.models, op, expected[i], fail,
                                      f"{bench.workload} traced op {i}")
            if bench.workload != "train":
                attempted += 1
                failed += exc is not None
            if exc is None:
                delivered += not out[2].failure
                rejected += bool(out[2].failure)
        trace.count("framing.frames_rejected", rejected)
        trace.count("pipeline.images_delivered", delivered)
        for _ in range(sizes.op_repeats):
            traced.time_ops(trace, shapes, op_rng, link_ops[0].image, VIT, state.clf.params)
        r += 1
        if time.perf_counter() >= deadline:
            break
    fail.check(checks.params_equal(bench.state.teacher.params, state.teacher.params),
               "distillation teacher changed")
    return trace, attempted, failed


PER_LAYER_TIMES = (
    "autodiff.conv2d_3x3_fwd", "autodiff.conv2d_3x3_bwd",
    "autodiff.conv2d_patch_fwd", "autodiff.conv2d_patch_bwd",
    "autodiff.matmul_fwd", "autodiff.matmul_bwd",
    "autodiff.softmax_fwd", "autodiff.softmax_bwd",
    "autodiff.layernorm_fwd", "autodiff.layernorm_bwd",
    "autodiff.sgd_step", "vit.forward",
    "distill.step", "distill.make_views", "distill.forward", "distill.backward",
    "ssae.step", "ssae.train_forward", "ssae.train_backward",
    "classifier.finetune_step", "classifier.finetune_forward", "classifier.finetune_backward",
    "masking.semantic_mask", "ssae.encode_quantize", "ssae.decode", "ssae.plan_refinement",
    "ssae.kmeans_palette", "ssae.rle_encode", "framing.serialize", "channel.transmit",
    "framing.parse", "ssae.rle_decode", "ssae.apply_refinement", "classifier.classify",
    "pipeline.run_end_to_end", "pipeline.traced_sum",
)
PER_LAYER_COUNTS = {
    "masking.foreground_fraction": "fraction",
    "masking.fg_iou": "fraction",
    "ssae.refined_patches": "count",
    "ssae.kmeans_iterations": "count",
    "ssae.rle_records": "count",
    "framing.frame_bytes": "byte",
    "pipeline.payload_bits": "bit",
    "pipeline.masked_psnr_db": "dB",
    "channel.bit_errors": "count",
    "framing.frames_rejected": "count",
    "pipeline.images_delivered": "count",
}


def per_layer(trace):
    """Median of each layer's samples (times in ms) and of each counter."""
    out = {}
    for name in PER_LAYER_TIMES:
        if trace.samples.get(name):
            out[name + "_ms"] = (float(np.median(trace.samples[name])) / 1e6, "ms")
    for name, unit in PER_LAYER_COUNTS.items():
        if trace.counts.get(name):
            out[name] = (float(np.median(trace.counts[name])), unit)
    return out


def metric_names():
    """(end-to-end names, per-layer names) in the order BENCHMARK.json lists them."""
    e2e = list(end_to_end([1, 2], 2, 1.0))
    layer = [n + "_ms" for n in PER_LAYER_TIMES] + list(PER_LAYER_COUNTS)
    return e2e, layer
