"""Correctness checks computed apart from the program: from the documented
`.gscf` layout, from plain numpy, or from properties of the method.

Each check appends a message to a `Failures` list instead of raising, so a
run reports every broken property at once.
"""

from __future__ import annotations

import copy
import math
import struct

import numpy as np

HEADER = struct.Struct("<4sBHHBBBBBBBHH")  # the 20-byte header of the format doc
HEADER_FIELDS = ("magic", "version", "H", "W", "P", "C_o", "D", "N", "refine", "F", "L",
                 "T'", "reserved")


class Failures(list):
    def check(self, ok, message):
        if not ok:
            self.append(message)
        return ok


def ceil8(bits):
    return (bits + 7) // 8


def _patches(image, p):
    """(T, C, P, P) raster-order patches of a (C, H, W) image."""
    c, h, w = image.shape
    return image.reshape(c, h // p, p, w // p, p).transpose(1, 3, 0, 2, 4).reshape(-1, c, p, p)


def flags_at(sent, ssae_cfg):
    """Bit offset of the flag section in the documented layout."""
    c, h, w = sent.quantized.levels.shape
    return 8 * (HEADER.size + ceil8(c * h * w * ssae_cfg.bits))


def section_bytes(fields):
    """(latent, flag) section sizes in bytes that the header `fields` give."""
    h, w, d, p = fields["H"], fields["W"], fields["D"], fields["P"]
    return ceil8(fields["C_o"] * (h >> d) * (w >> d) * fields["N"]), ceil8((h // p) * (w // p))


def layout_bits(sent, ssae_cfg):
    """Frame size in bits from the documented layout and the plan's sections."""
    plan = sent.plan
    size = flags_at(sent, ssae_cfg) // 8 + ceil8(plan.flags.size)
    if plan.t_prime > 0:
        size += plan.palette_size * 3 + 2 + ceil8(plan.rle_bits.size)
    return 8 * size


def row_key(row):
    """Comparable form of a ReportRow (NaN equals NaN)."""
    return tuple(repr(v) for v in (row.payload_bits, row.measured_ber, row.masked_psnr_db,
                                   row.accuracy, row.non_masked_pixel_fraction, row.failure))


def same_outcome(a, b):
    """(recon, pred, row) triples agree bit for bit."""
    (ra, pa, rowa), (rb, pb, rowb) = a, b
    if row_key(rowa) != row_key(rowb) or (ra is None) != (rb is None):
        return False
    if ra is not None and not np.array_equal(ra, rb):
        return False
    if (pa is None) != (pb is None):
        return False
    return pa is None or (pa.label == pb.label and np.array_equal(pa.probs, pb.probs))


def check_prediction(fail, pred, where):
    if pred is None:
        return
    fail.check(math.isclose(float(pred.probs.sum()), 1.0, rel_tol=0, abs_tol=1e-9),
               f"{where}: probabilities sum to {pred.probs.sum()!r}")
    fail.check(pred.label == int(np.argmax(pred.probs)), f"{where}: label is not the argmax")


def check_clean_image(fail, sent, rx, ssae_cfg, where):
    """The link_clean properties of one delivered image."""
    plan, frame = sent.plan, sent.frame
    bits = layout_bits(sent, ssae_cfg)
    fail.check(bits == 8 * len(frame) == sent.payload_bits == rx.row.payload_bits,
               f"{where}: layout {bits} bits, frame {8 * len(frame)}, row {rx.row.payload_bits}")
    magic, version, h, w, p, c_o, downs, n, refine, f, l, t_prime, reserved = (
        HEADER.unpack_from(frame))
    fail.check((magic, version, refine, t_prime, reserved)
               == (b"GSCF", 1, int(plan.t_prime > 0), plan.t_prime, 0)
               and (c_o, downs, n) == (ssae_cfg.latent_channels, ssae_cfg.downs, ssae_cfg.bits)
               and (h, w, p) == (sent.image.shape[1], sent.image.shape[2], plan.patch_size),
               f"{where}: header fields disagree with the frame's inputs")

    sent_bits = np.unpackbits(np.frombuffer(frame, dtype=np.uint8))
    fail.check(np.array_equal(sent_bits, rx.decoded_bits), f"{where}: received bits differ")

    scale = (1 << sent.quantized.bits) - 1
    err = np.abs(sent.quantized.levels / scale - sent.latent).max()
    fail.check(err <= 0.5 / scale + 1e-12, f"{where}: level off its latent by {err:.3g}")

    if not fail.check(rx.recon is not None and rx.row.failure == "",
                      f"{where}: frame rejected on a clean link: {rx.row.failure}"):
        return
    recon = rx.recon
    pix, local = _patches(recon, p), _patches(sent.local_recon, p)
    flagged = plan.flags.astype(bool)
    fail.check(np.array_equal(pix[~flagged], local[~flagged]),
               f"{where}: unflagged patches differ from the decoded latent")
    if flagged.any():
        got = pix[flagged].transpose(0, 2, 3, 1).reshape(-1, 3) * 255.0
        source = _patches(sent.masked, p)[flagged].transpose(0, 2, 3, 1).reshape(-1, 3) * 255.0
        palette = plan.palette.astype(np.float64)
        dist = ((source[:, None, :] - palette[None]) ** 2).sum(axis=2)
        in_palette = np.isclose(got[:, None, :], palette[None]).all(axis=2).any(axis=1)
        fail.check(in_palette.all()
                   and np.allclose(((source - got) ** 2).sum(axis=1), dist.min(axis=1)),
                   f"{where}: a refined pixel is not its nearest palette colour")

    m = sent.mask.mask
    mse = float(((sent.image - recon) ** 2 * m[None]).sum() / (3.0 * m.sum()))
    psnr = 10.0 * math.log10(1.0 / mse)
    fail.check(math.isclose(psnr, rx.row.masked_psnr_db, rel_tol=1e-9),
               f"{where}: masked PSNR {rx.row.masked_psnr_db!r}, numpy gives {psnr!r}")
    check_prediction(fail, rx.pred, where)


def check_flips(fail, rows, ber):
    """Total bit flips within a 5-sigma binomial band of BER x bits sent."""
    bits = sum(r.payload_bits for r in rows)
    flips = sum(round(r.measured_ber * r.payload_bits) for r in rows)
    mean = ber * bits
    sigma = math.sqrt(bits * ber * (1 - ber))
    fail.check(abs(flips - mean) <= 5 * sigma,
               f"{flips} flips in {bits} bits, outside {mean:.0f} +/- {5 * sigma:.0f}")


def finite_difference(fail, name, params, loss_of, rng, entries=3, h=1e-6, tol=1e-5):
    """Backward gradient at sampled parameter entries against a central difference.

    `loss_of()` builds the loss Tensor from the current parameter values with
    fixed randomness; it is called on the caller's (throwaway) copy.
    """
    learnable = [(k, p) for k, p in params.items() if p.learnable]
    loss = loss_of()
    loss.backward()
    for _ in range(entries):
        key, p = learnable[int(rng.integers(len(learnable)))]
        idx = tuple(int(rng.integers(n)) for n in p.value.data.shape)
        analytic = 0.0 if p.value.grad is None else float(p.value.grad[idx])
        saved = p.value.data[idx]
        p.value.data[idx] = saved + h
        plus = loss_of().item()
        p.value.data[idx] = saved - h
        minus = loss_of().item()
        p.value.data[idx] = saved
        numeric = (plus - minus) / (2 * h)
        err = abs(analytic - numeric) / max(1.0, abs(analytic) + abs(numeric))
        fail.check(err < tol, f"{name}: gradient of {key}{list(idx)} is {analytic!r}, "
                              f"finite difference {numeric!r}")


def params_equal(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k].data, b[k].data) for k in a)


def snapshot(params):
    return {k: copy.deepcopy(p) for k, p in params.items()}
