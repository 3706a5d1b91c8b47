from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gscomm.errors import CorruptFrameError, UnsupportedFormatError
from gscomm.framing import (
    HEADER_BYTES,
    bits_to_bytes,
    bytes_to_bits,
    frame_size_bits,
    parse_frame,
    serialize_frame,
)
from gscomm.masking import SemanticMask
from gscomm.ssae import (
    QuantizedLatent,
    RefinementPlan,
    SSAEConfig,
    plan_refinement,
    quantize,
    rle_encode,
)


def refining_plan(rng, t, t_prime, f, l, patch):
    """A plan refining `t_prime` random patches of `t`, with random palette and indices."""
    flags = np.zeros(t, dtype=np.uint8)
    flags[rng.choice(t, size=t_prime, replace=False)] = 1
    indices = rng.integers(0, f, size=t_prime * patch * patch)
    return RefinementPlan(
        t_prime=t_prime, flags=flags,
        palette=rng.integers(0, 256, size=(f, 3)).astype(np.uint8), run_bits=l,
        rle_bits=rle_encode(indices, f, l), patch_size=patch,
    )


def random_frame(rng, refine=None):
    """Random (quantized, plan, config, dims) tuple with consistent geometry."""
    downs = int(rng.integers(0, 3))
    c_o = int(rng.integers(1, 7))
    bits = int(rng.integers(1, 13))
    patch = int(rng.choice([4, 8]))
    factor = max(patch, 2**downs)
    gh = int(rng.integers(1, 4)) * (np.lcm(patch, 2**downs) // patch)
    h = w = int(np.lcm(patch, 2**downs)) * int(rng.integers(1, 4))
    cfg = SSAEConfig(latent_channels=c_o, downs=downs, bits=bits, stem_channels=4)
    shape = cfg.latent_shape(h, w)
    levels = rng.integers(0, 2**bits, size=shape)
    t = (h // patch) * (w // patch)
    if refine is None:
        refine = bool(rng.integers(0, 2))
    if refine:
        f = int(rng.choice([2, 4, 8, 16]))
        l = int(rng.integers(1, 9))
        plan = refining_plan(rng, t, int(rng.integers(1, t + 1)), f, l, patch)
    else:
        plan = RefinementPlan.empty(t, 8, 4, patch)
    return QuantizedLatent(levels=levels, bits=bits), plan, cfg, (h, w, patch)


@st.composite
def valid_frames(draw):
    """Any valid (quantized, plan, config, dims), H and W drawn apart, with an RLE
    stream short enough for its u16 bit count."""
    downs = draw(st.integers(0, 3))
    patch = draw(st.integers(1, 8))
    unit = int(np.lcm(patch, 2**downs))
    h, w = unit * draw(st.integers(1, 3)), unit * draw(st.integers(1, 3))
    cfg = SSAEConfig(latent_channels=draw(st.integers(1, 8)), downs=downs,
                     bits=draw(st.integers(1, 16)), stem_channels=4)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.integers(0, 2**cfg.bits, size=cfg.latent_shape(h, w))
    t = (h // patch) * (w // patch)
    f, l = draw(st.integers(2, 255)), draw(st.integers(1, 8))
    # at most 16 bits per record, one record per pixel: 4095 pixels fit in 65,535 bits
    t_prime = draw(st.integers(0, min(t, 4095 // patch**2)))
    if t_prime == 0:
        plan = RefinementPlan.empty(t, f, l, patch)
    else:
        plan = refining_plan(rng, t, t_prime, f, l, patch)
    return QuantizedLatent(levels=levels, bits=cfg.bits), plan, cfg, (h, w, patch)


# (field, out-of-range value, edit that sets it on a valid frame)
WIDE_FIELDS = [
    ("H", 65536, lambda q, plan, cfg, dims: (q, plan, cfg, (65536, *dims[1:]))),
    ("W", -8, lambda q, plan, cfg, dims: (q, plan, cfg, (dims[0], -8, dims[2]))),
    ("P", 256, lambda q, plan, cfg, dims: (q, plan, cfg, (*dims[:2], 256))),
    ("C_o", 256, lambda q, plan, cfg, dims: (q, plan, replace(cfg, latent_channels=256), dims)),
    ("D", 256, lambda q, plan, cfg, dims: (q, plan, replace(cfg, downs=256), dims)),
    ("F", 256, lambda q, plan, cfg, dims: (
        q, replace(plan, palette=np.zeros((256, 3), dtype=np.uint8)), cfg, dims)),
    ("L", 256, lambda q, plan, cfg, dims: (q, replace(plan, run_bits=256), cfg, dims)),
    ("T'", 65536, lambda q, plan, cfg, dims: (q, replace(plan, t_prime=65536), cfg, dims)),
]


class TestSerialize:
    def test_reference_params_614_bytes(self, rng):
        cfg = SSAEConfig(latent_channels=4, downs=3, bits=8)
        levels = rng.integers(0, 256, size=(4, 12, 12))
        plan = RefinementPlan.empty(144, 8, 4, 8)
        frame = serialize_frame(QuantizedLatent(levels, 8), plan, cfg, (96, 96, 8))
        assert len(frame) == 614
        assert frame_size_bits(cfg, (96, 96, 8), plan) == 4912

    def test_flag_section_bit_length(self):
        cfg = SSAEConfig(latent_channels=4, downs=3, bits=8)
        plan = RefinementPlan.empty(144, 8, 4, 8)
        # 144 flag bits -> 18 bytes between the latent and the end
        assert frame_size_bits(cfg, (96, 96, 8), None) - 160 - 576 * 8 == 144 + 0

    def test_flag_count_mismatch(self, rng):
        q, plan, cfg, dims = random_frame(rng, refine=False)
        plan.flags = np.zeros(plan.flags.size + 1, dtype=np.uint8)
        with pytest.raises(ValueError):
            serialize_frame(q, plan, cfg, dims)

    def test_latent_shape_mismatch(self, rng):
        q, plan, cfg, dims = random_frame(rng, refine=False)
        q.levels = q.levels[..., :-1] if q.levels.shape[-1] > 1 else np.zeros((9, 9, 9), int)
        with pytest.raises(ValueError):
            serialize_frame(q, plan, cfg, dims)

    @pytest.mark.parametrize("name, value, edit", WIDE_FIELDS, ids=[f[0] for f in WIDE_FIELDS])
    def test_header_field_too_wide_rejected(self, rng, name, value, edit):
        frame = edit(*random_frame(rng, refine=True))
        width = 16 if name in ("H", "W", "T'") else 8
        with pytest.raises(ValueError, match=f"^{name} = {value} does not fit its {width}-bit "):
            serialize_frame(*frame)

    def test_patch_not_dividing_extents_rejected(self, rng):
        # 20 rows are a multiple of 2^D = 4 but not of P = 8: parse_frame would reject the frame
        cfg = SSAEConfig(latent_channels=4, downs=2, bits=8)
        q = quantize(rng.random(cfg.latent_shape(20, 16)), 8)
        plan = RefinementPlan.empty(4, 8, 4, 8)
        with pytest.raises(ValueError, match=r"^P = 8 must be at least 1 and divide H = 20 "):
            serialize_frame(q, plan, cfg, (20, 16, 8))

    def test_zero_patch_size_rejected(self, rng):
        q, plan, cfg, (h, w, _) = random_frame(rng, refine=False)
        with pytest.raises(ValueError, match=r"^P = 0 must be at least 1 "):
            serialize_frame(q, plan, cfg, (h, w, 0))

    def test_rle_longer_than_header_field_rejected(self, rng):
        # 9216 refined pixels of noise: nearly every pixel starts a 12-bit record
        image = rng.random((3, 96, 96))
        mask = SemanticMask(mask=np.ones((96, 96)), mask3=np.ones((3, 96, 96)),
                            patch_weights=np.full(144, 0.01), patch_grid=(12, 12))
        plan = plan_refinement(image, image, mask, 1e-3, 1.0, 16, 8)
        cfg = SSAEConfig(latent_channels=4, downs=3, bits=8)
        q = quantize(rng.random(cfg.latent_shape(96, 96)), 8)
        with pytest.raises(ValueError, match=r"^RLE bit count = \d+ does not fit its 16-bit "):
            serialize_frame(q, plan, cfg, (96, 96, 8))


class TestRoundtrip:
    def test_randomized_roundtrips(self, rng):
        for _ in range(200):
            q, plan, cfg, dims = random_frame(rng)
            frame = serialize_frame(q, plan, cfg, dims)
            assert len(frame) * 8 == frame_size_bits(cfg, dims, plan)
            q2, plan2, dims2 = parse_frame(frame)
            assert dims2 == dims
            assert np.array_equal(q2.levels, q.levels)
            assert q2.bits == q.bits
            assert np.array_equal(plan2.flags, plan.flags)
            assert plan2.t_prime == plan.t_prime
            assert np.array_equal(plan2.rle_bits, plan.rle_bits)
            if plan.t_prime:
                assert np.array_equal(plan2.palette, plan.palette)
            assert serialize_frame(q2, plan2, cfg, dims) == frame

    @settings(max_examples=100, deadline=None)
    @given(valid_frames())
    def test_parse_inverts_serialize(self, args):
        frame = serialize_frame(*args)
        q2, plan2, dims2 = parse_frame(frame)
        assert dims2 == args[3]
        assert serialize_frame(q2, plan2, args[2], dims2) == frame

    def test_refinement_size_delta(self, rng):
        q, plan, cfg, dims = random_frame(rng, refine=True)
        base = frame_size_bits(cfg, dims, None)
        full = frame_size_bits(cfg, dims, plan)
        rle_padded = ((plan.rle_bits.size + 7) // 8) * 8
        assert full - base == plan.palette_size * 3 * 8 + 16 + rle_padded


class TestParseErrors:
    def test_bad_magic(self, rng):
        q, plan, cfg, dims = random_frame(rng, refine=False)
        frame = bytearray(serialize_frame(q, plan, cfg, dims))
        frame[0] = ord("X")
        with pytest.raises(UnsupportedFormatError):
            parse_frame(bytes(frame))

    def test_bad_version(self, rng):
        q, plan, cfg, dims = random_frame(rng, refine=False)
        frame = bytearray(serialize_frame(q, plan, cfg, dims))
        frame[4] = 99
        with pytest.raises(UnsupportedFormatError):
            parse_frame(bytes(frame))

    def test_truncated_latent(self, rng):
        q, plan, cfg, dims = random_frame(rng, refine=False)
        frame = serialize_frame(q, plan, cfg, dims)
        with pytest.raises(CorruptFrameError):
            parse_frame(frame[:-1])

    def test_short_header(self):
        with pytest.raises(CorruptFrameError):
            parse_frame(b"GSCF\x01")

    def test_payload_bit_flip_still_parses(self, rng):
        for _ in range(20):
            q, plan, cfg, dims = random_frame(rng)
            frame = bytearray(serialize_frame(q, plan, cfg, dims))
            latent_end = HEADER_BYTES + (q.levels.size * q.bits + 7) // 8
            pos = int(rng.integers(HEADER_BYTES, latent_end))
            frame[pos] ^= 1 << int(rng.integers(0, 8))
            q2, _, _ = parse_frame(bytes(frame))
            diff = (q2.levels != q.levels).sum()
            assert diff <= 1  # a single flipped bit changes at most one level

    def test_rle_count_exceeding_bytes(self, rng):
        q, plan, cfg, dims = random_frame(rng, refine=True)
        frame = bytearray(serialize_frame(q, plan, cfg, dims))
        # the u16 RLE bit count sits right after header+latent+flags+palette
        t = (dims[0] // dims[2]) * (dims[1] // dims[2])
        pos = (
            HEADER_BYTES
            + (q.levels.size * q.bits + 7) // 8
            + (t + 7) // 8
            + plan.palette_size * 3
        )
        frame[pos : pos + 2] = (65535).to_bytes(2, "little")
        with pytest.raises(CorruptFrameError):
            parse_frame(bytes(frame))


class TestBitHelpers:
    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=0, max_size=64))
    def test_bytes_bits_roundtrip(self, blob):
        assert bits_to_bytes(bytes_to_bits(blob)) == blob
