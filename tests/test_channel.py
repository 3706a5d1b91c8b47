import math

import numpy as np
import pytest

from gscomm.channel import (
    CODECS,
    ChannelConfig,
    inject_bsc,
    measure_ber,
    transmit_awgn,
)


def q_function(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class TestAwgn:
    def test_noiseless_limit(self, rng):
        bits = rng.integers(0, 2, 1000).astype(np.uint8)
        for snr_db in (200.0, math.inf):
            assert np.array_equal(transmit_awgn(bits, snr_db=snr_db, seed=1), bits)

    def test_ber_matches_q_function(self, rng):
        bits = rng.integers(0, 2, 200_000).astype(np.uint8)
        for snr_db in (0.0, 6.0):
            snr = 10 ** (snr_db / 10)
            expected = q_function(math.sqrt(2 * snr))
            received = transmit_awgn(bits, snr_db, seed=3)
            ber = measure_ber(bits, received)
            sigma = math.sqrt(expected * (1 - expected) / bits.size)
            assert abs(ber - expected) < 4 * sigma

    def test_nan_snr_rejected(self, rng):
        # a NaN noise sample decides every bit 0
        bits = rng.integers(0, 2, 1000).astype(np.uint8)
        with pytest.raises(ValueError, match="^snr_db must be a number, got nan$"):
            transmit_awgn(bits, math.nan, seed=1)

    def test_deterministic(self, rng):
        bits = rng.integers(0, 2, 5000).astype(np.uint8)
        a = transmit_awgn(bits, 3.0, seed=42)
        b = transmit_awgn(bits, 3.0, seed=42)
        assert np.array_equal(a, b)


class TestBsc:
    def test_zero_ber_identity(self, rng):
        bits = rng.integers(0, 2, 1000).astype(np.uint8)
        out = inject_bsc(bits, 0.0, seed=0)
        assert np.array_equal(out, bits)
        # a copy: writing to it leaves the input as it was
        kept = bits.copy()
        out ^= 1
        assert np.array_equal(bits, kept)

    def test_half_ber_statistics(self, rng):
        bits = rng.integers(0, 2, 200_000).astype(np.uint8)
        ber = measure_ber(bits, inject_bsc(bits, 0.5, seed=5))
        sigma = math.sqrt(0.25 / bits.size)
        assert abs(ber - 0.5) < 4 * sigma

    def test_out_of_range(self, rng):
        with pytest.raises(ValueError):
            inject_bsc(np.zeros(4, dtype=np.uint8), 0.6, seed=0)

    def test_deterministic(self, rng):
        bits = rng.integers(0, 2, 5000).astype(np.uint8)
        assert np.array_equal(inject_bsc(bits, 0.1, seed=9), inject_bsc(bits, 0.1, seed=9))


class TestMeasureBer:
    def test_identical(self):
        assert measure_ber(np.zeros(10, np.uint8), np.zeros(10, np.uint8)) == 0.0

    def test_complement(self):
        bits = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert measure_ber(bits, 1 - bits) == 1.0

    def test_single_flip(self):
        bits = np.zeros(1000, dtype=np.uint8)
        received = bits.copy()
        received[123] = 1
        assert measure_ber(bits, received) == pytest.approx(0.001)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            measure_ber(np.zeros(3, np.uint8), np.zeros(4, np.uint8))


class TestFec:
    def test_repetition_expand_and_majority(self):
        rep = CODECS["repetition3"]
        assert np.array_equal(rep.encode(np.array([1], np.uint8)), [1, 1, 1])
        assert np.array_equal(rep.decode(np.array([1, 1, 0], np.uint8)), [1])

    def test_identity_roundtrip(self, rng):
        bits = rng.integers(0, 2, 100).astype(np.uint8)
        ident = CODECS["identity"]
        assert np.array_equal(ident.decode(ident.encode(bits)), bits)

    def test_all_codecs_roundtrip_error_free(self, rng):
        bits = rng.integers(0, 2, 300).astype(np.uint8)
        for codec in CODECS.values():
            assert np.array_equal(codec.decode(codec.encode(bits)), bits)

    def test_repetition_length_violation(self):
        with pytest.raises(ValueError):
            CODECS["repetition3"].decode(np.zeros(4, np.uint8))

    def test_repetition_residual_ber(self, rng):
        p = 0.1
        n = 100_000
        bits = rng.integers(0, 2, n).astype(np.uint8)
        rep = CODECS["repetition3"]
        received = rep.decode(inject_bsc(rep.encode(bits), p, seed=11))
        expected = 3 * p**2 - 2 * p**3
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(measure_ber(bits, received) - expected) < 4 * sigma


class TestChannelConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(mode="qam")

    def test_dispatch(self, rng):
        bits = rng.integers(0, 2, 100).astype(np.uint8)
        cfg = ChannelConfig(mode="bsc_ber", ber=0.0, seed=0)
        assert np.array_equal(cfg.apply(bits), bits)
        cfg = ChannelConfig(mode="awgn_snr_db", snr_db=200.0, seed=0)
        assert np.array_equal(cfg.apply(bits), bits)
