"""Channel simulation: BPSK over AWGN, direct bit-error injection, a
pluggable FEC contract with identity/repetition-3 codecs, and BER measurement.

All randomness is Box-Muller / inverse sampling on a Philox counter-based
generator, so seeded runs reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _gaussian(rng, n):
    """Standard normal draws via Box-Muller."""
    u1 = 1.0 - rng.random(n)  # (0, 1]
    u2 = rng.random(n)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def transmit_awgn(bits, snr_db, seed):
    """BPSK over AWGN with hard decisions.

    Unit-energy symbols; the complex noise variance is 10^(-snr_db/10), of
    which the in-phase (decision) component carries half, so the expected
    BER is Q(sqrt(2 * 10^(snr_db/10))). An infinite snr_db is a noiseless channel;
    a NaN one would decide every bit 0, so it raises ValueError.
    """
    if np.isnan(snr_db):
        raise ValueError(f"snr_db must be a number, got {snr_db}")
    bits = np.asarray(bits, dtype=np.uint8)
    symbols = 1.0 - 2.0 * bits.astype(np.float64)
    sigma2 = 10.0 ** (-snr_db / 10.0)
    noise = np.sqrt(sigma2 / 2.0) * _gaussian(_rng(seed), bits.size)
    received = symbols + noise
    return (received < 0).astype(np.uint8)  # ties (y == 0) decide +1 -> bit 0


def inject_bsc(bits, ber, seed):
    """Flip each bit independently with probability `ber`."""
    if not 0.0 <= ber <= 0.5:
        raise ValueError("ber must lie in [0, 0.5]")
    bits = np.asarray(bits, dtype=np.uint8)
    if ber == 0.0:
        return bits.copy()  # no draw can fall below 0
    flips = (_rng(seed).random(bits.size) < ber).astype(np.uint8)
    return bits ^ flips


def measure_ber(sent, received):
    sent = np.asarray(sent, dtype=np.uint8)
    received = np.asarray(received, dtype=np.uint8)
    if sent.shape != received.shape:
        raise ValueError("bit streams must have equal length")
    return float((sent ^ received).mean())


class IdentityCodec:
    """Rate-1 passthrough; the seat for a real FEC code."""

    rate = 1.0
    name = "identity"

    def encode(self, bits):
        return np.asarray(bits, dtype=np.uint8).copy()

    def decode(self, bits):
        return np.asarray(bits, dtype=np.uint8).copy()


class Repetition3Codec:
    """Rate-1/3 repetition with majority decoding; corrects 1 flip per group."""

    rate = 1.0 / 3.0
    name = "repetition3"

    def encode(self, bits):
        return np.repeat(np.asarray(bits, dtype=np.uint8), 3)

    def decode(self, bits):
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.size % 3:
            raise ValueError("repetition-3 decode requires length divisible by 3")
        return (bits.reshape(-1, 3).sum(axis=1) >= 2).astype(np.uint8)


CODECS = {c.name: c for c in (IdentityCodec(), Repetition3Codec())}


@dataclass
class ChannelConfig:
    mode: str = "bsc_ber"  # "awgn_snr_db" or "bsc_ber"
    snr_db: float = 20.0
    ber: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("awgn_snr_db", "bsc_ber"):
            raise ValueError(f"unknown channel mode {self.mode!r}")

    def apply(self, bits):
        if self.mode == "awgn_snr_db":
            return transmit_awgn(bits, self.snr_db, self.seed)
        return inject_bsc(bits, self.ber, self.seed)

    def send(self, bits, fec):
        """The channel step between transmitter and receiver: FEC encode, this
        channel, FEC decode."""
        return fec.decode(self.apply(fec.encode(bits)))
