import csv
import hashlib
import io
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import psnr_oracle
from gscomm import autodiff as ad
from gscomm.autodiff import Parameter, Tensor
from gscomm.channel import CODECS, ChannelConfig
from gscomm.checkpoint import load_params, save_params
from gscomm.classifier import ClassifierModel, classify
from gscomm.datasets import (
    STL10_IMAGE_BYTES,
    load_stl10_binary,
    make_synthetic_example,
    read_ppm,
    synthetic_dataset,
    write_ppm,
)
from gscomm.distill import DistillConfig, MaskingNetwork
from gscomm.errors import DatasetFormatError, UndefinedMetricError
from gscomm.framing import bytes_to_bits, parse_frame
from gscomm.masking import SemanticMask, apply_mask
from gscomm.metrics import masked_psnr
from gscomm.pipeline import (
    PipelineModels,
    RefineParams,
    ReportRow,
    TrainBudget,
    receive,
    report,
    report_csv,
    run_end_to_end,
    sweep,
    transmit,
)
from gscomm.ssae import SSAE, SSAEConfig
from gscomm.vit import ViTConfig


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------


class TestSyntheticDataset:
    def test_shapes_and_labels(self):
        data = synthetic_dataset(4, 3, 32, seed=0)
        assert len(data) == 12
        assert sorted({ex.label for ex in data}) == [0, 1, 2, 3]
        for ex in data:
            assert ex.image.shape == (3, 32, 32)
            assert ex.fg_mask.shape == (32, 32)
            assert 0.0 <= ex.image.min() and ex.image.max() <= 1.0
            assert ex.fg_mask.sum() > 0

    def test_deterministic(self):
        a = synthetic_dataset(2, 2, 16, seed=7)
        b = synthetic_dataset(2, 2, 16, seed=7)
        for xa, xb in zip(a, b):
            assert np.array_equal(xa.image, xb.image)
            assert np.array_equal(xa.fg_mask, xb.fg_mask)

    @pytest.mark.parametrize("num_classes", [0, 5, 6])
    def test_num_classes_outside_the_shapes_rejected(self, num_classes):
        # a fifth class would reuse the first class's shape
        message = re.escape(f"num_classes must lie in [1, 4], got {num_classes}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            synthetic_dataset(num_classes, 1, 16, seed=0)

    @pytest.mark.parametrize("label", [-1, 4])
    def test_label_outside_the_shapes_rejected(self, label):
        message = re.escape(f"label must lie in [0, 4), got {label}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_synthetic_example(label, 16, np.random.default_rng(0))

    def test_foreground_not_flat(self):
        # gradient shading means masked pixels are not a constant
        ex = make_synthetic_example(0, 32, np.random.default_rng(3))
        fg = ex.image[:, ex.fg_mask > 0]
        assert fg.std() > 0.01


class TestStl10Binary:
    def test_roundtrip_layout(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=2 * STL10_IMAGE_BYTES, dtype=np.uint8)
        p = tmp_path / "imgs.bin"
        p.write_bytes(raw.tobytes())
        images = load_stl10_binary(p, limit=2)
        assert len(images) == 2
        assert images[0].shape == (3, 96, 96)
        # channel-major, column-major planes: byte k of image 0 is
        # channel k // (96*96), column (k % 9216) // 96, row k % 96.
        plane = raw[:9216].reshape(96, 96)  # (col, row)
        assert np.allclose(images[0][0], plane.T / 255.0)

    def test_equals_a_record_by_record_read(self, tmp_path):
        raw = np.random.default_rng(1).integers(0, 256, size=3 * STL10_IMAGE_BYTES,
                                                dtype=np.uint8)
        p = tmp_path / "imgs.bin"
        p.write_bytes(raw.tobytes())
        for limit in (3, 2):
            images = load_stl10_binary(p, limit=limit)
            assert len(images) == (limit or 3)
            for i, image in enumerate(images):
                record = raw[i * STL10_IMAGE_BYTES : (i + 1) * STL10_IMAGE_BYTES]
                want = record.reshape(3, 96, 96).transpose(0, 2, 1).astype(np.float64) / 255.0
                assert image.tobytes() == want.tobytes()

    def test_trailing_bytes_error(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * (STL10_IMAGE_BYTES + 5))
        with pytest.raises(DatasetFormatError) as exc:
            load_stl10_binary(p, limit=1)
        assert exc.value.offset == STL10_IMAGE_BYTES

    def test_limit(self, tmp_path):
        p = tmp_path / "three.bin"
        p.write_bytes(b"\x10" * (3 * STL10_IMAGE_BYTES))
        assert len(load_stl10_binary(p, limit=2)) == 2


class TestPpm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(3, 5, 7)).astype(np.float64) / 255.0
        p = tmp_path / "x.ppm"
        write_ppm(p, image)
        back = read_ppm(p)
        assert back.shape == (3, 5, 7)
        assert np.allclose(back, image)

    def test_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6 # hello\n# another comment\n2 1\n255\n" + bytes(6))
        image = read_ppm(p)
        assert image.shape == (3, 1, 2)
        assert np.all(image == 0)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(DatasetFormatError):
            read_ppm(p)

    def test_thousands_of_comment_lines(self, tmp_path):
        # netpbm allows any number of header comments
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n" + b"# comment\n" * 3000 + b"2 1\n255\n" + bytes(range(6)))
        image = read_ppm(p)
        assert np.array_equal(image[:, 0, 1] * 255.0, [3.0, 4.0, 5.0])

    @pytest.mark.parametrize("header, what, offset", [
        (b"P6\nx 2\n255\n", "width b'x'", 3),
        (b"P6\n2 2.5\n255\n", "height b'2.5'", 5),
        (b"P6\n2 2\nabc\n", "maxval b'abc'", 7),
    ])
    def test_non_numeric_header_token(self, tmp_path, header, what, offset):
        p = tmp_path / "bad.ppm"
        p.write_bytes(header + bytes(12))
        message = re.escape(f"PPM {what} is not an integer")
        with pytest.raises(DatasetFormatError, match=message) as exc:
            read_ppm(p)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("extents", [b"0 4", b"4 0", b"-2 4", b"4 -1"])
    def test_empty_or_negative_extents(self, tmp_path, extents):
        p = tmp_path / "empty.ppm"
        p.write_bytes(b"P6\n" + extents + b"\n255\n" + bytes(48))
        with pytest.raises(DatasetFormatError, match="must be at least 1x1"):
            read_ppm(p)


# ---------------------------------------------------------------------------
# masked PSNR
# ---------------------------------------------------------------------------


class TestMaskedPsnr:
    def test_matches_oracle(self, rng):
        for _ in range(25):
            a = rng.random((3, 6, 8))
            b = rng.random((3, 6, 8))
            m = (rng.random((6, 8)) < 0.6).astype(np.float64)
            if m.sum() == 0:
                m[0, 0] = 1.0
            got = masked_psnr(a, b, m)
            want = psnr_oracle(a, b, m)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_exact_match_infinite(self, rng):
        a = rng.random((3, 4, 4))
        assert masked_psnr(a, a.copy(), np.ones((4, 4))) == math.inf

    def test_known_value(self):
        a = np.zeros((3, 2, 2))
        b = np.full((3, 2, 2), 0.01)
        assert abs(masked_psnr(a, b, np.ones((2, 2))) - 40.0) < 1e-9

    def test_zero_mask_undefined(self, rng):
        with pytest.raises(UndefinedMetricError):
            masked_psnr(rng.random((3, 4, 4)), rng.random((3, 4, 4)), np.zeros((4, 4)))

    def test_accepts_semantic_mask(self, rng):
        a = rng.random((3, 4, 4))
        b = rng.random((3, 4, 4))
        m = SemanticMask(mask=np.ones((4, 4)), patch_weights=np.zeros((1, 1)))
        assert masked_psnr(a, b, m) == pytest.approx(masked_psnr(a, b, np.ones((4, 4))))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("batch_size", [0, -1])
def test_train_budget_batch_size_below_one(batch_size):
    with pytest.raises(ValueError, match=f"batch_size must be at least 1, got {batch_size}"):
        TrainBudget(batch_size=batch_size)


@pytest.mark.parametrize("field, value, message", [
    ("distill_steps", -1, "distill_steps must be at least 0, got -1"),
    ("ssae_steps", -3, "ssae_steps must be at least 0, got -3"),
    ("finetune_steps", -1, "finetune_steps must be at least 0, got -1"),
    ("distill_lr", 0.0, "distill_lr must be positive, got 0.0"),
    ("ssae_lr", -0.5, "ssae_lr must be positive, got -0.5"),
    ("finetune_lr", math.nan, "finetune_lr must be positive, got nan"),
    ("distill_lr", math.inf, "distill_lr must be finite, got inf"),
    ("ssae_lr", math.inf, "ssae_lr must be finite, got inf"),
    ("finetune_lr", math.inf, "finetune_lr must be finite, got inf"),
])
def test_train_budget_rejects_negative_steps_and_non_positive_lr(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainBudget(**{field: value})


def test_refine_params_rejects_nan_psi():
    with pytest.raises(ValueError, match="^psi must be a number, got nan$"):
        RefineParams(psi=math.nan)


@pytest.mark.parametrize("model", [
    lambda vit: MaskingNetwork(vit, DistillConfig(proj_dim=8), rng=np.random.default_rng(0)),
    lambda vit: ClassifierModel(vit, 2, rng=np.random.default_rng(0)),
    lambda vit: SSAE(SSAEConfig(latent_channels=4, downs=1, bits=8, stem_channels=8),
                     rng=np.random.default_rng(0)),
], ids=["masker", "classifier", "ssae"])
def test_parameters_are_tensors_and_sgd_moves_only_learnable_ones(model):
    params = model(ViTConfig(patch_size=8, dim=16, blocks=1, heads=2, img_h=16, img_w=16)).params
    for name, p in params.items():
        assert isinstance(p, Tensor)
        # only the SSAE's batchnorm running statistics are not learnable
        assert p.requires_grad is not name.startswith("bn.")
        p.grad = np.ones_like(p.data)
    before = {k: p.data.copy() for k, p in params.items()}
    ad.sgd_step(params.values(), lr=0.1)
    for k, p in params.items():
        assert np.array_equal(p.data, before[k] - 0.1) is p.requires_grad
        assert np.array_equal(p.data, before[k]) is not p.requires_grad


class TestCheckpoint:
    @pytest.fixture
    def saved(self, tmp_path):
        """(checkpoint path, the saved params, a differently seeded target dict)."""
        vit = ViTConfig(patch_size=8, dim=16, blocks=1, heads=2, img_h=16, img_w=16)
        net = MaskingNetwork(vit, DistillConfig(proj_dim=8), rng=np.random.default_rng(0))
        path = tmp_path / "net.ckpt"
        save_params(path, net.params)
        other = MaskingNetwork(vit, DistillConfig(proj_dim=8), rng=np.random.default_rng(9))
        return path, net.params, other.params

    def test_roundtrip_and_checksum(self, saved):
        path, params, target = saved
        load_params(path, target)
        for k in params:
            assert np.allclose(target[k].data, params[k].data, atol=1e-6)
            # values are stored as float32, so a load gives back exactly the rounded values
            assert np.array_equal(target[k].data, params[k].data.astype("<f4"))

    @pytest.mark.parametrize("model, size, sha256", [
        (lambda: MaskingNetwork(ViTConfig(), DistillConfig(), rng=np.random.default_rng(0)),
         151_996, "10ab3d70b36b01983b834dd3e804dba83dd536ce1f61d7e1cdcc852197087b51"),
        (lambda: ClassifierModel(ViTConfig(), 4, rng=np.random.default_rng(0)),
         127_348, "2c640db948708daa6bc84e42d1063020464e41274622c970334bc4fddc3dc7a2"),
    ], ids=["masker", "classifier"])
    def test_untrained_layout(self, tmp_path, model, size, sha256):
        # pins the parameter names, order, shapes and initial draws of both ViT models
        path = tmp_path / "model.ckpt"
        save_params(path, model().params)
        blob = path.read_bytes()
        assert len(blob) == size
        assert hashlib.sha256(blob).hexdigest() == sha256

    @staticmethod
    def _rejected_unchanged(path, target, match):
        before = {k: p.data.copy() for k, p in target.items()}
        with pytest.raises(DatasetFormatError, match=match):
            load_params(path, target)
        for k, p in target.items():
            assert np.array_equal(p.data, before[k])

    def test_missing_tensor_rejected(self, tmp_path, saved):
        _, params, target = saved
        short = tmp_path / "short.ckpt"
        save_params(short, {k: p for k, p in params.items() if k != "head.b2"})
        self._rejected_unchanged(short, target, "checkpoint lacks tensor 'head.b2'")

    @pytest.mark.parametrize("old, new, match", [
        (b"patch_embed.kernel:", "pätch_embed.kernel:".encode(), "manifest is not ASCII"),
        (b"kernel:16,3,8,8", b"kernel:16,3,8,x", "bad shape '16,3,8,x'"),
        (b"kernel:16,3,8,8", b"kernel:-16,3,-8,8", "bad shape '-16,3,-8,8'"),
    ], ids=["non-ascii", "non-integer", "negative"])
    def test_malformed_manifest_rejected(self, tmp_path, saved, old, new, match):
        path, _, target = saved
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(path.read_bytes().replace(old, new, 1))
        self._rejected_unchanged(bad, target, match)

    def test_repeated_tensor_rejected(self, tmp_path):
        # 7 floats fill a:2 a:2 b:3 exactly, so only the repeated name is wrong
        path = tmp_path / "twice.ckpt"
        path.write_bytes(b"a:2 a:2 b:3\n" + np.arange(7.0).astype("<f4").tobytes())
        target = {"a": Parameter(np.full(2, -1.0)), "b": Parameter(np.full(3, -2.0))}
        self._rejected_unchanged(path, target, "tensor 'a' appears twice in checkpoint")

    def test_trailing_bytes_rejected(self, saved):
        path, _, target = saved
        with open(path, "ab") as fh:
            fh.write(bytes(4))
        self._rejected_unchanged(path, target, "trailing bytes after the last tensor")


# ---------------------------------------------------------------------------
# end-to-end
# ---------------------------------------------------------------------------


@dataclass
class FlipBit(ChannelConfig):
    """A channel that flips fixed bit positions (an index or a list) whatever the seed."""

    bit: int = 0

    def apply(self, bits):
        out = np.asarray(bits, dtype=np.uint8).copy()
        out[self.bit] ^= 1
        return out


@pytest.fixture(scope="module")
def small_models():
    vit = ViTConfig(patch_size=8, dim=16, blocks=1, heads=2, img_h=32, img_w=32)
    masker = MaskingNetwork(vit, DistillConfig(proj_dim=8), rng=np.random.default_rng(0))
    ssae = SSAE(SSAEConfig(latent_channels=4, downs=2, bits=8, stem_channels=8),
                rng=np.random.default_rng(1))
    clf = ClassifierModel(vit, num_classes=2, rng=np.random.default_rng(2))
    return PipelineModels(masker=masker, ssae=ssae, classifier=clf)


class TestRunEndToEnd:
    def test_noiseless_matches_local_decode(self, small_models, rng):
        image = rng.random((3, 32, 32))
        channel = ChannelConfig(mode="bsc_ber", ber=0.0, seed=0)
        refine = RefineParams()
        recon, pred, row = run_end_to_end(image, small_models, refine, channel, label=1, seed=5)
        assert row.failure == ""
        assert row.measured_ber == 0.0
        assert pred is not None and pred.probs.shape == (2,)

        # reproduce the receiver output locally without a channel
        mask = small_models.masker.semantic_mask(image)
        masked = apply_mask(image, mask)
        _, q = small_models.ssae.encode_quantize(masked)
        local = small_models.ssae.decode(q)
        from gscomm.ssae import apply_refinement, plan_refinement

        plan = plan_refinement(masked, local, mask, refine.psi, refine.eta,
                               refine.palette_size, refine.run_bits, seed=5)
        expected = apply_refinement(local, plan)
        assert np.array_equal(recon, expected)

        # and bit for bit what transmit, then receive give
        frame, mask = transmit(image, small_models, refine, seed=5)
        want = receive(frame, small_models.ssae)
        want_pred = classify(want, small_models.classifier)
        assert recon.tobytes() == want.tobytes()
        assert pred.probs.tobytes() == want_pred.probs.tobytes()
        assert row == ReportRow(8 * len(frame), 0.0, masked_psnr(image, want, mask),
                                float(want_pred.label == 1), float(mask.mask.mean()))

    def test_intact_frame_skips_the_receiver(self, small_models, rng, monkeypatch):
        image = rng.random((3, 32, 32))
        refine = RefineParams(psi=0.0, eta=1.0)
        frame, mask = transmit(image, small_models, refine, seed=4)

        def expected_row(recon, ber):
            pred = classify(recon, small_models.classifier)
            return ReportRow(8 * len(frame), ber, masked_psnr(image, recon, mask),
                             float(pred.label == 1), float(mask.mask.mean()))

        # at BER 0 the frame arrives byte for byte, and the receiver is not called
        want = receive(frame, small_models.ssae)
        with monkeypatch.context() as m:
            m.setattr("gscomm.pipeline.receive", lambda *a: pytest.fail("receive called"))
            recon, _, row = run_end_to_end(image, small_models, refine, ChannelConfig(),
                                           label=1, seed=4)
        assert recon.tobytes() == want.tobytes()
        assert row == expected_row(want, 0.0)

        # a flipped bit in the first palette byte: the receiver parses the damaged bytes
        plan = parse_frame(frame)[1]
        assert plan.t_prime > 0
        at = len(frame) - 2 - (plan.rle_bits.size + 7) // 8 - 3 * plan.palette_size
        damaged = bytearray(frame)
        damaged[at] ^= 0x80
        recon, _, row = run_end_to_end(image, small_models, refine, FlipBit(bit=8 * at),
                                       label=1, seed=4)
        damaged_recon = receive(bytes(damaged), small_models.ssae)
        assert damaged_recon.tobytes() != want.tobytes()
        assert recon.tobytes() == damaged_recon.tobytes()
        assert row == expected_row(damaged_recon, 1 / (8 * len(frame)))

    def test_deterministic(self, small_models, rng):
        image = rng.random((3, 32, 32))
        channel = ChannelConfig(mode="bsc_ber", ber=0.02, seed=3)
        refine = RefineParams()
        a = run_end_to_end(image, small_models, refine, channel, label=1, seed=11)
        b = run_end_to_end(image, small_models, refine, channel, label=1, seed=11)
        assert a[2] == b[2]
        if a[0] is not None:
            assert np.array_equal(a[0], b[0])

    def test_heavy_noise_reports_failure_or_degrades(self, small_models, rng):
        image = rng.random((3, 32, 32))
        channel = ChannelConfig(mode="bsc_ber", ber=0.4, seed=1)
        _, _, row = run_end_to_end(image, small_models, RefineParams(), channel, seed=2)
        assert row.measured_ber > 0.3
        assert row.failure != "" or row.masked_psnr_db < 30

    def test_awgn_path(self, small_models, rng):
        image = rng.random((3, 32, 32))
        channel = ChannelConfig(mode="awgn_snr_db", snr_db=10.0, seed=4)
        _, _, row = run_end_to_end(image, small_models, RefineParams(), channel, seed=6)
        assert row.payload_bits % 8 == 0

    def test_fec_repetition(self, small_models, rng):
        image = rng.random((3, 32, 32))
        models = PipelineModels(
            masker=small_models.masker, ssae=small_models.ssae,
            classifier=small_models.classifier, fec=CODECS["repetition3"],
        )
        channel = ChannelConfig(mode="bsc_ber", ber=0.01, seed=9)
        _, _, row = run_end_to_end(image, models, RefineParams(), channel, seed=7)
        # residual BER after majority vote at p=0.01 is ~3e-4
        assert row.measured_ber < 0.005


class TestReportAndSweep:
    def test_report_csv_schema(self, small_models, rng):
        image = rng.random((3, 32, 32))
        channel = ChannelConfig(mode="bsc_ber", ber=0.0, seed=0)
        _, _, row = run_end_to_end(image, small_models, RefineParams(), channel, seed=0)
        csv = report_csv([row])
        lines = csv.strip().split("\n")
        assert lines[0].startswith("payload_bits,measured_ber")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(lines[0].split(","))

    def test_report_csv_quotes_a_failure_holding_a_comma(self, small_models, rng):
        # five flipped bits turn the magic's "G" into ","
        flips = np.flatnonzero(bytes_to_bits(bytes([ord("G") ^ ord(",")])))
        _, _, row = run_end_to_end(rng.random((3, 32, 32)), small_models, RefineParams(),
                                   FlipBit(bit=list(flips)), seed=0)
        assert row.failure == "bad magic b',SCF'"
        header, line = csv.reader(io.StringIO(report_csv([row])))
        assert len(header) == len(line) == 6
        assert line[-1] == row.failure

    def test_sweep_rows_and_determinism(self, small_models, rng):
        examples = [(rng.random((3, 32, 32)), i % 2) for i in range(2)]
        grid = [0.0, 0.01]
        rows_a, csv_a = sweep(examples, grid, small_models, RefineParams(),
                              replicates=2, base_seed=42)
        rows_b, csv_b = sweep(examples, grid, small_models, RefineParams(),
                              replicates=2, base_seed=42)
        assert len(rows_a) == 4
        assert csv_a == csv_b
        zero = [r for r in rows_a if r["grid_value"] == 0.0]
        assert all(r["failures"] == 0 for r in zero)

    def test_report_rows_use_consecutive_seeds_and_sweep_averages_them(self, small_models,
                                                                         rng):
        examples = [(rng.random((3, 32, 32)), i % 2) for i in range(3)]
        channel = ChannelConfig(mode="bsc_ber", ber=0.001, seed=0)
        rows = report(examples, small_models, RefineParams(), channel, base_seed=5)
        expected = [
            run_end_to_end(image, small_models, RefineParams(), channel, label=label,
                           seed=5 + i)[2]
            for i, (image, label) in enumerate(examples)
        ]
        assert report_csv(rows) == report_csv(expected)

        (point,), _ = sweep(examples, [0.001], small_models, RefineParams(), base_seed=5)
        delivered = [r.payload_bits for r in rows if not r.failure]
        assert 0 < len(delivered) < len(rows)  # this seed mixes delivered and failed frames
        assert point["failures"] == len(rows) - len(delivered)
        assert point["mean_payload_bits"] == pytest.approx(np.mean(delivered))

    def test_empty_grid(self, small_models):
        with pytest.raises(ValueError):
            sweep([], [], small_models, RefineParams())

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_replicates_below_one(self, small_models, rng, replicates):
        examples = [(rng.random((3, 32, 32)), 0)]
        with pytest.raises(ValueError, match=f"replicates must be at least 1, got {replicates}"):
            sweep(examples, [0.0], small_models, RefineParams(), replicates=replicates)

    def test_unknown_mode_raises(self, small_models, rng):
        examples = [(rng.random((3, 32, 32)), 0)]
        with pytest.raises(ValueError, match="unknown channel mode 'bsc'"):
            sweep(examples, [0.01], small_models, RefineParams(), mode="bsc")

    def test_awgn_mode_rejects_nan_snr(self, small_models, rng):
        examples = [(rng.random((3, 32, 32)), 0)]
        with pytest.raises(ValueError, match="^snr_db must be a number, got nan$"):
            sweep(examples, [math.nan], small_models, RefineParams(), mode="awgn_snr_db")

    def test_awgn_mode_uses_grid_as_snr(self, small_models, rng):
        examples = [(rng.random((3, 32, 32)), 0)]
        rows, _ = sweep(examples, [100.0], small_models, RefineParams(),
                        mode="awgn_snr_db")
        assert rows[0]["failures"] == 0  # 100 dB: no bit errors, so no rejected frame
