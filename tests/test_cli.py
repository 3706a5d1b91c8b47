import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gscomm.channel import ChannelConfig
from gscomm.cli import _models, main, parse_config, read_config
from gscomm.datasets import STL10_IMAGE_BYTES, read_ppm, write_ppm
from gscomm.distill import DistillConfig
from gscomm.framing import parse_frame
from gscomm.pipeline import RefineParams, TrainBudget, receive, run_end_to_end, transmit
from gscomm.ssae import SSAEConfig
from gscomm.vit import ViTConfig

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "# desk-scale settings\n"
        "patch_size = 8\n"
        "dim = 16\n"
        "blocks = 1\n"
        "heads = 2\n"
        "img_h = 16\n"
        "img_w = 16\n"
        "proj_dim = 8\n"
        "masked_patches = 2\n"
        "downs = 2\n"
        "stem_channels = 8\n"
        "num_classes = 2\n"
        "images_per_class = 3\n"
        "distill_steps = 2\n"
        "ssae_steps = 3\n"
        "finetune_steps = 2\n"
        "batch_size = 2\n"
    )
    return path


def test_parse_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("a = 1  # trailing\n\n# full-line comment\nb=x y\n")
    assert parse_config(path) == {"a": "1", "b": "x y"}
    assert parse_config(None) == {}


def test_parse_config_rejects_line_without_equals(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("dim = 16\n\npatch_size 4  # missing '='\n")
    message = f"{path}:3: expected key = value, got 'patch_size 4'"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(path)


# Every key the README documents for a library dataclass, each at a non-default value.
DOCUMENTED = {
    "patch_size": "4", "dim": "24", "blocks": "3", "heads": "6", "img_h": "24", "img_w": "12",
    "rho": "0.01",
    "epsilon": "0.3", "proj_dim": "9", "masked_patches": "7", "xi_lo": "0.8", "xi_hi": "1.2",
    "latent_channels": "5", "downs": "1", "bits": "6", "stem_channels": "12",
    "psi": "0.02", "eta": "0.25", "palette_size": "5", "run_bits": "3",
    "distill_steps": "11", "distill_lr": "0.125", "ssae_steps": "12", "ssae_lr": "0.5",
    "finetune_steps": "13", "finetune_lr": "0.0625", "batch_size": "3",
}
WRITTEN = [
    ViTConfig(patch_size=4, dim=24, blocks=3, heads=6, img_h=24, img_w=12),
    DistillConfig(epsilon=0.3, proj_dim=9, masked_patches=7, xi_lo=0.8, xi_hi=1.2, rho=0.01),
    SSAEConfig(latent_channels=5, downs=1, bits=6, stem_channels=12),
    RefineParams(psi=0.02, eta=0.25, palette_size=5, run_bits=3),
    TrainBudget(distill_steps=11, distill_lr=0.125, ssae_steps=12, ssae_lr=0.5,
                finetune_steps=13, finetune_lr=0.0625, batch_size=3),
]


@pytest.mark.parametrize("written", WRITTEN, ids=lambda w: type(w).__name__)
def test_read_config_sets_exactly_the_documented_keys(written):
    cls = type(written)
    assert read_config(cls, {}) == cls()
    # the keys of every class are present; each class reads exactly its own fields
    got = read_config(cls, DOCUMENTED)
    assert vars(got) == vars(written)
    assert {k: type(v) for k, v in vars(got).items()} == {
        k: type(v) for k, v in vars(written).items()
    }


def test_documented_keys_are_the_dataclass_fields():
    assert set(DOCUMENTED) == {f.name for written in WRITTEN for f in fields(written)}


def _readme_key_table():
    """README's CLI key table as {key: its documented default, or None when a row
    does not give one default per key}."""
    table = {}
    for line in README.read_text().split("| key | default | meaning |\n", 1)[1].splitlines()[1:]:
        if not line.startswith("|"):
            break
        keys_cell, default_cell = line.split("|")[1:3]
        keys = re.findall(r"\w+", keys_cell)
        defaults = [d.strip() for d in default_cell.split(",")]
        table.update(zip(keys, defaults if len(defaults) == len(keys) else [None] * len(keys)))
    return table


@pytest.mark.parametrize("cls", [type(w) for w in WRITTEN], ids=lambda c: c.__name__)
def test_readme_key_table_lists_every_field(cls):
    table = _readme_key_table()
    for f in fields(cls):
        assert f.name in table, f"README's key table lacks {f.name}"
        assert table[f.name] is not None, f"README's key table gives no default for {f.name}"
        assert type(f.default)(table[f.name]) == f.default, f.name


def test_readme_cli_block_names_every_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    registered = set(re.search(r"\{([\w,-]+)\}", capsys.readouterr().out)[1].split(","))
    cli_block = README.read_text().split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"^gscomm ([\w-]+)", cli_block, re.M)) == registered


def test_readme_holds_one_python_example():
    # CI concatenates every python block of the README and runs the result
    assert README.read_text().splitlines().count("```python") == 1


def test_train_ssae_and_codec_roundtrip(tmp_path, tiny_config, capsys):
    ckpt = tmp_path / "ssae.ckpt"
    main(["train-ssae", "--config", str(tiny_config), "--out", str(ckpt), "--seed", "0"])
    assert ckpt.exists()

    image = np.random.default_rng(0).random((3, 16, 16))
    ppm = tmp_path / "in.ppm"
    write_ppm(ppm, image)

    frame = tmp_path / "x.gscf"
    mask_out = tmp_path / "mask.pbm"
    cfg2 = tmp_path / "enc.cfg"
    cfg2.write_text(tiny_config.read_text() + f"ssae_ckpt = {ckpt}\n")
    main(["encode", "--config", str(cfg2), "--in", str(ppm), "--out", str(frame),
          "--mask-out", str(mask_out)])
    assert frame.read_bytes()[:4] == b"GSCF"
    assert mask_out.read_bytes().startswith(b"P1")

    # noiseless transmit is the identity on the frame
    out_frame = tmp_path / "rx.gscf"
    main(["transmit", "--in", str(frame), "--out", str(out_frame), "--ber", "0"])
    assert out_frame.read_bytes() == frame.read_bytes()

    ppm_out = tmp_path / "out.ppm"
    main(["decode", "--config", str(cfg2), "--in", str(out_frame), "--out", str(ppm_out)])
    recon = read_ppm(ppm_out)
    assert recon.shape == (3, 16, 16)
    assert 0.0 <= recon.min() and recon.max() <= 1.0

    out = capsys.readouterr().out
    assert "wrote" in out


def test_transmit_rejects_ber_with_snr_db(tmp_path, capsys):
    frame = tmp_path / "x.gscf"
    frame.write_bytes(b"GSCF")
    out = tmp_path / "rx.gscf"
    with pytest.raises(SystemExit) as exit_info:
        main(["transmit", "--in", str(frame), "--out", str(out), "--ber", "0.2", "--snr-db", "40"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, value, message", [
    ("--snr-db", "nan", "must be a number, got nan"),
    ("--ber", "nan", "must lie in [0, 0.5], got nan"),
    ("--ber", "0.7", "must lie in [0, 0.5], got 0.7"),
], ids=["snr-db-nan", "ber-nan", "ber-above-half"])
def test_transmit_rejects_noise_level_outside_its_range(tmp_path, capsys, option, value, message):
    frame = tmp_path / "x.gscf"
    frame.write_bytes(b"GSCF")
    out = tmp_path / "rx.gscf"
    with pytest.raises(SystemExit) as exit_info:
        main(["transmit", "--in", str(frame), "--out", str(out), option, value])
    assert exit_info.value.code == 2
    assert f"argument {option}: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_transmit_at_infinite_snr_is_noiseless(tmp_path):
    frame = tmp_path / "x.gscf"
    frame.write_bytes(bytes(range(256)))
    out = tmp_path / "rx.gscf"
    main(["transmit", "--in", str(frame), "--out", str(out), "--snr-db", "inf"])
    assert out.read_bytes() == frame.read_bytes()


def test_train_mae_writes_log(tmp_path, tiny_config):
    ckpt = tmp_path / "mae.ckpt"
    log = tmp_path / "mae.csv"
    main(["train-mae", "--config", str(tiny_config), "--out", str(ckpt),
          "--log", str(log), "--seed", "1"])
    lines = log.read_text().strip().split("\n")
    assert lines[0] == "step,loss,learning_rate"
    assert len(lines) == 3  # header + 2 steps


@pytest.mark.parametrize("command, steps_key", [
    ("train-mae", "distill_steps"), ("train-ssae", "ssae_steps"), ("finetune", "finetune_steps"),
])
def test_trainer_with_zero_steps(tmp_path, tiny_config, capsys, command, steps_key):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(tiny_config.read_text() + f"{steps_key} = 0\n")
    ckpt, log = tmp_path / "zero.ckpt", tmp_path / "zero.csv"
    main([command, "--config", str(cfg), "--out", str(ckpt), "--log", str(log)])
    assert ckpt.exists()
    assert log.read_text() == "step,loss,learning_rate\n"
    assert capsys.readouterr().out == f"wrote {ckpt} (no steps)\n"


def test_finetune_writes_log(tmp_path, tiny_config):
    cfg = tmp_path / "ft.cfg"
    cfg.write_text(tiny_config.read_text() + "finetune_lr = 0.02\n")
    log = tmp_path / "ft.csv"
    main(["finetune", "--config", str(cfg), "--out", str(tmp_path / "clf.ckpt"),
          "--log", str(log), "--seed", "1"])
    lines = log.read_text().strip().split("\n")
    assert lines[0] == "step,loss,learning_rate"
    assert len(lines) == 3  # header + 2 steps
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
    assert all(line.split(",")[2] == "0.02" for line in lines[1:])


def test_encode_and_decode_are_the_pipeline_halves(tmp_path, tiny_config):
    cfg = tmp_path / "seam.cfg"
    cfg.write_text(tiny_config.read_text() + "psi = 0\n")  # every patch may be refined
    image = np.random.default_rng(4).random((3, 16, 16))
    ppm = tmp_path / "in.ppm"
    write_ppm(ppm, image)
    image = read_ppm(ppm)
    frame_path, ppm_out = tmp_path / "x.gscf", tmp_path / "out.ppm"
    main(["encode", "--config", str(cfg), "--in", str(ppm), "--out", str(frame_path),
          "--seed", "3"])
    main(["decode", "--config", str(cfg), "--in", str(frame_path), "--out", str(ppm_out),
          "--seed", "3"])

    models = _models(parse_config(cfg), 3)
    refine = read_config(RefineParams, parse_config(cfg))
    frame, _ = transmit(image, models, refine, seed=3)
    assert frame_path.read_bytes() == frame
    assert parse_frame(frame)[1].t_prime > 0
    recon = receive(frame, models.ssae)
    expected_ppm = tmp_path / "expected.ppm"
    write_ppm(expected_ppm, recon)
    assert ppm_out.read_bytes() == expected_ppm.read_bytes()

    clean = ChannelConfig(mode="bsc_ber", ber=0.0, seed=0)
    end_to_end, _, row = run_end_to_end(image, models, refine, clean, seed=3)
    assert row.failure == "" and row.payload_bits == 8 * len(frame)
    assert np.array_equal(end_to_end, recon)


@pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5"])
def test_finetune_rejects_labeled_fraction_outside_unit_interval(tmp_path, tiny_config,
                                                                  fraction):
    cfg = tmp_path / "ft.cfg"
    cfg.write_text(tiny_config.read_text() + f"labeled_fraction = {fraction}\n")
    ckpt = tmp_path / "clf.ckpt"
    with pytest.raises(ValueError, match=r"labeled_fraction must lie in \(0, 1\]"):
        main(["finetune", "--config", str(cfg), "--out", str(ckpt)])
    assert not ckpt.exists()


def test_train_ssae_rejects_non_square_extents(tmp_path, tiny_config):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(tiny_config.read_text() + "img_w = 32\n")
    ckpt = tmp_path / "ssae.ckpt"
    with pytest.raises(ValueError, match="img_w = 32 differs from img_h = 16"):
        main(["train-ssae", "--config", str(cfg), "--out", str(ckpt)])
    assert not ckpt.exists()


@pytest.mark.parametrize("key", ["images_per_class", "num_classes", "img_h", "img_w"])
@pytest.mark.parametrize("command", ["train-mae", "train-ssae", "finetune"])
def test_trainers_reject_empty_synthetic_data_set(tmp_path, tiny_config, command, key):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(tiny_config.read_text() + f"{key} = 0\n")
    ckpt = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=f"^{key} must be at least 1, got 0$"):
        main([command, "--config", str(cfg), "--out", str(ckpt)])
    assert not ckpt.exists()


def test_stl10_limit_below_one_rejected(tmp_path):
    data = tmp_path / "one.bin"
    data.write_bytes(bytes(STL10_IMAGE_BYTES))
    cfg = tmp_path / "stl.cfg"
    cfg.write_text(f"dataset = stl10_binary\ndataset_path = {data}\nlimit = 0\n"
                   "img_h = 96\nimg_w = 96\n")
    with pytest.raises(ValueError, match="^limit must be at least 1, got 0$"):
        main(["train-ssae", "--config", str(cfg), "--out", str(tmp_path / "ssae.ckpt")])


def test_stl10_without_dataset_path_rejected(tmp_path):
    cfg = tmp_path / "stl.cfg"
    cfg.write_text("dataset = stl10_binary\nimg_h = 96\nimg_w = 96\n")
    ckpt = tmp_path / "ssae.ckpt"
    with pytest.raises(ValueError, match="^dataset = stl10_binary needs the key dataset_path$"):
        main(["train-ssae", "--config", str(cfg), "--out", str(ckpt)])
    assert not ckpt.exists()


@pytest.mark.parametrize("command, line, message", [
    ("train-mae", "dim = 32.5", "config key dim = '32.5' is not a valid int"),
    ("train-mae", "dim =", "config key dim = '' is not a valid int"),
    ("evaluate", "ber = high", "config key ber = 'high' is not a valid float"),
    ("sweep", "grid = 0,x", "config key grid = 'x' is not a valid float"),
])
def test_unparsable_value_names_its_key(tmp_path, tiny_config, command, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(tiny_config.read_text() + line + "\n")
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        main([command, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


def test_evaluate_and_sweep(tmp_path, tiny_config):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(tiny_config.read_text() + "ber = 0\ngrid = 0,0.01\n")
    report = tmp_path / "report.csv"
    main(["evaluate", "--config", str(cfg), "--out", str(report)])
    lines = report.read_text().strip().split("\n")
    assert lines[0].startswith("payload_bits,")
    assert len(lines) == 7  # header + 2 classes x 3 images

    sweep_csv = tmp_path / "sweep.csv"
    main(["sweep", "--config", str(cfg), "--out", str(sweep_csv)])
    sl = sweep_csv.read_text().strip().split("\n")
    assert sl[0].startswith("grid_value,")
    assert len(sl) == 3

    # identical invocation reproduces the same bytes
    sweep2 = tmp_path / "sweep2.csv"
    main(["sweep", "--config", str(cfg), "--out", str(sweep2)])
    assert sweep2.read_bytes() == sweep_csv.read_bytes()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_unknown_fec_rejected(tmp_path, tiny_config, command):
    cfg = tmp_path / "fec.cfg"
    cfg.write_text(tiny_config.read_text() + "fec = hamming\n")
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="^unknown fec 'hamming'; choices: identity, repetition3$"):
        main([command, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


def test_finetune_smoke(tmp_path, tiny_config):
    ckpt = tmp_path / "clf.ckpt"
    main(["finetune", "--config", str(tiny_config), "--out", str(ckpt), "--seed", "2"])
    assert ckpt.exists()


@pytest.mark.parametrize("seed, message", [
    ("-1", "must be at least 0, got -1"), ("1.5", "invalid int value: '1.5'"),
])
@pytest.mark.parametrize("command", [
    "train-mae", "train-ssae", "finetune", "encode", "decode", "transmit", "evaluate", "sweep",
])
def test_seed_below_zero_or_not_an_integer_rejected(tmp_path, capsys, command, seed, message):
    out = tmp_path / "out"
    frame_in = ["--in", str(tmp_path / "in")] if command in ("encode", "decode", "transmit") else []
    with pytest.raises(SystemExit) as exit_info:
        main([command, *frame_in, "--out", str(out), "--seed", seed])
    assert exit_info.value.code == 2
    assert f"argument --seed: {message}\n" in capsys.readouterr().err
    assert not out.exists()
