"""End-to-end tests for the qdiff command line driver.

Everything runs in-process through cli.main so exit codes, stdout and the
files written under --out can all be checked directly.
"""

import json
import logging
import os
import struct

import numpy as np
import pytest

from qdiff import cli, model


TINY_TRAIN = {
    "per_mode": 5,
    "max_steps": 4,
    "batch_size": 4,
    "k": 4,
    "t_steps": 5,
    "hidden_enc": 8,
    "hidden_dec": 16,
    "ansatz_layers": 1,
}


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def train_args(out, **extra):
    cfg = dict(TINY_TRAIN, **extra)
    argv = ["train", "--out", str(out)]
    for key, val in cfg.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    return argv


def read_log_rows(path, strip_wall=True):
    lines = path.read_text().strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    if strip_wall:
        rows = [row[:-1] for row in rows]
    return lines[0], rows


# ---------------------------------------------------------------------------
# config handling and exit codes

def test_missing_config_file_exits_2(tmp_path, capsys):
    code, _, err = run(["bench", "--config", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert "not found" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    code, _, err = run(["bench", "--out", str(tmp_path), "--bogus", "3"], capsys)
    assert code == 2
    assert "unknown config key" in err


def test_bad_value_exits_2(tmp_path, capsys):
    code, _, err = run(["bench", "--out", str(tmp_path), "--n-pairs", "lots"], capsys)
    assert code == 2
    assert "bad value" in err


def test_config_not_json_object_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2, 3]\n")
    code, _, err = run(["bench", "--config", str(path)], capsys)
    assert code == 2
    assert "flat JSON object" in err


def test_wrong_typed_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_pairs": "many"}))
    code, _, err = run(["bench", "--config", str(path)], capsys)
    assert code == 2
    assert "n_pairs" in err


def test_override_beats_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_pairs": 150, "mw_samples": 20,
                                "bloch_samples": 10}))
    out = tmp_path / "run"
    code, _, _ = run(["bench", "--config", str(path), "--out", str(out),
                      "--n-pairs=80"], capsys)
    assert code == 0
    n_rows = len((out / "fidelities.csv").read_text().strip().split("\n")) - 1
    assert n_rows == 80


# ---------------------------------------------------------------------------
# bench

def test_bench_idle_circuit(tmp_path, capsys):
    code, out_text, _ = run(["bench", "--out", str(tmp_path),
                             "--circuit", "idle", "--n-pairs", "300",
                             "--mw-samples", "50", "--bloch-samples", "20"],
                            capsys)
    assert code == 0
    assert "bench:" in out_text
    report = json.loads((tmp_path / "report.json").read_text())
    # an idle circuit always returns |0...0>, so every fidelity is 1 and the
    # histogram piles into one bin: huge divergence, zero entanglement
    assert report["expressibility"] > 10.0
    assert report["entangling_capability"] == 0.0
    fids = (tmp_path / "fidelities.csv").read_text().strip().split("\n")
    assert fids[0] == "fidelity"
    assert all(float(v) == 1.0 for v in fids[1:])
    bloch = (tmp_path / "bloch.csv").read_text().strip().split("\n")
    assert bloch[0] == "x,y,z"


def test_bench_haar_bloch_cloud_is_not_capped_by_mw_samples(tmp_path, capsys):
    args = ["--circuit", "haar", "--n-pairs", "100", "--bloch-samples", "200"]
    assert run(["bench", "--out", str(tmp_path / "few"), "--mw-samples", "50"] + args,
               capsys)[0] == 0
    assert run(["bench", "--out", str(tmp_path / "many"), "--mw-samples", "1000"] + args,
               capsys)[0] == 0
    few = (tmp_path / "few" / "bloch.csv").read_text()
    assert len(few.strip().split("\n")) == 1 + 200
    # the first draws are the same states whatever mw_samples is
    assert few == (tmp_path / "many" / "bloch.csv").read_text()


def test_bench_ansatz_beats_idle(tmp_path, capsys):
    code, _, _ = run(["bench", "--out", str(tmp_path / "a"),
                      "--n-pairs", "400", "--mw-samples", "60",
                      "--bloch-samples", "20"], capsys)
    assert code == 0
    code, _, _ = run(["bench", "--out", str(tmp_path / "b"),
                      "--circuit", "idle", "--n-pairs", "400",
                      "--mw-samples", "60", "--bloch-samples", "20"], capsys)
    assert code == 0
    e_ansatz = json.loads((tmp_path / "a" / "report.json").read_text())
    e_idle = json.loads((tmp_path / "b" / "report.json").read_text())
    assert e_ansatz["expressibility"] < e_idle["expressibility"]
    assert e_ansatz["entangling_capability"] > 0.5


def test_bench_bitwise_deterministic_across_threads(tmp_path, capsys):
    base = ["--n-pairs", "250", "--mw-samples", "40", "--bloch-samples", "15",
            "--seed", "7"]
    run(["bench", "--out", str(tmp_path / "t1"), "--threads", "1"] + base, capsys)
    run(["bench", "--out", str(tmp_path / "t4"), "--threads", "4"] + base, capsys)
    for name in ("report.json", "fidelities.csv", "bloch.csv"):
        a = (tmp_path / "t1" / name).read_bytes()
        b = (tmp_path / "t4" / name).read_bytes()
        assert a == b, name


# ---------------------------------------------------------------------------
# grad-check

GRAD_SMALL = ["--k", "4", "--ansatz-layers", "1", "--hidden-enc", "8",
              "--hidden-dec", "16", "--batch-size", "1", "--n-probe", "3"]


def test_grad_check_passes_on_small_model(tmp_path, capsys):
    code, out_text, _ = run(["grad-check", "--out", str(tmp_path)] + GRAD_SMALL,
                            capsys)
    assert code == 0
    assert "grad-check: PASS (5 parameter groups)" in out_text
    report = json.loads((tmp_path / "grad_check.json").read_text())
    assert report["pass"] is True
    assert len(report["groups"]) == 5
    assert all(err < report["threshold"] for err in report["groups"].values())


def test_grad_check_fault_injection_fails(tmp_path, capsys):
    code, out_text, _ = run(["grad-check", "--out", str(tmp_path),
                             "--fault-group", "decoder"] + GRAD_SMALL, capsys)
    assert code == 1
    assert "grad-check: FAIL" in out_text
    assert "decoder" in out_text


# ---------------------------------------------------------------------------
# train

def test_train_writes_checkpoint_and_log(tmp_path, capsys):
    code, out_text, _ = run(train_args(tmp_path), capsys)
    assert code == 0
    assert "train: 4 steps" in out_text
    header, rows = read_log_rows(tmp_path / "log.csv", strip_wall=False)
    assert header == "step,loss,wall_ms"
    assert [row[0] for row in rows] == ["0", "1", "2", "3"]
    assert all(np.isfinite(float(row[1])) for row in rows)
    assert os.path.exists(tmp_path / "checkpoint.qdc")
    assert not os.path.exists(tmp_path / "checkpoint.qdc.partial")


def test_train_epochs_zero_checkpoint_matches_init(tmp_path, capsys):
    code, out_text, _ = run(train_args(tmp_path, max_steps=0, epochs=0), capsys)
    assert code == 0
    assert "train: 0 steps" in out_text
    ck = model.load_checkpoint(tmp_path / "checkpoint.qdc")
    fresh = model.init_model(0, k=4, t_steps=5, hidden_enc=8, hidden_dec=16,
                             ansatz_layers=1, lr=1e-3, lam=0.25)
    assert ck["step"] == 0
    for (name_a, a), (name_b, b) in zip(model.param_tensors(ck["model"]),
                                        model.param_tensors(fresh)):
        assert name_a == name_b
        assert np.array_equal(a, b), name_a


def test_train_resume_matches_uninterrupted(tmp_path, capsys):
    run(train_args(tmp_path / "full"), capsys)
    run(train_args(tmp_path / "half", max_steps=2), capsys)
    code, _, _ = run(train_args(tmp_path / "rest", max_steps=2,
                                resume=str(tmp_path / "half" / "checkpoint.qdc")),
                     capsys)
    assert code == 0
    full = (tmp_path / "full" / "checkpoint.qdc").read_bytes()
    rest = (tmp_path / "rest" / "checkpoint.qdc").read_bytes()
    assert full == rest
    _, rows_full = read_log_rows(tmp_path / "full" / "log.csv")
    _, rows_half = read_log_rows(tmp_path / "half" / "log.csv")
    _, rows_rest = read_log_rows(tmp_path / "rest" / "log.csv")
    assert rows_half + rows_rest == rows_full


def test_train_same_seed_bitwise_identical(tmp_path, capsys):
    run(train_args(tmp_path / "a", seed=3), capsys)
    run(train_args(tmp_path / "b", seed=3, threads=4), capsys)
    a = (tmp_path / "a" / "checkpoint.qdc").read_bytes()
    b = (tmp_path / "b" / "checkpoint.qdc").read_bytes()
    assert a == b
    _, rows_a = read_log_rows(tmp_path / "a" / "log.csv")
    _, rows_b = read_log_rows(tmp_path / "b" / "log.csv")
    assert rows_a == rows_b


def test_train_negative_max_steps_exits_2_writing_nothing(tmp_path, capsys):
    code, _, err = run(train_args(tmp_path, max_steps=-5), capsys)
    assert code == 2
    assert "max_steps" in err
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# sample

@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    argv = train_args(out)
    assert cli.main(argv) == 0
    return out


def test_sample_requires_checkpoint(tmp_path, capsys):
    code, _, err = run(["sample", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "checkpoint" in err


def test_sample_corrupt_checkpoint_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.qdc"
    bad.write_bytes(b"not a checkpoint at all")
    code, _, err = run(["sample", "--out", str(tmp_path),
                        "--checkpoint", str(bad)], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_sample_non_finite_checkpoint_exits_1(trained_dir, tmp_path, capsys):
    raw = (trained_dir / "checkpoint.qdc").read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    first = 16 + hlen  # the first float64 of encoder.0.w_real
    bad = tmp_path / "nan.qdc"
    bad.write_bytes(raw[:first] + struct.pack("<d", np.inf) + raw[first + 8:])
    code, _, err = run(["sample", "--out", str(tmp_path / "out"),
                        "--checkpoint", str(bad)], capsys)
    assert code == 1
    assert err.startswith("error:") and "encoder.0.w_real" in err


def test_sample_unknown_mode_exits_2_before_loading(tmp_path, capsys):
    # the checkpoint does not exist: the mode must be rejected first
    code, _, err = run(["sample", "--out", str(tmp_path), "--mode", "zigzag",
                        "--checkpoint", str(tmp_path / "missing.qdc")], capsys)
    assert code == 2
    assert "zigzag" in err
    assert not (tmp_path / "metrics.json").exists()


def test_too_many_modes_exits_2_writing_nothing(trained_dir, tmp_path, capsys):
    code, _, err = run(train_args(tmp_path / "train", n_modes=9), capsys)
    assert code == 2 and "at most 8 modes" in err
    assert os.listdir(tmp_path / "train") == []
    code, _, err = run(["sample", "--out", str(tmp_path / "sample"), "--n-modes", "9",
                        "--checkpoint", str(trained_dir / "checkpoint.qdc")], capsys)
    assert code == 2 and "at most 8 modes" in err
    assert os.listdir(tmp_path / "sample") == []


@pytest.mark.parametrize("n", ["0", "-3"])
def test_sample_needs_at_least_one_trajectory(trained_dir, tmp_path, capsys, n):
    code, _, err = run(["sample", "--out", str(tmp_path), "--n-trajectories", n,
                        "--checkpoint", str(trained_dir / "checkpoint.qdc")], capsys)
    assert code == 2
    assert "n_trajectories" in err
    assert not (tmp_path / "metrics.json").exists()


def test_sample_writes_frames_and_metrics(trained_dir, tmp_path, capsys):
    code, out_text, _ = run(["sample", "--out", str(tmp_path),
                             "--checkpoint", str(trained_dir / "checkpoint.qdc"),
                             "--n-trajectories", "2", "--per-mode", "5"], capsys)
    assert code == 0
    assert "sample: 2 trajectories x 6 frames" in out_text
    pgms = sorted(p for p in os.listdir(tmp_path) if p.endswith(".pgm"))
    # t_steps=5 gives 6 frames (initial noise plus one per reverse step)
    assert len(pgms) == 12
    assert pgms[0] == "traj000_step00.pgm"
    assert pgms[-1] == "traj001_step05.pgm"
    blob = (tmp_path / pgms[0]).read_bytes()
    assert blob.startswith(b"P5\n16 16\n255\n")
    assert len(blob) == len(b"P5\n16 16\n255\n") + 256
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["n_trajectories"] == 2
    assert metrics["t_steps"] == 5
    assert 0.0 <= metrics["nearest_mode_frac_above_0.8"] <= 1.0
    assert metrics["frechet_generated"] is not None
    assert metrics["frechet_noise"] is not None


def test_sample_deterministic(trained_dir, tmp_path, capsys):
    argv = ["--checkpoint", str(trained_dir / "checkpoint.qdc"),
            "--n-trajectories", "2", "--per-mode", "5", "--seed", "11"]
    run(["sample", "--out", str(tmp_path / "a")] + argv, capsys)
    run(["sample", "--out", str(tmp_path / "b")] + argv, capsys)
    for name in sorted(os.listdir(tmp_path / "a")):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


# ---------------------------------------------------------------------------
# small pieces

def test_write_pgm_clamps(tmp_path):
    img = np.full(256, 0.5)
    img[0], img[1] = -3.0, 7.0
    path = tmp_path / "x.pgm"
    cli.write_pgm(str(path), img)
    body = path.read_bytes()[len(b"P5\n16 16\n255\n"):]
    assert body[0] == 0 and body[1] == 255
    assert body[2] == 128


def test_parse_overrides_forms():
    pairs = cli.parse_overrides(["--n-pairs", "5", "--noise-sigma=0.2"])
    assert pairs == [("n_pairs", "5"), ("noise_sigma", "0.2")]
    with pytest.raises(cli.ConfigError):
        cli.parse_overrides(["stray"])
    with pytest.raises(cli.ConfigError):
        cli.parse_overrides(["--dangling"])


def test_log_level_from_env(monkeypatch):
    seen = {}
    monkeypatch.setattr(logging, "basicConfig",
                        lambda **kw: seen.update(kw))
    monkeypatch.setenv("QDIFF_LOG", "debug")
    cli.setup_logging()
    assert seen["level"] == logging.DEBUG
    monkeypatch.setenv("QDIFF_LOG", "not-a-level")
    cli.setup_logging()
    assert seen["level"] == logging.WARNING
