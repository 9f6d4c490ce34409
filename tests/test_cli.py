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

from checkpoint_headers import read_header, with_header


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


def _with_hyper(raw, top=(), **changes):
    """The checkpoint bytes `raw` with `changes` merged into its header's hyper and
    `top` merged into the header itself."""
    header = read_header(raw)
    header.update(top)
    header["hyper"].update(changes)
    return with_header(raw, header)


# ---------------------------------------------------------------------------
# config handling and exit codes

# every command's keys, defaults and value types, written out; a key's type
# decides how its --key value and config-file value are read
CONFIG_TABLES = {
    "bench": {"circuit": "ansatz", "n_qubits": 4, "layers": 1, "n_pairs": 5000,
              "mw_samples": 1000, "bloch_qubit": 0, "bloch_samples": 200},
    "grad-check": {"k": 16, "t_steps": 10, "ansatz_layers": 2, "hidden_enc": 64,
                   "hidden_dec": 256, "batch_size": 2, "n_probe": 20, "lam": 0.25,
                   "fd_eps": 1e-6, "fault_group": ""},
    "train": {"dataset": "synthetic", "images_path": "", "limit": 0, "n_modes": 2,
              "pattern_seed": 0, "noise_sigma": 0.05, "per_mode": 50, "epochs": 1,
              "batch_size": 8, "max_steps": 0, "lr": 1e-3, "lam": 0.25,
              "target_mode": "x_prev", "beta_start": 1e-4, "beta_end": 0.02, "k": 16,
              "t_steps": 10, "ansatz_layers": 2, "hidden_enc": 64, "hidden_dec": 256,
              "resume": ""},
    "sample": {"checkpoint": "", "n_trajectories": 8, "n_modes": 2, "pattern_seed": 0,
               "noise_sigma": 0.05, "per_mode": 50},
}


def test_config_tables_keys_defaults_and_types():
    assert set(cli.COMMANDS) == set(CONFIG_TABLES)
    for name, want in CONFIG_TABLES.items():
        got = cli.COMMANDS[name][1]
        assert got == want, name
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}, name


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


@pytest.mark.parametrize("args, key", [
    (["--n-pairs", "0"], "n_pairs"),
    (["--mw-samples", "0"], "mw_samples"),
    (["--bloch-samples", "0"], "bloch_samples"),
    (["--layers", "0"], "layers"),
    (["--n-qubits", "1"], "n_qubits"),
    (["--circuit", "idle", "--n-qubits", "30"], "n_qubits"),
    (["--circuit", "haar", "--n-qubits", "13"], "n_qubits"),
    (["--bloch-qubit", "7"], "bloch_qubit"),
    (["--bloch-qubit", "-1"], "bloch_qubit"),
])
def test_bench_bad_sizes_exit_2_before_any_work(tmp_path, capsys, monkeypatch, args, key):
    def no_work(*a, **kw):
        raise AssertionError("bench started work")

    for name in ("sample_fidelities", "haar_fidelities"):
        monkeypatch.setattr(cli.bench, name, no_work)
    monkeypatch.setattr(cli, "basis_state", no_work)
    code, _, err = run(["bench", "--out", str(tmp_path)] + args, capsys)
    assert code == 2
    assert key in err
    assert os.listdir(tmp_path) == []


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


@pytest.mark.parametrize("key", ["n_probe", "batch_size"])
def test_grad_check_empty_sizes_exit_2_writing_nothing(tmp_path, capsys, monkeypatch, key):
    def no_work(*args, **kwargs):
        raise AssertionError("grad-check built a model")

    monkeypatch.setattr(model, "init_model", no_work)
    argv = ["grad-check", "--out", str(tmp_path)] + GRAD_SMALL + [f"--{key.replace('_', '-')}",
                                                                "0"]
    code, out_text, err = run(argv, capsys)
    assert code == 2
    assert key in err and "PASS" not in out_text
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("key, value", [("fd_eps", "0"), ("fd_eps", "-1"), ("fd_eps", "nan"),
                                        ("fd_eps", "inf"), ("lam", "2"), ("lam", "-0.5")])
def test_grad_check_bad_fd_eps_or_lam_exits_2_writing_nothing(tmp_path, capsys, monkeypatch,
                                                              key, value):
    def no_work(*args, **kwargs):
        raise AssertionError("grad-check built a model")

    monkeypatch.setattr(model, "init_model", no_work)
    argv = ["grad-check", "--out", str(tmp_path)] + GRAD_SMALL + [f"--{key.replace('_', '-')}",
                                                                value]
    code, out_text, err = run(argv, capsys)
    assert code == 2
    assert key in err and "PASS" not in out_text
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("key", ["k", "t_steps", "hidden_enc", "hidden_dec", "ansatz_layers"])
def test_structure_values_below_one_are_rejected_naming_the_key(tmp_path, capsys, key):
    flag = f"--{key.replace('_', '-')}"
    code, _, err = run(["grad-check", "--out", str(tmp_path / "gc")] + GRAD_SMALL + [flag, "0"],
                       capsys)
    assert code == 2 and key in err
    assert os.listdir(tmp_path / "gc") == []
    code, _, err = run(train_args(tmp_path / "train", **{key: 0}), capsys)
    assert code == 2 and key in err
    assert os.listdir(tmp_path / "train") == []
    # a checkpoint header carrying the value is refused by the same check
    run(train_args(tmp_path / "ok", max_steps=0, epochs=0), capsys)
    raw = (tmp_path / "ok" / "checkpoint.qdc").read_bytes()
    for bad in (0, -2, 2.0, True):
        (tmp_path / "bad.qdc").write_bytes(_with_hyper(raw, **{key: bad}))
        with pytest.raises(ValueError, match=f"{key} must be an integer >= 1"):
            model.load_checkpoint(tmp_path / "bad.qdc")


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
                             ansatz_layers=1, lam=0.25)
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


@pytest.mark.parametrize("key, value", [("k", 8), ("t_steps", 7), ("hidden_enc", 4),
                                        ("hidden_dec", 12), ("ansatz_layers", 2)])
def test_train_resume_with_other_structure_exits_2_naming_the_key(tmp_path, capsys,
                                                                  key, value):
    run(train_args(tmp_path / "half", max_steps=1), capsys)
    ck = str(tmp_path / "half" / "checkpoint.qdc")
    # the images file does not exist: the checkpoint is checked before the data load
    code, _, err = run(train_args(tmp_path / "rest", resume=ck, dataset="idx",
                                  images_path=str(tmp_path / "missing.idx"),
                                  **{key: value}), capsys)
    assert code == 2
    assert f"{key}=" in err and str(value) in err
    assert os.listdir(tmp_path / "rest") == []


@pytest.mark.parametrize("key, value", [("target_mode", "eps"), ("beta_start", 1e-3),
                                        ("beta_end", 0.05)])
def test_train_resume_with_another_training_rule_exits_2_naming_the_key(tmp_path, capsys,
                                                                        key, value):
    run(train_args(tmp_path / "half", max_steps=1), capsys)
    ck = str(tmp_path / "half" / "checkpoint.qdc")
    code, _, err = run(train_args(tmp_path / "rest", resume=ck, **{key: value}), capsys)
    assert code == 2
    assert f"{key}=" in err and str(value) in err
    assert os.listdir(tmp_path / "rest") == []


def test_train_resume_records_the_new_lr_and_lam(tmp_path, capsys):
    run(train_args(tmp_path / "half", max_steps=1), capsys)
    code, _, _ = run(train_args(tmp_path / "rest", max_steps=1, lr=0.5, lam=0.9,
                                resume=str(tmp_path / "half" / "checkpoint.qdc")), capsys)
    assert code == 0
    hyper = model.load_checkpoint(tmp_path / "rest" / "checkpoint.qdc")["model"].hyper
    assert (hyper["lr"], hyper["lam"]) == (0.5, 0.9)


BAD_HEADERS = [({"step": "x"}, {}), ({"adam_step": -4}, {}), ({}, {"lam": 5}),
               ({}, {"lr": "fast"}), ({}, {"target_mode": "bogus"}),
               ({"rng_state": {"bit_generator": "MT19937", "state": {"key": [0], "pos": 0}}},
                {})]


def test_train_resume_refuses_bad_header_values(tmp_path, capsys):
    run(train_args(tmp_path / "half", max_steps=1), capsys)
    raw = (tmp_path / "half" / "checkpoint.qdc").read_bytes()
    for i, (top, hyper) in enumerate(BAD_HEADERS):
        bad = tmp_path / f"bad{i}.qdc"
        bad.write_bytes(_with_hyper(raw, top=top, **hyper))
        code, _, err = run(train_args(tmp_path / f"rest{i}", resume=str(bad)), capsys)
        assert code == 1 and "corrupt checkpoint header" in err
        assert os.listdir(tmp_path / f"rest{i}") == []


def test_train_rejects_bad_betas_before_loading(tmp_path, capsys):
    # the images file does not exist: the betas must be rejected first
    code, _, err = run(train_args(tmp_path, beta_start=0.5, beta_end=0.1, dataset="idx",
                                  images_path=str(tmp_path / "missing.idx")), capsys)
    assert code == 2
    assert "beta_start" in err
    assert os.listdir(tmp_path) == []


def test_train_failed_checkpoint_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk refused the rename")

    monkeypatch.setattr(os, "replace", refuse)
    code, _, err = run(train_args(tmp_path, max_steps=1), capsys)
    assert code == 1
    assert "disk refused the rename" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
def test_train_non_finite_lr_exits_2_writing_nothing(tmp_path, capsys, lr):
    code, _, err = run(train_args(tmp_path, lr=lr), capsys)
    assert code == 2
    assert "lr must be a finite number >= 0" in err
    assert os.listdir(tmp_path) == []


def test_train_negative_max_steps_exits_2_writing_nothing(tmp_path, capsys):
    code, _, err = run(train_args(tmp_path, max_steps=-5), capsys)
    assert code == 2
    assert "max_steps" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("limit", [-1, -3])
def test_train_negative_limit_exits_2_before_loading(tmp_path, capsys, monkeypatch, limit):
    # a negative slice bound would drop images from the end or leave none
    def no_load(path):
        raise AssertionError("train read the images file")

    monkeypatch.setattr(cli.data, "load_idx", no_load)
    code, _, err = run(train_args(tmp_path, dataset="idx", limit=limit,
                                  images_path=str(tmp_path / "imgs.idx")), capsys)
    assert code == 2
    assert "limit must be >= 0" in err
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
    # the mode comes from the checkpoint; --mode is no longer a sample key, and it
    # is rejected before the (missing) checkpoint is read
    code, _, err = run(["sample", "--out", str(tmp_path), "--mode", "zigzag",
                        "--checkpoint", str(tmp_path / "missing.qdc")], capsys)
    assert code == 2
    assert "unknown config key 'mode'" in err
    assert not (tmp_path / "metrics.json").exists()


def test_sample_unknown_header_mode_exits_1_naming_it(trained_dir, tmp_path, capsys):
    bad = tmp_path / "zigzag.qdc"
    bad.write_bytes(_with_hyper((trained_dir / "checkpoint.qdc").read_bytes(),
                                target_mode="zigzag"))
    code, _, err = run(["sample", "--out", str(tmp_path / "out"),
                        "--checkpoint", str(bad)], capsys)
    assert code == 1
    assert "zigzag" in err
    assert os.listdir(tmp_path / "out") == []


def test_sample_steps_by_the_mode_and_schedule_the_checkpoint_records(tmp_path, capsys):
    code, _, _ = run(train_args(tmp_path / "t", target_mode="eps", beta_start=1e-3,
                                beta_end=0.05), capsys)
    assert code == 0
    ck = model.load_checkpoint(tmp_path / "t" / "checkpoint.qdc")
    hyper = ck["model"].hyper
    assert (hyper["target_mode"], hyper["beta_start"], hyper["beta_end"]) \
        == ("eps", 1e-3, 0.05)
    code, _, _ = run(["sample", "--out", str(tmp_path / "s"), "--seed", "4",
                      "--checkpoint", str(tmp_path / "t" / "checkpoint.qdc"),
                      "--n-trajectories", "3", "--per-mode", "5"], capsys)
    assert code == 0
    assert json.loads((tmp_path / "s" / "metrics.json").read_text())["mode"] == "eps"
    frames = model.sample_block(ck["model"], [4, 5, 6])
    for j, traj in enumerate(frames):
        for i, img in enumerate(traj):
            name = f"traj{j:03d}_step{i:02d}.pgm"
            cli.write_pgm(str(tmp_path / "want.pgm"), img)
            assert (tmp_path / "s" / name).read_bytes() \
                == (tmp_path / "want.pgm").read_bytes(), name


def test_too_many_modes_exits_2_writing_nothing(trained_dir, tmp_path, capsys):
    code, _, err = run(train_args(tmp_path / "train", n_modes=9), capsys)
    assert code == 2 and "at most 8 modes" in err
    assert os.listdir(tmp_path / "train") == []
    code, _, err = run(["sample", "--out", str(tmp_path / "sample"), "--n-modes", "9",
                        "--checkpoint", str(trained_dir / "checkpoint.qdc")], capsys)
    assert code == 2 and "at most 8 modes" in err
    assert os.listdir(tmp_path / "sample") == []


@pytest.mark.parametrize("command", ["train", "sample"])
@pytest.mark.parametrize("key,value", [("noise-sigma", "nan"), ("noise-sigma", "inf"),
                                       ("pattern-seed", "-1")])
def test_bad_synthetic_data_setting_exits_2_writing_nothing(trained_dir, tmp_path, capsys,
                                                            command, key, value):
    out = tmp_path / command
    argv = (train_args(out) if command == "train" else
            ["sample", "--out", str(out), "--checkpoint", str(trained_dir / "checkpoint.qdc")])
    code, _, err = run(argv + [f"--{key}", value], capsys)
    assert code == 2 and f"{key.replace('-', ' ')} must be" in err
    assert os.listdir(out) == []


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
    pairs = cli.parse_overrides(["--n-pairs", "5", "--noise-sigma=0.2", "--lr=-1e-3",
                                 "--images-path=/data/my-digits.idx"])
    assert pairs == [("n_pairs", "5"), ("noise_sigma", "0.2"), ("lr", "-1e-3"),
                     ("images_path", "/data/my-digits.idx")]
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
