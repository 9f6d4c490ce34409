"""Tests of the benchmark itself: its checks, its span arithmetic, its exact counts.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workload as wl  # noqa: E402
from qdiff import cli, model  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# every check passes on a good output and fails on a corrupted one

def test_check_loss():
    assert wl.check_loss(0.31) == []
    assert wl.check_loss(math.nan)
    assert wl.check_loss(math.inf)


def test_check_audit_catches_a_broken_gradient():
    m = model.init_model(0, k=2, hidden_enc=4, hidden_dec=4, ansatz_layers=1)
    rng = np.random.default_rng(1)
    batch = [(rng.standard_normal(model.INPUT_DIM), 3, rng.uniform(0.0, 1.0, model.INPUT_DIM))]
    assert wl.check_audit(model.gradient_audit(m, batch, n_probe=4)) == []
    broken = model.gradient_audit(m, batch, n_probe=4, fault_group="probe")
    assert any("probe" in p for p in wl.check_audit(broken))
    assert wl.check_audit({g: 0.0 for g in model.PARAM_GROUPS[1:]})  # a group missing


def test_check_frames():
    traj = [np.zeros(model.INPUT_DIM) for _ in range(11)]
    assert wl.check_frames(traj, 10) == []
    assert wl.check_frames(traj[:-1], 10)
    bad = [f.copy() for f in traj]
    bad[4][7] = np.nan
    assert wl.check_frames(bad, 10)
    assert wl.check_frames(traj[:10] + [np.zeros(255)], 10)


def test_check_pgm_files(tmp_path):
    paths = [str(tmp_path / f"f{i}.pgm") for i in range(11)]
    for p in paths:
        cli.write_pgm(p, np.full(256, 0.5))
    assert wl.check_pgm_files(paths, 11) == []
    assert wl.check_pgm_files(paths[:10], 11)
    with open(paths[3], "r+b") as fh:
        fh.truncate(200)
    assert wl.check_pgm_files(paths, 11)
    os.unlink(paths[3])
    assert wl.check_pgm_files(paths, 11)


def test_check_same_trajectory():
    traj = [np.linspace(0.0, 1.0, 256) for _ in range(3)]
    assert wl.check_same_trajectory(traj, [f.copy() for f in traj]) == []
    again = [f.copy() for f in traj]
    again[2][100] = np.nextafter(again[2][100], 2.0)
    assert wl.check_same_trajectory(traj, again)
    assert wl.check_same_trajectory(traj, traj[:2])


def test_check_frechet():
    assert wl.check_frechet(12.5) == []
    assert wl.check_frechet(math.nan)
    assert wl.check_frechet(-1.0)


def test_check_scores():
    fids = np.linspace(0.0, 1.0, wl.N_PAIRS)
    assert wl.check_scores(fids, 0.7, 0.1) == []
    over = fids.copy()
    over[5] = 1.0 + 1e-9
    assert wl.check_scores(over, 0.7, 0.1)
    assert wl.check_scores(-fids, 0.7, 0.1)
    assert wl.check_scores(fids[:-1], 0.7, 0.1)
    assert wl.check_scores(fids, math.nan, 0.1)
    assert wl.check_scores(fids, 1.2, 0.1)
    assert wl.check_scores(fids, 0.7, -0.01)
    assert wl.check_scores(fids, 0.7, math.inf)


def test_check_bloch():
    good = np.tile([[0.6, 0.0, 0.8]], (wl.BLOCH_SAMPLES, 1))
    assert wl.check_bloch(good) == []
    assert wl.check_bloch(good * 0.5) == []
    nan = good.copy()
    nan[1, 2] = np.nan
    assert wl.check_bloch(nan)
    long = good.copy()
    long[0] *= 1.0 + 1e-9
    assert wl.check_bloch(long)
    assert wl.check_bloch(good[:-1])
    assert wl.check_bloch(good[:, :2])


def test_check_oracle():
    assert wl.check_oracle(0.25, 0.25 + 1e-15) == []
    assert wl.check_oracle(0.25, 0.25 + 1e-9)


# ---------------------------------------------------------------------------
# span arithmetic and the tail percentile

def test_self_time_subtracts_direct_children():
    ms = 1_000_000
    trace = [
        ["setup", 0, 5 * ms, -1, 0],
        ["data.synth", 1 * ms, 3 * ms, 0, 0],
        ["op", 10 * ms, 20 * ms, -1, 0],
        ["circuit.sim", 11 * ms, 14 * ms, 2, 70],
        ["measure.hadamard", 15 * ms, 19 * ms, 2, 0],
        ["measure.ancilla", 16 * ms, 18 * ms, 4, 0],
    ]
    totals, n_ops = spans.span_totals(trace, "op")
    assert n_ops == 1
    assert totals["op"][0] == pytest.approx(0.003)
    assert totals["measure.hadamard"][0] == pytest.approx(0.002)
    values, _, _ = spans.layer_metrics(trace)
    assert values["measure.hadamard_s"] == pytest.approx(0.004)
    assert values["circuit.gate_apps"] == 70 and values["measure.ancilla_sims"] == 1
    assert values["data.synth_s"] == pytest.approx(0.002)
    assert values["trace.op_s"] == pytest.approx(0.010)
    scaled, _, _ = spans.layer_metrics(trace, op_scales=[2.0], setup_scale=3.0)
    assert scaled["measure.hadamard_s"] == pytest.approx(0.008)
    assert scaled["trace.op_s"] == pytest.approx(0.020)
    assert scaled["data.synth_s"] == pytest.approx(0.006)
    assert scaled["circuit.gate_apps"] == 70
    with pytest.raises(ValueError):
        spans.layer_metrics(trace, op_scales=[1.0, 1.0])


def test_tail_leaves_ten_ops_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(40, 0, -1)])
    assert value == 30.0 and pct == pytest.approx(75.0) and beyond == 10
    # too few ops for ten beyond: the slowest op, so slower ops never lower the tail
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, pytest.approx(100.0), 0)
    assert run.tail([float(i) for i in range(11)]) == (0.0, pytest.approx(100 / 11), 10)


# ---------------------------------------------------------------------------
# exact counts per op: the same on every seed

SEED_COUNTS = {
    "train": {"circuit.sims": 424, "circuit.gate_apps": 29_680, "measure.ancilla_sims": 216,
              "cli.files_written": 0, "cli.bytes_written": 0},
    "sample": {"circuit.sims": 10, "circuit.gate_apps": 700, "measure.ancilla_sims": 10,
               "cli.files_written": 11, "cli.bytes_written": 2_959},
    # 2 * 125 pairs + 25 Meyer-Wallach + 5 Bloch states, 70 gates each
    "bench": {"circuit.sims": 280, "circuit.gate_apps": 19_600,
              "measure.ancilla_sims": 0, "cli.files_written": 0, "cli.bytes_written": 0},
}


def bench_run(name: str, seed: int, trace: int, cwd=HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SEED_COUNTS))
@pytest.mark.parametrize("seed", [0, 7])
def test_exact_counts_per_op(name, seed):
    result = last_json(bench_run(name, seed, trace=1))
    assert result["correct"] and result["failed"] == 0
    got = {k: result["metrics"][k]["value"] for k in spans.COUNT_METRICS}
    assert got == SEED_COUNTS[name]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_end_to_end_result_matches_the_declared_metrics():
    result = last_json(bench_run("bench", 3, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 3 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench_run("train", 0, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
