"""One benchmark workload in one process: set up, run ops in a closed loop, check.

run.py starts this file with BLAS pinned to one thread. On stdout it prints
READY once set-up is done (run.py times set-up up to that line) and then
one JSON line: with --setup-only the calibration kernel's time
(calibrate.py), else the op durations, the kernel's median time before the
first op and after each op, the check results and the environment.
With --trace-out it wraps the qdiff layers first (see spans.py) and writes
the spans to that file before it exits.

Every op goes through qdiff's public functions; nothing here reimplements
the package. Each workload checks every op's output, untimed, and runs one
more check after the timed ops that compares against a slow oracle.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext

import numpy as np

from qdiff import bench, cli, data, model
from qdiff.circuit import build_ansatz, circuit_unitary
from qdiff.qcore import basis_state

from calibrate import calibrate
from spans import Tracer

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHECKPOINT = "checkpoint.qdc"
PGM_BYTES = len(b"P5\n16 16\n255\n") + 256
ORACLE_TOL = 1e-12
SETUP_CALIBRATIONS = 9
# kernel passes after each op; a fixed count, so the estimate does not depend on op length
OP_CALIBRATIONS = 3

# bench op size: `qdiff bench`'s defaults (5000 pairs, 1000 Meyer-Wallach and 200
# Bloch samples) scaled down by 40, so one op keeps their 25:5:1 mix of states.
# States simulated per op are 2 * N_PAIRS + MW_SAMPLES + BLOCH_SAMPLES.
N_PAIRS, MW_SAMPLES, BLOCH_SAMPLES = 125, 25, 5
BLOCH_TOL = 1e-12


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is correct

def check_loss(loss) -> list:
    return [] if math.isfinite(loss) else [f"training loss {loss} is not finite"]


def check_audit(report: dict) -> list:
    """Every parameter group's analytic gradient within 1e-4 of finite differences."""
    out = []
    for group in model.PARAM_GROUPS:
        err = report.get(group, math.nan)
        if not err < cli.PASS_THRESHOLD:
            out.append(f"{group} max rel err {err:.3e}")
    return out


def check_frames(traj, t_steps: int) -> list:
    out = []
    if len(traj) != t_steps + 1:
        out.append(f"trajectory has {len(traj)} frames, expected {t_steps + 1}")
    for i, frame in enumerate(traj):
        if np.shape(frame) != (model.INPUT_DIM,) or not np.all(np.isfinite(frame)):
            out.append(f"frame {i} is not a finite {model.INPUT_DIM}-vector")
    return out


def check_pgm_files(paths, n_frames: int) -> list:
    if len(paths) != n_frames:
        return [f"{len(paths)} PGM files written, expected {n_frames}"]
    out = []
    for path in paths:
        size = os.path.getsize(path) if os.path.exists(path) else None
        if size != PGM_BYTES:
            out.append(f"{os.path.basename(path)}: {size} bytes, expected {PGM_BYTES}")
    return out


def check_same_trajectory(first, again) -> list:
    same = len(first) == len(again) and all(
        np.array_equal(a, b) for a, b in zip(first, again))
    return [] if same else ["trajectory regenerated from its seed differs"]


def check_frechet(dist: float) -> list:
    """The Frechet distance `qdiff sample` reports is finite and non-negative."""
    return [] if math.isfinite(dist) and dist >= 0.0 else [f"Frechet distance {dist}"]


def check_scores(fids, qbar: float, expr: float) -> list:
    out = []
    fids = np.asarray(fids)
    if fids.shape != (N_PAIRS,) or not np.all((fids >= 0.0) & (fids <= 1.0)):
        out.append("fidelities are not N_PAIRS values in [0, 1]")
    if not 0.0 <= qbar <= 1.0:
        out.append(f"entangling capability {qbar} outside [0, 1]")
    if not (math.isfinite(expr) and expr >= 0.0):
        out.append(f"expressibility {expr} is not finite and >= 0")
    return out


def check_bloch(points) -> list:
    """BLOCH_SAMPLES finite Bloch vectors, none longer than 1 beyond rounding."""
    points = np.asarray(points)
    if points.shape != (BLOCH_SAMPLES, 3) or not np.all(np.isfinite(points)):
        return ["Bloch points are not BLOCH_SAMPLES finite 3-vectors"]
    longest = float(np.max(np.linalg.norm(points, axis=1)))
    return [] if longest <= 1.0 + BLOCH_TOL else [f"Bloch vector of length {longest!r} > 1"]


def check_oracle(fid: float, oracle: float) -> list:
    if abs(fid - oracle) <= ORACLE_TOL:
        return []
    return [f"pair fidelity {fid!r} differs from the unitary oracle {oracle!r}"]


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Set-up in __init__, one op per op(), its check in check(), the oracle in final_checks()."""

    @staticmethod
    def prepare(seed: int, work: str) -> None:
        """Write the inputs set-up reads, in a process of its own; most need none."""


class Train(Workload):
    """One Adam step of the default model per op, as one step of `qdiff train`."""

    items_per_op = model.TrainConfig().batch_size

    def __init__(self, seed: int, work: str):
        self.seed = seed
        spec = data.SyntheticSpec()
        self.images = data.synth_modes(spec, seed + 1).images
        self.model = model.init_model(seed)
        self.config = model.TrainConfig(seed=seed, max_steps=1)
        self.opt = self.rng = None
        self.step = 0

    def op(self):
        log, self.opt, self.rng = model.train(self.model, self.config, self.images,
                                              opt=self.opt, rng=self.rng,
                                              step_offset=self.step)
        self.step += 1
        return log[0][1]

    def check(self, loss) -> list:
        return check_loss(loss)

    def final_checks(self) -> dict:
        """Gradient audit of the trained model on a `qdiff grad-check` style batch."""
        rng = np.random.default_rng(self.seed + 2)
        t_steps = self.model.hyper["t_steps"]
        batch = [(rng.standard_normal(model.INPUT_DIM), int(rng.integers(1, t_steps + 1)),
                  rng.uniform(0.0, 1.0, model.INPUT_DIM)) for _ in range(2)]
        report = model.gradient_audit(self.model, batch, seed=self.seed + 3)
        return {"gradient_audit": check_audit(report)}


class Sample(Workload):
    """One `qdiff sample` trajectory per op: model.sample, then one PGM per frame."""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.model = model.load_checkpoint(os.path.join(work, CHECKPOINT))["model"]
        self.t_steps = self.model.hyper["t_steps"]
        self.items_per_op = self.t_steps
        # the reference set `qdiff sample` scores its final frames against
        self.reference = data.synth_modes(data.SyntheticSpec(), seed + 10_000).images
        self.frames = os.path.join(work, "frames")
        os.makedirs(self.frames, exist_ok=True)
        self.n_ops = 0
        self.first = None
        self.finals = []

    @staticmethod
    def prepare(seed: int, work: str) -> None:
        """Write the checkpoint set-up loads: one `qdiff train` step."""
        code = cli.main(["train", "--out", work, "--seed", str(seed), "--max-steps", "1"])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"qdiff train exited with {code}")

    def op(self):
        j = self.n_ops
        self.n_ops += 1
        traj = model.sample(self.model, self.t_steps, self.seed + j)
        paths = [os.path.join(self.frames, f"traj{j:03d}_step{i:02d}.pgm")
                 for i in range(len(traj))]
        for path, img in zip(paths, traj):
            cli.write_pgm(path, img)
        return j, traj, paths

    def check(self, out) -> list:
        j, traj, paths = out
        if self.first is None:
            self.first = (j, traj)
        self.finals.append(traj[-1])
        return check_frames(traj, self.t_steps) + check_pgm_files(paths, self.t_steps + 1)

    def final_checks(self) -> dict:
        j, traj = self.first
        again = model.sample(self.model, self.t_steps, self.seed + j)
        dist = bench.frechet_gaussian(np.array(self.finals), self.reference)
        return {
            "regenerated_trajectory": check_same_trajectory(traj, again),
            "frechet_report": check_frechet(dist),
        }


class Bench(Workload):
    """One `qdiff bench` scoring of build_ansatz(4, 2) per op, fresh seed, threads=1."""

    items_per_op = 2 * N_PAIRS + MW_SAMPLES + BLOCH_SAMPLES

    def __init__(self, seed: int, work: str):
        self.circuit = build_ansatz(4, 2)
        self.psi0 = basis_state(4)
        self.seeds = np.random.default_rng(seed)
        self.last = None

    def op(self):
        c, psi0 = self.circuit, self.psi0
        s = int(self.seeds.integers(2**32))
        fids = bench.sample_fidelities(c, psi0, N_PAIRS, s, threads=1)
        qbar = bench.entangling_capability(c, psi0, MW_SAMPLES, s + 1, threads=1)
        points = bench.bloch_points(c, psi0, 0, BLOCH_SAMPLES, s + 2, threads=1)
        expr = bench.expressibility(fids, 2**c.n_qubits)
        return s, fids, qbar, expr, points

    def check(self, out) -> list:
        self.last = out
        _, fids, qbar, expr, points = out
        return check_scores(fids, qbar, expr) + check_bloch(points)

    def final_checks(self) -> dict:
        """One pair of the last op, recomputed from the column-by-column unitary."""
        s, fids = self.last[:2]
        c = self.circuit
        # sample_fidelities draws every pair's parameters up front from its seed
        params = np.random.default_rng(s).uniform(0.0, 2.0 * np.pi, size=(N_PAIRS, 2, c.n_params))
        i = s % N_PAIRS
        a = circuit_unitary(c, params[i, 0]) @ self.psi0.amps
        b = circuit_unitary(c, params[i, 1]) @ self.psi0.amps
        oracle = min(float(abs(np.vdot(a, b))) ** 2, 1.0)
        return {"unitary_oracle": check_oracle(float(fids[i]), oracle)}


WORKLOADS = {"train": Train, "sample": Sample, "bench": Bench}


# ---------------------------------------------------------------------------
# runner

def blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded; None if not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def timed_op(w, root, name: str):
    """(seconds, problems) of one op; an op that raises is a failed op."""
    t0 = time.perf_counter()
    try:
        with root(name):
            out = w.op()
    except Exception as exc:  # keep measuring; the failure is counted and reported
        return time.perf_counter() - t0, [f"op raised {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    return dt, w.check(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--work", required=True, help="scratch directory inside the checkout")
    p.add_argument("--prepare", action="store_true", help="write set-up inputs and exit")
    p.add_argument("--setup-only", action="store_true", help="exit after READY")
    p.add_argument("--trace-out", default=None, help="trace the layers; spans CSV path")
    args = p.parse_args(argv)
    cls = WORKLOADS[args.workload]
    if args.prepare:
        cls.prepare(args.seed, args.work)
        return 0

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    root = tracer.span if tracer else (lambda name: nullcontext())

    with root("setup"):
        w = cls(args.seed, args.work)
    print("READY", flush=True)
    if args.setup_only:
        print(json.dumps({"calibration_s": calibrate(SETUP_CALIBRATIONS)}))
        return 0

    _, problems = timed_op(w, root, "warmup")
    attempted, failed = 1, int(bool(problems))
    durations, calibrations = [], [calibrate(OP_CALIBRATIONS)]
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        dt, found = timed_op(w, root, "op")
        durations.append(dt)
        attempted += 1
        failed += bool(found)
        problems += found
        calibrations.append(calibrate(OP_CALIBRATIONS))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    with root("check"):
        try:
            final = w.final_checks()
        except Exception as exc:  # a check that cannot run has failed
            final = {"final_checks": [f"raised {type(exc).__name__}: {exc}"]}
    for name, found in final.items():
        attempted += 1
        failed += bool(found)
        problems += [f"{name}: {msg}" for msg in found]

    if tracer:
        tracer.write(args.trace_out)
    print(json.dumps({
        "durations_s": durations,
        "calibrations_s": calibrations,
        "items_per_op": w.items_per_op,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "checks": sorted(final),
        "peak_rss_kb": peak_rss_kb,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
