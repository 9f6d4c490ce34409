"""qdiff benchmark: one workload, measured end to end or traced layer by layer.

    python3 perfbench/run.py --workload train|sample|bench --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in a fresh child
process (workload.py) with BLAS pinned to one thread, one op in flight at a
time. With --trace 0 the child is untraced and this prints the end-to-end
metrics; set-up time is the median over several fresh processes. Every
time is scaled to one reference machine speed (calibrate.py). With
--trace 1 the child wraps the qdiff layers and this prints per-layer self
times and exact counts per op. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from calibrate import REFERENCE_S
from spans import COUNT_METRICS, LAYER_METRICS, layer_metrics, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 8  # set-up-only processes, on top of the measured one
# the whole run must end within --seconds plus this: set-up processes, warm-up, checks
DEADLINE_MARGIN_S = 145.0
TAIL_BEYOND = 10
WORKLOADS = ("train", "sample", "bench")


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Child:
    """workload.py in its own process, killed if it outlives the run's deadline."""

    def __init__(self, args: list, deadline: float):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py"), *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        self.timer = threading.Timer(max(deadline - self.t0, 0.0), self.proc.kill)
        self.timer.start()

    def wait_ready(self) -> float:
        """Seconds from spawn until the child printed READY."""
        for line in self.proc.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - self.t0
        raise ChildFailed("workload process ended before set-up finished")

    def finish(self) -> str:
        out = self.proc.stdout.read()
        code = self.proc.wait()
        self.timer.cancel()
        if code != 0:
            raise ChildFailed(f"workload process exited with {code}")
        return out

    def stop(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_child(args: list, deadline: float, ready: bool = True):
    """(set-up seconds or None, last stdout line as JSON or None) of one finished child."""
    child = Child(args, deadline)
    try:
        setup = child.wait_ready() if ready else None
        lines = child.finish().strip().splitlines()
        return setup, json.loads(lines[-1]) if ready else None
    finally:
        child.stop()


def tail(durations) -> tuple:
    """(value, percentile, ops beyond it): the highest percentile with TAIL_BEYOND ops beyond it.

    With TAIL_BEYOND or fewer ops no such percentile exists; the slowest op is the
    tail then, so a slower program never shows a smaller tail.
    """
    ranked = sorted(durations)
    k = len(ranked) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ranked) - 1
    return ranked[k], 100.0 * (k + 1) / len(ranked), len(ranked) - k - 1


def source_record() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/qdiff."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qdiff").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def measure(args, work: str, deadline: float) -> tuple:
    """(main child's result, set-up seconds at reference speed per process, spans)."""
    base = ["--workload", args.workload, "--seed", str(args.seed), "--work", work]
    run_child(base + ["--prepare"], deadline, ready=False)
    setups = []
    trace_out = None
    if args.trace:
        trace_out = os.path.join(work, "spans.csv")
    else:
        for _ in range(SETUP_REPEATS):
            setup, cal = run_child(base + ["--setup-only"], deadline)
            setups.append(setup * REFERENCE_S / cal["calibration_s"])
    extra = ["--seconds", str(args.seconds)] + (["--trace-out", trace_out] if trace_out else [])
    setup, result = run_child(base + extra, deadline)
    setups.append(setup * REFERENCE_S / result["calibrations_s"][0])
    spans = None
    if trace_out:
        spans = read_spans(trace_out)
    return result, setups, spans


def speed_factors(result: dict) -> list:
    """Per timed op: REFERENCE_S over the mean of the calibrations just before and after it.

    Scaling op by op follows a change of machine speed in the middle of a run.
    """
    d, cal = result["durations_s"], result["calibrations_s"]
    if not d:
        raise ChildFailed("no op finished inside the measured time")
    return [2.0 * REFERENCE_S / (cal[i] + cal[i + 1]) for i in range(len(d))]


def items_per_s(result: dict, durations) -> float:
    return result["items_per_op"] * len(durations) / sum(durations)


def end_to_end(result: dict, setups: list) -> tuple:
    raw = result["durations_s"]
    factors = speed_factors(result)
    d = [t * f for t, f in zip(raw, factors)]
    value, pct, beyond = tail(d)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (items_per_s(result, d), "1/s"),
        "op_ms_p50": (statistics.median(d) * 1e3, "ms"),
        "op_ms_tail": (value * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }
    detail = {"ops_timed": len(d), "tail_percentile": round(pct, 2),
              "tail_ops_beyond": beyond,
              "setup_runs": len(setups), "speed_scale": statistics.median(factors),
              "measured_op_ms_p50": statistics.median(raw) * 1e3,
              "measured_items_per_s": items_per_s(result, raw)}
    return metrics, detail


def per_layer(result: dict, spans) -> tuple:
    factors = speed_factors(result)
    values, totals, n_ops = layer_metrics(
        spans, factors, REFERENCE_S / result["calibrations_s"][0])
    op_s = values["trace.op_s"]
    metrics = {name: (v, "count" if name in COUNT_METRICS else "s") for name, v in values.items()}
    d = [t * f for t, f in zip(result["durations_s"], factors)]
    metrics["trace.items_per_s"] = (items_per_s(result, d), "1/s")
    lines = [f"  {'span':<26s} {'calls/op':>10s} {'self ms/op':>11s} {'share':>7s}"]
    for name, (self_s, calls, _) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"  {name:<26s} {calls / n_ops:10.1f} {self_s / n_ops * 1e3:11.3f} "
                     f"{self_s / n_ops / op_s:7.1%}")
    layer_sum = sum(values[m] for m, (how, _) in LAYER_METRICS.items() if how == "self")
    detail = {"ops_traced": n_ops, "speed_scale": statistics.median(factors),
              "layer_self_s_sum_per_op": layer_sum,
              "unattributed_share": values["trace.unattributed_s"] / op_s}
    return metrics, detail, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qdiff benchmark, one workload per run")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + args.seconds + DEADLINE_MARGIN_S
    if not (ROOT / "src" / "qdiff" / "__init__.py").is_file():
        print(f"perfbench: no qdiff source under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result, setups, spans = measure(args, work, deadline)
        if args.trace:
            metrics, detail, lines = per_layer(result, spans)
        else:
            metrics, detail = end_to_end(result, setups)
            lines = []
    except (ChildFailed, ValueError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  closed loop, 1 op in flight")
    print("env " + json.dumps({**result["env"], **source_record()}))
    print("detail " + json.dumps(detail))
    print("checks " + json.dumps({"ran": result["checks"], "problems": result["problems"]}))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
