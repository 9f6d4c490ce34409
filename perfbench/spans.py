"""Span tracer that wraps qdiff functions from outside the package.

A qdiff module calls its helpers through names bound in its own namespace
(`model.py` does `from .circuit import run_circuit`), so each target below
is the name as the *calling* module sees it. Replacing that binding puts a
span around every call from that module and leaves the package source
untouched. Spans are kept in memory and written as CSV when the traced
process exits; `layer_metrics` turns them into per-layer self times and
counts.
"""
from __future__ import annotations

import csv
import functools
import importlib
import os
import time
from contextlib import contextmanager


def _gates(args, result) -> int:
    """Gate applications of one simulation: run_circuit(c, ...) / run_with_angles(c, ...)."""
    return len(args[0].gates)


def _file_bytes(args, result) -> int:
    """Bytes on disk after write_pgm(path, img)."""
    return os.path.getsize(args[0])


# (calling module, name in its namespace, span name, size of one call or None)
TARGETS = (
    ("qdiff.model", "forward_trace", "model.forward", None),
    ("qdiff.model", "backward", "model.backward", None),
    ("qdiff.model", "adam_step", "model.adam", None),
    ("qdiff.model", "load_checkpoint", "model.ckpt_load", None),
    ("qdiff.model", "forward_sample", "diffusion.forward_sample", None),
    ("qdiff.model", "run_circuit", "circuit.sim", _gates),
    ("qdiff.measure", "run_with_angles", "circuit.sim", _gates),
    ("qdiff.bench", "run_with_angles", "circuit.sim", _gates),
    ("qdiff.model", "circuit_unitary", "circuit.unitary", None),
    ("qdiff.model", "probe_hermitian_part", "circuit.unitary", None),
    ("qdiff.measure", "circuit_unitary", "circuit.unitary", None),
    ("qdiff.model", "grad_expectation_wrt_circuit", "measure.grad_theta", None),
    ("qdiff.model", "grad_hadamard_wrt_probe", "measure.grad_probe", None),
    ("qdiff.model", "hadamard_test", "measure.hadamard", None),
    ("qdiff.measure", "_hadamard_with_angles", "measure.ancilla", None),
    ("qdiff.model", "ano_features", "measure.ano", None),
    ("qdiff.data", "synth_modes", "data.synth", None),
    ("qdiff.bench", "sample_fidelities", "bench.fidelities", None),
    ("qdiff.bench", "entangling_capability", "bench.entangling", None),
    ("qdiff.bench", "bloch_points", "bench.bloch", None),
    ("qdiff.bench", "expressibility", "bench.expressibility", None),
    ("qdiff.bench", "partial_trace", "qcore.partial_trace", None),
    ("qdiff.bench", "purity", "qcore.partial_trace", None),
    ("qdiff.cli", "write_pgm", "cli.write_pgm", _file_bytes),
)

# Per-layer metric -> (what to sum, span names). "self" sums self time in
# seconds, "calls" counts spans, "size" sums the per-call size.
LAYER_METRICS = {
    "qcore.partial_trace_s": ("self", ("qcore.partial_trace",)),
    "circuit.sims": ("calls", ("circuit.sim",)),
    "circuit.gate_apps": ("size", ("circuit.sim",)),
    "circuit.sim_s": ("self", ("circuit.sim",)),
    "circuit.unitary_s": ("self", ("circuit.unitary",)),
    "measure.grad_theta_s": ("self", ("measure.grad_theta",)),
    "measure.grad_probe_s": ("self", ("measure.grad_probe",)),
    "measure.ancilla_sims": ("calls", ("measure.ancilla",)),
    "measure.hadamard_s": ("self", ("measure.hadamard", "measure.ancilla")),
    "measure.ano_s": ("self", ("measure.ano",)),
    "diffusion.forward_sample_s": ("self", ("diffusion.forward_sample",)),
    "model.forward_self_s": ("self", ("model.forward",)),
    "model.backward_self_s": ("self", ("model.backward",)),
    "model.adam_s": ("self", ("model.adam",)),
    "bench.fidelities_s": ("self", ("bench.fidelities",)),
    "bench.entangling_s": ("self", ("bench.entangling",)),
    "bench.bloch_s": ("self", ("bench.bloch",)),
    "bench.expressibility_s": ("self", ("bench.expressibility",)),
    "cli.write_pgm_s": ("self", ("cli.write_pgm",)),
    "cli.files_written": ("calls", ("cli.write_pgm",)),
    "cli.bytes_written": ("size", ("cli.write_pgm",)),
}

# Set-up layers: measured once per process under the "setup" root span.
SETUP_METRICS = {
    "model.ckpt_load_s": ("self", ("model.ckpt_load",)),
    "data.synth_s": ("self", ("data.synth",)),
}

COUNT_METRICS = ("circuit.sims", "circuit.gate_apps", "measure.ancilla_sims",
                 "cli.files_written", "cli.bytes_written")


class Tracer:
    """Nested spans [name, start_ns, end_ns, parent index, size] in call order."""

    def __init__(self):
        self.spans = []
        self._open = -1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._open, 0])
        self._open = idx
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        self._open = span[3]

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn, name: str, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if size is not None:
                self.spans[idx][4] = size(args, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target name to its traced wrapper."""
        for module, attr, name, size in TARGETS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, size))

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_ns", "end_ns", "parent", "size"])
            out.writerows(self.spans)


def read_spans(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[name, int(s), int(e), int(p), int(n)] for name, s, e, p, n in rows]


def span_totals(spans, root: str, scales=None) -> tuple:
    """Per span name under roots named `root`: [self seconds, calls, size].

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the traced process is single
    threaded. With `scales`, self times under the k-th such root are
    multiplied by scales[k]. Returns (totals, number of roots).
    """
    child_ns = [0] * len(spans)
    root_of = [0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        root_of[i] = i if parent < 0 else root_of[parent]
        if parent >= 0:
            child_ns[parent] += end - start
    rank = {}
    totals = {}
    for i, (name, start, end, parent, size) in enumerate(spans):
        r = root_of[i]
        if spans[r][0] != root:
            continue
        if parent < 0:
            rank[i] = len(rank)
        factor = 1.0 if scales is None else scales[rank[r]]
        t = totals.setdefault(name, [0.0, 0, 0])
        t[0] += (end - start - child_ns[i]) / 1e9 * factor
        t[1] += 1
        t[2] += size
    return totals, len(rank)


def _metric(totals, how: str, names) -> float:
    col = {"self": 0, "calls": 1, "size": 2}[how]
    return sum(totals.get(name, (0.0, 0, 0))[col] for name in names)


def layer_metrics(spans, op_scales=None, setup_scale: float = 1.0) -> tuple:
    """(metrics, per-name totals under op roots, number of ops).

    Metrics are per timed op for LAYER_METRICS and per process for
    SETUP_METRICS, plus `trace.op_s` (mean traced op time) and
    `trace.unattributed_s` (mean self time of the op root: time inside an op
    that no layer span covers). Times under the k-th op are multiplied by
    op_scales[k], set-up times by setup_scale.
    """
    n_ops = sum(1 for name, _, _, parent, _ in spans if parent < 0 and name == "op")
    if n_ops == 0:
        raise ValueError("trace holds no op spans")
    if op_scales is not None and len(op_scales) != n_ops:
        raise ValueError(f"{len(op_scales)} op scales for {n_ops} traced ops")
    ops, _ = span_totals(spans, "op", op_scales)
    setup, _ = span_totals(spans, "setup")
    out = {m: _metric(ops, how, names) / n_ops for m, (how, names) in LAYER_METRICS.items()}
    out.update({m: _metric(setup, how, names) * setup_scale
                for m, (how, names) in SETUP_METRICS.items()})
    out["trace.op_s"] = sum(t[0] for t in ops.values()) / n_ops
    out["trace.unattributed_s"] = ops["op"][0] / n_ops
    return out, ops, n_ops
