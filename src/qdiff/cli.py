"""Command-line entry point: bench, grad-check, train, sample.

Every run is pinned by (config, seed): repeated invocations write
byte-identical JSON/CSV payloads, with wall-clock timing confined to the
dedicated wall_ms column of training logs. Config is a flat JSON file;
`--key value` overrides win over the file and unknown keys are rejected.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
Set QDIFF_LOG=debug (or info, warning, error) for progress logging.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import tempfile

import numpy as np

from . import bench, data, model
from .circuit import ParamCircuit, build_ansatz, ry, rz
from .encode import MAX_QUBITS
from .qcore import basis_state

log = logging.getLogger("qdiff")

EXIT_OK, EXIT_RUNTIME, EXIT_CONFIG = 0, 1, 2
PASS_THRESHOLD = 1e-4


class ConfigError(Exception):
    """Bad config file, unknown key, or unusable value; maps to exit 2."""


# ---------------------------------------------------------------------------
# config plumbing

BENCH_DEFAULTS = {
    "circuit": "ansatz",  # ansatz | idle | rotations | haar
    "n_qubits": 4,
    "layers": 1,
    "n_pairs": 5000,
    "mw_samples": 1000,
    "bloch_qubit": 0,
    "bloch_samples": 200,
}

_SYNTHETIC = dataclasses.asdict(data.SyntheticSpec())
# TrainConfig's fields as train keys; seed is --seed, and the key max_steps 0 means None
_TRAIN_RULE = {key: value for key, value in dataclasses.asdict(model.TrainConfig()).items()
               if key not in ("seed", "max_steps")}

GRAD_CHECK_DEFAULTS = {
    **model.STRUCTURE_DEFAULTS,
    "batch_size": 2,
    "n_probe": 20,
    "lam": model.TrainConfig.lam,
    "fd_eps": 1e-6,
    "fault_group": "",  # test hook: sign-flip one group's analytic gradient
}

TRAIN_DEFAULTS = {
    "dataset": "synthetic",  # synthetic | idx
    "images_path": "",
    "limit": 0,
    **_SYNTHETIC,
    **_TRAIN_RULE,
    "max_steps": 0,
    **model.STRUCTURE_DEFAULTS,
    "resume": "",
}
# a resumed run keeps the checkpoint's structure and the rule its steps were
# trained by; lr and lam may change
RESUME_KEYS = (*model.STRUCTURE_DEFAULTS, "target_mode", "beta_start", "beta_end")

SAMPLE_DEFAULTS = {
    "checkpoint": "",
    "n_trajectories": 8,
    **_SYNTHETIC,
}


def load_config_file(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a flat JSON object")
    return cfg


def _coerce_file_value(key: str, value, default):
    if isinstance(default, int):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be an integer")
        return value
    if isinstance(default, float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be a number")
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be a string")
    return value


def _coerce_override(key: str, raw: str, default):
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for config key {key!r}")


def parse_overrides(rest: list) -> list:
    """Leftover argv as (key, value) pairs: --key value or --key=value."""
    out, i = [], 0
    while i < len(rest):
        tok = rest[i]
        if not tok.startswith("--") or len(tok) <= 2:
            raise ConfigError(f"unexpected argument {tok!r}")
        key, eq, val = tok[2:].partition("=")
        key = key.replace("-", "_")  # in the key only: a value keeps its hyphens
        if not eq:
            i += 1
            if i >= len(rest):
                raise ConfigError(f"missing value for --{key}")
            val = rest[i]
        out.append((key, val))
        i += 1
    return out


def build_config(defaults: dict, config_path: str | None, overrides: list) -> dict:
    cfg = dict(defaults)
    if config_path:
        for key, value in load_config_file(config_path).items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = _coerce_file_value(key, value, defaults[key])
    for key, raw in overrides:
        if key not in defaults:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce_override(key, raw, defaults[key])
    return cfg


# ---------------------------------------------------------------------------
# file output

def atomic_write(path: str, payload) -> None:
    """Write bytes or text via a temp file + rename in the target dir."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qdiff-tmp-")
    try:
        mode = "wb" if isinstance(payload, bytes) else "w"
        with os.fdopen(fd, mode) as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_pgm(path: str, img) -> None:
    """16x16 8-bit binary PGM; input pixels are clamped to [0, 1]."""
    img = np.asarray(img, dtype=float).ravel()
    if img.size != 256:
        raise ValueError(f"expected 256 pixels, got {img.size}")
    body = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    atomic_write(path, b"P5\n16 16\n255\n" + body.tobytes())


# ---------------------------------------------------------------------------
# commands

def _bench_targets(cfg: dict, seed: int):
    """(fidelities, qbar, bloch point array) for the configured circuit."""
    n = cfg["n_qubits"]
    kind = cfg["circuit"]
    if kind == "haar":
        dim = 2 ** n
        fids = bench.haar_fidelities(dim, cfg["n_pairs"], seed)
        rng = np.random.default_rng(seed + 1)
        n_states = max(cfg["mw_samples"], cfg["bloch_samples"])
        states = np.stack([bench.haar_state(dim, rng) for _ in range(n_states)], axis=1)
        rhos = bench.qubit_reductions(states)
        qbar = float(np.mean(bench.meyer_wallach_values(rhos[: cfg["mw_samples"]])))
        points = bench.bloch_values(rhos[: cfg["bloch_samples"]], cfg["bloch_qubit"])
        return fids, qbar, points

    if kind == "ansatz":
        circ = build_ansatz(n, cfg["layers"])
    elif kind == "idle":
        circ = ParamCircuit(n, (), 0)
    elif kind == "rotations":
        gates = []
        for q in range(n):
            gates += [ry(q, ref=2 * q), rz(q, ref=2 * q + 1)]
        circ = ParamCircuit(n, tuple(gates), 2 * n)
    else:
        raise ConfigError(f"unknown circuit kind {kind!r}")
    psi0 = basis_state(n)
    fids = bench.sample_fidelities(circ, psi0, cfg["n_pairs"], seed)
    qbar = bench.entangling_capability(circ, psi0, cfg["mw_samples"], seed + 1)
    points = bench.bloch_points(circ, psi0, cfg["bloch_qubit"], cfg["bloch_samples"], seed + 2)
    return fids, qbar, points


def cmd_bench(cfg: dict, seed: int, out: str) -> int:
    for key in ("n_pairs", "mw_samples", "bloch_samples", "layers"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    if not 2 <= cfg["n_qubits"] <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must lie in 2..{MAX_QUBITS}")
    if not 0 <= cfg["bloch_qubit"] < cfg["n_qubits"]:
        raise ConfigError(f"bloch_qubit must lie in 0..{cfg['n_qubits'] - 1}")
    fids, qbar, points = _bench_targets(cfg, seed)
    expr = bench.expressibility(fids, 2 ** cfg["n_qubits"])
    if not (np.isfinite(expr) and np.isfinite(qbar)):
        raise ValueError("report fields must be finite")
    if not 0.0 <= qbar <= 1.0:
        raise ValueError("entangling capability must lie in [0, 1]")
    report = {"expressibility": expr, "entangling_capability": qbar,
              "n_samples": int(len(fids)), "seed": seed}
    atomic_write(os.path.join(out, "report.json"), json.dumps(report, indent=2) + "\n")
    atomic_write(os.path.join(out, "fidelities.csv"), bench.fidelities_csv(fids))
    atomic_write(os.path.join(out, "bloch.csv"), bench.bloch_csv(points))
    print(f"bench: E={expr:.6f} Qbar={qbar:.6f} -> {out}")
    return EXIT_OK


def _init_model(cfg: dict, seed: int, **kwargs) -> model.HybridModel:
    """A fresh model of the configured structure; a bad structure value is a config error."""
    try:
        return model.init_model(seed, **kwargs,
                                **{key: cfg[key] for key in model.STRUCTURE_DEFAULTS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_grad_check(cfg: dict, seed: int, out: str) -> int:
    for key in ("batch_size", "n_probe"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    if not 0.0 < cfg["fd_eps"] < np.inf:
        raise ConfigError("fd_eps must be a finite number > 0")
    try:
        model.TrainConfig(lam=cfg["lam"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    m = _init_model(cfg, seed, lam=cfg["lam"])
    rng = np.random.default_rng(seed + 1)
    batch = []
    for _ in range(cfg["batch_size"]):
        x_t = rng.standard_normal(model.INPUT_DIM)
        t = int(rng.integers(1, cfg["t_steps"] + 1))
        target = rng.uniform(0.0, 1.0, model.INPUT_DIM)
        batch.append((x_t, t, target))
    report = model.gradient_audit(
        m, batch, n_probe=cfg["n_probe"], seed=seed + 2,
        fd_eps=cfg["fd_eps"], fault_group=cfg["fault_group"] or None)
    ok = all(err < PASS_THRESHOLD for err in report.values())
    for group in model.PARAM_GROUPS:
        verdict = "PASS" if report[group] < PASS_THRESHOLD else "FAIL"
        print(f"{group:<8s} max_rel_err {report[group]:.3e}  {verdict}")
    print(f"grad-check: {'PASS' if ok else 'FAIL'} ({len(report)} parameter groups)")
    payload = {"groups": {g: report[g] for g in model.PARAM_GROUPS},
               "threshold": PASS_THRESHOLD, "pass": ok}
    atomic_write(os.path.join(out, "grad_check.json"), json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if ok else EXIT_RUNTIME


def _synthetic_spec(cfg: dict) -> data.SyntheticSpec:
    try:
        return data.SyntheticSpec(**{key: cfg[key] for key in _SYNTHETIC})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_dataset(cfg: dict, seed: int) -> np.ndarray:
    if cfg["dataset"] == "synthetic":
        return data.synth_modes(_synthetic_spec(cfg), seed + 1).images
    if cfg["dataset"] == "idx":
        if not cfg["images_path"]:
            raise ConfigError("dataset=idx requires images_path")
        tensor = data.load_idx(cfg["images_path"])
        if tensor.ndim != 3 or tensor.shape[1:] != (28, 28):
            raise ValueError(f"expected (n, 28, 28) image tensor, got {tensor.shape}")
        if cfg["limit"]:
            tensor = tensor[: cfg["limit"]]
        return np.stack([data.downsample(img.ravel()) for img in tensor])
    raise ConfigError(f"unknown dataset kind {cfg['dataset']!r}")


def cmd_train(cfg: dict, seed: int, out: str) -> int:
    if cfg["limit"] < 0:
        raise ConfigError("limit must be >= 0 (0 keeps every image)")
    try:
        tc = model.TrainConfig(seed=seed, max_steps=cfg["max_steps"] or None,
                               **{key: cfg[key] for key in _TRAIN_RULE})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    opt = rng = None
    step_offset = 0
    if cfg["resume"]:
        ck = model.load_checkpoint(cfg["resume"])
        m, opt, step_offset = ck["model"], ck["opt"], ck["step"]
        for key in RESUME_KEYS:
            have = m.hyper[key]
            if have != cfg[key]:
                raise ConfigError(f"resume checkpoint has {key}={have!r}, "
                                  f"the config asks for {key}={cfg[key]!r}")
        if ck["rng_state"] is not None:
            rng = np.random.default_rng()
            rng.bit_generator.state = ck["rng_state"]
    else:
        m = _init_model(cfg, seed)
    images = _load_dataset(cfg, seed)
    log.info("training on %d images", len(images))
    train_log, opt, rng = model.train(m, tc, images, opt=opt, rng=rng,
                                      step_offset=step_offset)
    atomic_write(os.path.join(out, "checkpoint.qdc"),
                 model.checkpoint_bytes(m, opt, rng.bit_generator.state,
                                        step_offset + len(train_log)))
    atomic_write(os.path.join(out, "log.csv"), model.train_log_csv(train_log))
    last = train_log[-1][1] if train_log else float("nan")
    print(f"train: {len(train_log)} steps, final loss {last:.6f} -> {out}")
    return EXIT_OK


def cmd_sample(cfg: dict, seed: int, out: str) -> int:
    if not cfg["checkpoint"]:
        raise ConfigError("sample requires a checkpoint path")
    if cfg["n_trajectories"] < 1:
        raise ConfigError("n_trajectories must be >= 1")
    spec = _synthetic_spec(cfg)
    m = model.load_checkpoint(cfg["checkpoint"])["model"]  # the Adam moments go at once
    frames = model.sample_block(m, [seed + j for j in range(cfg["n_trajectories"])])
    for j, traj in enumerate(frames):
        for i, img in enumerate(traj):
            write_pgm(os.path.join(out, f"traj{j:03d}_step{i:02d}.pgm"), img)
    finals = frames[:, -1]

    real = data.synth_modes(spec, seed + 10_000).images
    templates = data.mode_templates(spec)
    cosines = [data.nearest_mode(img, templates)[1] for img in finals]
    metrics = {
        "n_trajectories": int(len(finals)),
        "t_steps": m.hyper["t_steps"],
        "mode": m.hyper["target_mode"],
        "nearest_mode_cosine_mean": float(np.mean(cosines)),
        "nearest_mode_frac_above_0.8": float(np.mean([c > 0.8 for c in cosines])),
        "frechet_generated": None,
        "frechet_noise": None,
    }
    if len(finals) >= 2:
        noise = np.random.default_rng(seed + 20_000).standard_normal(finals.shape)
        metrics["frechet_generated"] = bench.frechet_gaussian(finals, real)
        metrics["frechet_noise"] = bench.frechet_gaussian(noise, real)
    atomic_write(os.path.join(out, "metrics.json"), json.dumps(metrics, indent=2) + "\n")
    print(f"sample: {len(finals)} trajectories x {frames.shape[1]} frames -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring

COMMANDS = {
    "bench": (cmd_bench, BENCH_DEFAULTS),
    "grad-check": (cmd_grad_check, GRAD_CHECK_DEFAULTS),
    "train": (cmd_train, TRAIN_DEFAULTS),
    "sample": (cmd_sample, SAMPLE_DEFAULTS),
}


def _seed_value(raw: str) -> int:
    value = int(raw)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit int")
    return value


def _threads_value(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError("threads must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiff",
        description="Hybrid quantum-classical diffusion lab: circuit benchmarks, "
                    "gradient audits, training and sampling.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat JSON config file")
        p.add_argument("--seed", type=_seed_value, default=0)
        # every command runs serially: --threads is checked and changes no output
        p.add_argument("--threads", type=_threads_value, default=1)
        p.add_argument("--out", default=".", help="output directory")
    return parser


def setup_logging() -> None:
    name = os.environ.get("QDIFF_LOG", "warning").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    setup_logging()
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    func, defaults = COMMANDS[args.command]
    try:
        cfg = build_config(defaults, args.config, parse_overrides(rest))
        os.makedirs(args.out, exist_ok=True)
        log.debug("%s config: %s", args.command, cfg)
        return func(cfg, args.seed, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        log.debug("runtime failure", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
