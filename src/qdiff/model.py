"""Hybrid denoising model: complex encoder, quantum bottleneck, skip decoder.

One batched path serves a (B, 256) block of 16x16 images: a complex linear
stack on each [image || normalized timestep] row, amplitude encoding onto 4
qubits, one ansatz run on the (16, B) block of states, K adaptive observables
plus the probe feature <psi|(U+U^dag)/2|psi>, and a decoder on
[features || input]. That feature equals the ancilla Hadamard test's
Re<psi|U|psi>; measure.hadamard_test stays as its reference.

Training minimizes (1-lam) * MSE(prediction, target) + lam * infidelity
between the post-ansatz state and the amplitude-encoded latent of the target.
Gradients are exact: (B, .) matmuls through the classical stacks and the
amplitude normalization, one adjoint sweep each for the ansatz (it also pulls
the encoder's cotangent back) and the probe angles, and the linear rule for
observable entries.
"""
from __future__ import annotations

import io
import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .circuit import ParamCircuit, build_ansatz, effective_angles, run_block
from .diffusion import NoiseSchedule, forward_sample, linear_schedule
from .measure import (
    REAL_TOL,
    AdaptiveObservable,
    GlobalProbe,
    ObservableBank,
    adjoint_gradient,
    grad_hadamard_wrt_probe,
    hermitize,
    probe_hermitian_part,
)
# unused here; perfbench/spans.py's tracer wraps these names
from .circuit import circuit_unitary, run_circuit
from .measure import ano_features, grad_expectation_wrt_circuit, hadamard_test

INPUT_DIM = 256
N_QUBITS = 4
LATENT_DIM = 2**N_QUBITS
LEAKY_SLOPE = 0.01

CKPT_MAGIC = b"QDFC"
CKPT_VERSION = 1

PARAM_GROUPS = ("encoder", "theta", "bank", "probe", "decoder")
# a checkpoint's hyper must hold each of these, though the structure reads only
# some; its "seed" is optional
_HYPER_KEYS = ("n_qubits", "k", "t_steps", "lr", "lam", "hidden_enc", "hidden_dec",
               "ansatz_layers")
TARGET_MODES = ("x_prev", "eps", "x0")


def leaky_relu(x: np.ndarray, slope: float = LEAKY_SLOPE) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def _per_row(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w @ x_b for each row x_b of x, one BLAS matrix-vector product per row; matrix
    products would load OpenBLAS's GEMM kernels and buffer (0.7 MB more peak RSS)."""
    return (w @ x[..., None])[..., 0]


@dataclass
class ComplexAffine:
    w_real: np.ndarray
    w_imag: np.ndarray
    b_real: np.ndarray
    b_imag: np.ndarray

    def apply(self, z: np.ndarray) -> np.ndarray:
        w = self.w_real + 1j * self.w_imag
        return _per_row(w, z) + (self.b_real + 1j * self.b_imag)


@dataclass
class RealAffine:
    w: np.ndarray
    b: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _per_row(self.w, x) + self.b


@dataclass
class HybridModel:
    encoder: list
    ansatz: ParamCircuit
    theta: np.ndarray
    bank: ObservableBank
    probe: GlobalProbe
    decoder: list
    hyper: dict


@dataclass
class TrainConfig:
    epochs: int = 1
    batch_size: int = 8
    lr: float = 1e-3
    seed: int = 0
    lam: float = 0.25
    target_mode: str = "x_prev"
    beta_start: float = 1e-4
    beta_end: float = 0.02
    max_steps: int | None = None

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.lr < 0 or (self.max_steps or 0) < 0:
            raise ValueError("epochs/batch_size/lr/max_steps must be non-negative sizes")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("loss mix lam must lie in [0, 1]")
        if self.target_mode not in TARGET_MODES:
            raise ValueError(f"unknown target mode {self.target_mode!r}")


def _build_model(hyper: dict) -> HybridModel:
    """The model's structure from its hyper dict alone, with every weight zero."""
    k = hyper["k"]
    enc_dims = [INPUT_DIM + 1, hyper["hidden_enc"], LATENT_DIM]
    dec_dims = [k + 1 + INPUT_DIM, hyper["hidden_dec"], INPUT_DIM]
    encoder = [ComplexAffine(np.zeros((b, a)), np.zeros((b, a)), np.zeros(b), np.zeros(b))
               for a, b in zip(enc_dims, enc_dims[1:])]
    ansatz = build_ansatz(N_QUBITS, hyper["ansatz_layers"])
    square = (LATENT_DIM, LATENT_DIM)
    bank = ObservableBank(tuple(AdaptiveObservable(np.zeros(square), np.zeros(square))
                                for _ in range(k)))
    probe_circ = build_ansatz(N_QUBITS, 1)
    probe = GlobalProbe(probe_circ, np.zeros(probe_circ.n_params))
    decoder = [RealAffine(np.zeros((b, a)), np.zeros(b))
               for a, b in zip(dec_dims, dec_dims[1:])]
    return HybridModel(encoder, ansatz, np.zeros(ansatz.n_params), bank, probe, decoder,
                       hyper)


def _init_range(model: HybridModel, name: str):
    """(low, high) of the uniform draw for the table tensor `name`: angles in
    [0, 2 pi), bank entries in +-1/D, a layer's weights and biases in +-1/sqrt(fan-in)."""
    group, *rest = name.split(".")
    if group in ("theta", "probe"):
        return 0.0, 2.0 * np.pi
    if group == "bank":
        bound = 1.0 / LATENT_DIM
    else:
        layer = getattr(model, group)[int(rest[0])]
        bound = 1.0 / np.sqrt((layer.w_real if group == "encoder" else layer.w).shape[1])
    return -bound, bound


def init_model(seed: int, k: int = 16, t_steps: int = 10, hidden_enc: int = 64,
               hidden_dec: int = 256, ansatz_layers: int = 2, lr: float = 1e-3,
               lam: float = 0.25) -> HybridModel:
    """Fresh model: the structure comes from its hyper dict, then one walk over
    param_tensors fills each tensor from rng.uniform in table order, so a seed
    pins every weight."""
    model = _build_model(dict(n_qubits=N_QUBITS, k=k, t_steps=t_steps, lr=lr, lam=lam,
                              hidden_enc=hidden_enc, hidden_dec=hidden_dec,
                              ansatz_layers=ansatz_layers, seed=seed))
    rng = np.random.default_rng(seed)
    for name, arr in param_tensors(model):
        arr[...] = rng.uniform(*_init_range(model, name), arr.shape)
    return model


def _timesteps(ts, n_rows: int, t_min: int, t_steps: int) -> np.ndarray:
    """ts as n_rows floats, each an integer in t_min..t_steps; errors name the row."""
    ts = np.asarray(ts)
    if ts.shape != (n_rows,):
        raise ValueError(f"expected {n_rows} timesteps, got shape {ts.shape}")
    bad = np.flatnonzero((ts != np.round(ts)) | (ts < t_min) | (ts > t_steps))
    if bad.size:
        raise ValueError(f"timestep {ts[bad[0]]} is not an integer in {t_min}..{t_steps} "
                         f"(batch index {bad[0]})")
    return ts.astype(float)


def _rows(a, what: str) -> np.ndarray:
    """a as a finite (B, INPUT_DIM) block with B >= 1; a non-finite row is named."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != INPUT_DIM or len(a) == 0:
        raise ValueError(f"expected {what} of shape (B, {INPUT_DIM}), got {a.shape}")
    bad = np.flatnonzero(~np.all(np.isfinite(a), axis=1))
    if bad.size:
        raise ValueError(f"non-finite {what} (batch index {bad[0]})")
    return a


def _encode(model: HybridModel, X: np.ndarray, time_fracs: np.ndarray):
    """Complex encoder stack on the rows [x_b || time_frac_b]: latents, unit states,
    norms and each layer's input rows. No activation sits between the layers: a
    modulus threshold z * max(0, |z| - tau)/|z| at the model's fixed tau = 0 is the
    identity.
    """
    z = np.concatenate([X, time_fracs[:, None]], axis=1).astype(complex)
    inputs = []
    for layer in model.encoder:
        inputs.append(z)
        z = layer.apply(z)
    r = np.linalg.norm(z, axis=1)
    zero = np.flatnonzero(r == 0.0)
    if zero.size:
        raise ValueError("encoder latent is all zero; amplitude encoding undefined "
                         f"(batch index {zero[0]})")
    return z, z / r[:, None], r, inputs


def forward_trace(model: HybridModel, X, ts):
    """Forward pass over a (B, 256) block at B timesteps in 0..T, keeping the intermediates.

    The ansatz runs once on the (16, B) block of encoded states. The K bank features
    and the probe's <psi|(U+U^dag)/2|psi> (the ancilla Hadamard test's Re<psi|U|psi>)
    are one contraction with the stacked (K+1, 16, 16) Hermitians.
    """
    X = _rows(X, "input")
    t_steps = model.hyper["t_steps"]
    ts = _timesteps(ts, len(X), 0, t_steps)

    z, psi_in, r, enc_inputs = _encode(model, X, ts / t_steps)
    psi_out = run_block(model.ansatz, psi_in.T, effective_angles(model.ansatz, model.theta))
    obs = np.stack([hermitize(o) for o in model.bank.observables]
                   + [probe_hermitian_part(model.probe)])
    vals = np.einsum("ib,kij,jb->bk", psi_out.conj(), obs, psi_out)
    if np.max(np.abs(vals.imag)) > REAL_TOL:
        raise ValueError(f"expectation has imaginary residue {np.max(np.abs(vals.imag)):.3e}")
    feats = vals.real

    dec_inputs, pre_acts = [], []
    h = np.concatenate([feats, X], axis=1)
    for i, layer in enumerate(model.decoder):
        dec_inputs.append(h)
        h = layer.apply(h)
        if i < len(model.decoder) - 1:
            pre_acts.append(h)
            h = leaky_relu(h)
    bad = np.flatnonzero(~np.all(np.isfinite(h), axis=1))
    if bad.size:
        raise ValueError(f"non-finite model output (batch index {bad[0]})")
    return h, dict(out=h, z=z, r=r, enc_inputs=enc_inputs, psi_out=psi_out, obs=obs,
                   feats=feats, dec_inputs=dec_inputs, pre_acts=pre_acts)


def forward(model: HybridModel, x_t, t: int) -> np.ndarray:
    """The model on one input, the B = 1 case of forward_trace."""
    out, _ = forward_trace(model, np.asarray(x_t, dtype=float)[None], [t])
    return out[0]


def _batch_loss(model: HybridModel, X, ts, targets, lam: float):
    """The mixed objective, mean over rows of (1-lam) * MSE + lam * infidelity.

    Timesteps are integers in 1..T; the infidelity compares the ansatz output with
    the encoded target at time (t-1)/T and is skipped at lam = 0. Returns (loss,
    mse rows, infidelity rows, forward trace, target trace or None).
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    t_steps = model.hyper["t_steps"]
    ts = _timesteps(ts, len(X), 1, t_steps)
    out, tr = forward_trace(model, X, ts)
    targets = _rows(targets, "target")
    diff = out - targets
    mse = np.mean(diff * diff, axis=1)
    infid = np.zeros(len(out))
    tgt = None
    if lam > 0.0:
        z, psi, r, inputs = _encode(model, targets, (ts - 1) / t_steps)
        overlap = np.sum(psi.conj() * tr["psi_out"].T, axis=1)
        infid = 1.0 - np.minimum(np.abs(overlap) ** 2, 1.0)
        tgt = {"z": z, "psi": psi, "r": r, "enc_inputs": inputs, "overlap": overlap}
    total = float(np.mean((1.0 - lam) * mse + lam * infid))
    return total, mse, infid, tr, tgt


def loss_components(model: HybridModel, x_t, t: int, target, lam: float):
    """(mse, infidelity) of one sample's mixed objective; infidelity is 0 at lam = 0."""
    _, mse, infid, _, _ = _batch_loss(model, *_stack_batch([(x_t, t, target)]), lam)
    return float(mse[0]), float(infid[0])


def loss(model: HybridModel, x_t, t: int, target, lam: float) -> float:
    return _batch_loss(model, *_stack_batch([(x_t, t, target)]), lam)[0]


def param_tensors(model: HybridModel):
    """(name, array) pairs in the fixed declaration order used everywhere.

    This is the model's one parameter table: gradients, Adam moments,
    checkpoint payloads and the gradient audit all follow it. A tensor's
    group (one of PARAM_GROUPS) is the first dotted part of its name.
    """
    out = []
    for i, l in enumerate(model.encoder):
        out += [
            (f"encoder.{i}.w_real", l.w_real),
            (f"encoder.{i}.w_imag", l.w_imag),
            (f"encoder.{i}.b_real", l.b_real),
            (f"encoder.{i}.b_imag", l.b_imag),
        ]
    out.append(("theta", model.theta))
    for i, o in enumerate(model.bank.observables):
        out += [(f"bank.{i}.m_real", o.m_real), (f"bank.{i}.m_imag", o.m_imag)]
    out.append(("probe", model.probe.params))
    for i, l in enumerate(model.decoder):
        out += [(f"decoder.{i}.w", l.w), (f"decoder.{i}.b", l.b)]
    return out


def _stack_batch(batch):
    """(X, ts, targets) blocks from (x_t, t, target) rows; a misshapen row is named."""
    if len(batch) == 0:
        raise ValueError("backward needs a non-empty batch")
    x_rows, ts, targets = zip(*batch)
    for what, rows in (("input", x_rows), ("target", targets)):
        for idx, row in enumerate(rows):
            if np.shape(row) != (INPUT_DIM,):
                raise ValueError(f"expected {what} shape ({INPUT_DIM},), got "
                                 f"{np.shape(row)} (batch index {idx})")
    return np.array(x_rows, dtype=float), ts, np.array(targets, dtype=float)


def _normalize_backward(z: np.ndarray, r: np.ndarray, g_psi: np.ndarray) -> np.ndarray:
    """Cotangent of the rows z from that of psi = z / |z|."""
    radial = np.sum(z.conj() * g_psi, axis=1).real
    return g_psi / r[:, None] - z * (radial / r**3)[:, None]


def backward(model: HybridModel, batch, lam: float | None = None):
    """Mean loss over the batch and its gradient, keyed like param_tensors.

    batch rows are (x_t, t, target) triples with t in 1..T. One forward_trace covers
    the batch, and the classical stacks backpropagate as (B, .) matmuls. Row b's
    theta-dependent terms (K features, probe feature, infidelity) form one Hermitian
    G_b; one adjoint sweep from the forward's output block gives the theta gradient
    and C^dag G_b psi_b, the encoder's cotangent. One more gives the probe gradient.
    """
    if lam is None:
        lam = model.hyper.get("lam", 0.25)
    X, ts, targets = _stack_batch(batch)
    total, _, _, tr, tgt = _batch_loss(model, X, ts, targets, lam)
    k = model.bank.k
    # terms add into a zeroed table; Adam then reuses their freed temporaries (peak RSS)
    grads = {name: np.zeros_like(a) for name, a in param_tensors(model)}

    # decoder backprop from the pixel loss
    g = (1.0 - lam) * 2.0 * (tr["out"] - targets) / INPUT_DIM
    for i in reversed(range(len(model.decoder))):
        grads[f"decoder.{i}.w"] += _per_row(tr["dec_inputs"][i].T, g.T)
        grads[f"decoder.{i}.b"] += g.sum(axis=0)
        g = _per_row(model.decoder[i].w.T, g)
        if i > 0:
            g = g * np.where(tr["pre_acts"][i - 1] > 0, 1.0, LEAKY_SLOPE)
    u_feat = g[:, : k + 1]

    psi_out = tr["psi_out"]
    g_mats = np.einsum("bk,kij->bij", u_feat, tr["obs"])
    if tgt is not None:
        g_mats -= lam * np.einsum("bi,bj->bij", tgt["psi"], tgt["psi"].conj())
    bra = np.einsum("bij,jb->ib", g_mats, psi_out)
    d_theta, c_dag_bra = adjoint_gradient(model.ansatz, model.theta, psi_out, bra, 2.0)
    grads["theta"] += d_theta
    grads["probe"] += grad_hadamard_wrt_probe(psi_out, model.probe, u_feat[:, k])
    outer = np.einsum("bk,ib,jb->kij", u_feat[:, :k], psi_out.conj(), psi_out)
    for j in range(k):
        grads[f"bank.{j}.m_real"] += outer[j].real
        grads[f"bank.{j}.m_imag"] -= outer[j].imag

    # encoder main branch: g_psi = 2 C^dag (G psi_out), then psi = z / r
    enc_inputs = tr["enc_inputs"]
    g_z = _normalize_backward(tr["z"], tr["r"], 2.0 * c_dag_bra.T)
    if tgt is not None:
        # target branch of the infidelity: d(1-|o|^2)/d tvec, tvec = z_t / r_t;
        # its rows join the main branch's in one pass through the stack
        g_tlat = -lam * 2.0 * tgt["overlap"].conj()[:, None] * psi_out.T
        enc_inputs = [np.concatenate(p) for p in zip(enc_inputs, tgt["enc_inputs"])]
        g_z = np.concatenate([g_z, _normalize_backward(tgt["z"], tgt["r"], g_tlat)])
    # the linear complex stack; with the cotangent convention Re(g) = dL/dRe,
    # Im(g) = dL/dIm, a layer's weight gradient is g^T conj(z), its input's g conj(W)
    for i in reversed(range(len(model.encoder))):
        layer = model.encoder[i]
        gw, gb = _per_row(enc_inputs[i].conj().T, g_z.T), g_z.sum(axis=0)
        for part, d in (("w_real", gw.real), ("w_imag", gw.imag), ("b_real", gb.real),
                        ("b_imag", gb.imag)):
            grads[f"encoder.{i}.{part}"] += d
        if i > 0:
            g_z = _per_row((layer.w_real - 1j * layer.w_imag).T, g_z)

    for name, g in grads.items():
        g /= len(X)
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite gradient in parameter {name}")
    return total, grads


@dataclass
class AdamState:
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def init_adam(model: HybridModel) -> AdamState:
    tensors = [arr for _, arr in param_tensors(model)]
    return AdamState(0, [np.zeros_like(a) for a in tensors], [np.zeros_like(a) for a in tensors])


def adam_step(model: HybridModel, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    state.step += 1
    bc1 = 1.0 - beta1**state.step
    bc2 = 1.0 - beta2**state.step
    for (name, p), m, v in zip(param_tensors(model), state.m, state.v):
        g = grads[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def _target_for_mode(mode: str, x0, t, sched: NoiseSchedule, eps):
    if mode == "eps":
        return eps
    if mode == "x0":
        return x0
    if t == 1:
        return x0
    return forward_sample(x0, t - 1, sched, eps).x_t


def train(model: HybridModel, config: TrainConfig, dataset,
          opt: AdamState | None = None, rng: np.random.Generator | None = None,
          step_offset: int = 0):
    """Adam training over noised (x_t, target) pairs drawn from the dataset.

    Returns (log, opt, rng): log rows are (step, loss, wall_ms); passing the
    returned opt and rng back in (with step_offset) continues a run exactly
    as if it had never stopped. wall_ms is the single nondeterministic
    field; everything else is pinned by the seed. All random draws happen
    per step (batch indices without replacement, then per-sample t and
    noise), so a checkpoint taken after any step resumes bitwise.
    """
    data = np.asarray(dataset, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] != INPUT_DIM:
        raise ValueError(f"dataset must be (n, {INPUT_DIM}), got {data.shape}")
    t_steps = model.hyper["t_steps"]
    sched = linear_schedule(t_steps, config.beta_start, config.beta_end)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if opt is None:
        opt = init_adam(model)

    n = data.shape[0]
    steps_per_epoch = max(n // config.batch_size, 1)
    if config.max_steps is not None:
        total_steps = config.max_steps
    else:
        total_steps = config.epochs * steps_per_epoch
    log = []
    for step in range(total_steps):
        t0 = time.perf_counter()
        idx = rng.choice(n, size=min(config.batch_size, n), replace=False)
        batch = []
        for i in idx:
            x0 = data[i]
            t = int(rng.integers(1, t_steps + 1))
            eps = rng.standard_normal(INPUT_DIM)
            x_t = forward_sample(x0, t, sched, eps).x_t
            batch.append((x_t, t, _target_for_mode(config.target_mode, x0, t, sched, eps)))
        loss_val, grads = backward(model, batch, config.lam)
        if not np.isfinite(loss_val):
            raise RuntimeError(f"training diverged at step {step_offset + step}")
        adam_step(model, grads, opt, config.lr)
        wall_ms = (time.perf_counter() - t0) * 1e3
        log.append((step_offset + step, loss_val, wall_ms))
    return log, opt, rng


def train_log_csv(log) -> str:
    lines = ["step,loss,wall_ms"]
    for step, loss_val, wall_ms in log:
        lines.append(f"{step},{loss_val!r},{wall_ms:.3f}")
    return "\n".join(lines) + "\n"


def sample(model: HybridModel, t_steps: int, seed: int, mode: str = "x_prev",
           sched: NoiseSchedule | None = None):
    """Iterative generation from pure noise; returns [x_T, ..., x_0].

    In the default mode each network call directly predicts the previous
    step. The eps and x0 modes reconstruct the posterior mean instead; they
    exist for experimentation and share no tuning with the default.
    """
    if mode not in TARGET_MODES:
        raise ValueError(f"unknown sampling mode {mode!r}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(INPUT_DIM)
    traj = [x.copy()]
    if mode != "x_prev" and sched is None:
        sched = linear_schedule(t_steps, 1e-4, 0.02)
    for t in range(t_steps, 0, -1):
        pred = forward(model, x, t)
        if mode == "x_prev":
            x = pred
        elif mode == "eps":
            ab = sched.alpha_bar(t)
            beta = sched.beta(t)
            x = (x - beta / np.sqrt(1.0 - ab) * pred) / np.sqrt(1.0 - beta)
        else:  # x0 prediction: posterior mean of the closed-form forward
            ab = sched.alpha_bar(t)
            ab_prev = sched.alpha_bar(t - 1) if t > 1 else 1.0
            beta = sched.beta(t)
            coef0 = np.sqrt(ab_prev) * beta / (1.0 - ab)
            coeft = np.sqrt(1.0 - beta) * (1.0 - ab_prev) / (1.0 - ab)
            x = coef0 * pred + coeft * x
        traj.append(x.copy())
    return traj


def save_checkpoint(path, model: HybridModel, opt: AdamState | None = None,
                    rng_state: dict | None = None, step: int = 0) -> None:
    """Single-file format: magic, version, JSON header, float64 tensors.

    Tensor payload order matches param_tensors; Adam moments (if present)
    follow in the same order, first moments then second moments.
    """
    tensors = [arr for _, arr in param_tensors(model)]
    header = {
        "hyper": model.hyper,
        "shapes": [list(a.shape) for a in tensors],
        "has_adam": opt is not None,
        "adam_step": opt.step if opt is not None else 0,
        "rng_state": rng_state,
        "step": step,
    }
    blob = io.BytesIO()
    blob.write(CKPT_MAGIC)
    blob.write(struct.pack("<I", CKPT_VERSION))
    head = json.dumps(header).encode()
    blob.write(struct.pack("<Q", len(head)))
    blob.write(head)
    for arr in tensors:
        blob.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    if opt is not None:
        for arr in opt.m + opt.v:
            blob.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(blob.getvalue())


def load_checkpoint(path):
    """Returns dict with model, opt (or None), rng_state (or None), step."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != CKPT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    try:
        header = json.loads(raw[16: 16 + hlen].decode())
        hyper = header["hyper"]
        shapes = [tuple(s) for s in header["shapes"]]
        has_adam = bool(header["has_adam"])
        adam_step = header["adam_step"] if has_adam else 0
        if any(key not in hyper for key in _HYPER_KEYS) or hyper["n_qubits"] != N_QUBITS:
            raise KeyError("hyper")
        model = _build_model(hyper)
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError,
            AttributeError) as e:
        raise ValueError("corrupt checkpoint header") from e
    names, tensors = zip(*param_tensors(model))
    if shapes != [a.shape for a in tensors]:
        raise ValueError("checkpoint shapes do not match its hyperparameters")
    offset = 16 + hlen
    counts = [int(np.prod(s)) if s else 1 for s in shapes]
    need = sum(counts) * (3 if has_adam else 1) * 8
    if len(raw) - offset != need:
        raise ValueError("corrupt checkpoint payload (size mismatch)")

    def take(n, what):
        nonlocal offset
        vals = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).copy()
        offset += n * 8
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"checkpoint tensor {what} holds non-finite values")
        return vals

    for name, arr, cnt, shape in zip(names, tensors, counts, shapes):
        arr[...] = take(cnt, name).reshape(shape)
    opt = None
    if has_adam:
        opt = AdamState(adam_step, [], [])
        for name, cnt, shape in zip(names, counts, shapes):
            opt.m.append(take(cnt, f"adam.m.{name}").reshape(shape))
        for name, cnt, shape in zip(names, counts, shapes):
            opt.v.append(take(cnt, f"adam.v.{name}").reshape(shape))
    return {
        "model": model,
        "opt": opt,
        "rng_state": header.get("rng_state"),
        "step": header.get("step", 0),
    }


def gradient_audit(model: HybridModel, batch, lam: float | None = None,
                   n_probe: int = 20, seed: int = 0, fd_eps: float = 1e-6,
                   fault_group: str | None = None):
    """Max relative error per parameter group: analytic vs central FD.

    The analytic side is one backward() pass; the finite-difference side
    re-evaluates the mean batch loss, one batched call per nudge, with single
    scalars nudged by fd_eps.
    Relative error is |a - f| / max(|f|, 1e-3), so the usual 1e-4 pass
    threshold carries an absolute floor of 1e-7 for near-zero entries.
    fault_group flips the sign of one group's analytic gradient; it exists
    so the audit itself can be shown to catch a broken gradient.
    """
    if lam is None:
        lam = model.hyper.get("lam", 0.25)
    if fault_group is not None and fault_group not in PARAM_GROUPS:
        raise ValueError(f"unknown parameter group {fault_group!r}")
    _, grads = backward(model, batch, lam)
    tensors = param_tensors(model)
    rng = np.random.default_rng(seed)
    X, ts, targets = _stack_batch(batch)

    report = {}
    for group in PARAM_GROUPS:
        idxs = [i for i, (name, _) in enumerate(tensors) if name.split(".")[0] == group]
        bounds = np.cumsum([tensors[i][1].size for i in idxs])
        total = int(bounds[-1])
        picks = rng.choice(total, size=min(n_probe, total), replace=False)
        worst = 0.0
        for pos in picks:
            which = int(np.searchsorted(bounds, pos, side="right"))
            name, arr = tensors[idxs[which]]
            flat = int(pos - (bounds[which - 1] if which else 0))
            a = float(grads[name].flat[flat])
            if fault_group == group:
                a = -a
            orig = arr.flat[flat]
            arr.flat[flat] = orig + fd_eps
            hi = _batch_loss(model, X, ts, targets, lam)[0]
            arr.flat[flat] = orig - fd_eps
            lo = _batch_loss(model, X, ts, targets, lam)[0]
            arr.flat[flat] = orig
            fd = (hi - lo) / (2.0 * fd_eps)
            worst = max(worst, abs(a - fd) / max(abs(fd), 1e-3))
        report[group] = worst
    return report
