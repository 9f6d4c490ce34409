"""Hybrid denoising model: complex encoder, quantum bottleneck, skip decoder.

The forward path flattens a 16x16 image plus a normalized timestep into a
complex linear stack, amplitude-encodes the 16-dim latent onto 4 qubits,
runs the layered ansatz, measures K adaptive observables plus one ancilla
Hadamard-test feature, and decodes [features || input] back to pixel space.

Training minimizes (1-lam) * MSE(prediction, target) + lam * infidelity
between the post-ansatz state and the amplitude-encoded latent of the
target. Gradients are exact: reverse-mode through the classical stacks and
the amplitude normalization, one batched adjoint sweep each for the ansatz
and the probe angles per step, and the linear rule for observable entries.
"""
from __future__ import annotations

import io
import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .circuit import ParamCircuit, build_ansatz, circuit_unitary, run_circuit
from .diffusion import NoiseSchedule, forward_sample, linear_schedule
from .measure import (
    GlobalProbe,
    ObservableBank,
    ano_features,
    grad_expectation_wrt_circuit,
    grad_hadamard_wrt_probe,
    hadamard_test,
    hermitize,
    probe_hermitian_part,
    random_bank,
)
from .qcore import StateVector

INPUT_DIM = 256
N_QUBITS = 4
LATENT_DIM = 2**N_QUBITS
LEAKY_SLOPE = 0.01

CKPT_MAGIC = b"QDFC"
CKPT_VERSION = 1

PARAM_GROUPS = ("encoder", "theta", "bank", "probe", "decoder")


def leaky_relu(x: np.ndarray, slope: float = LEAKY_SLOPE) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


@dataclass
class ComplexAffine:
    w_real: np.ndarray
    w_imag: np.ndarray
    b_real: np.ndarray
    b_imag: np.ndarray

    def apply(self, z: np.ndarray) -> np.ndarray:
        w = self.w_real + 1j * self.w_imag
        return w @ z + (self.b_real + 1j * self.b_imag)


@dataclass
class RealAffine:
    w: np.ndarray
    b: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.w @ x + self.b


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
        if self.epochs < 0 or self.batch_size < 1 or self.lr < 0:
            raise ValueError("epochs/batch_size/lr must be non-negative sizes")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("loss mix lam must lie in [0, 1]")
        if self.target_mode not in ("x_prev", "eps", "x0"):
            raise ValueError(f"unknown target mode {self.target_mode!r}")


def _uniform(rng, bound, shape):
    return rng.uniform(-bound, bound, size=shape)


def _init_complex_affine(rng, n_in: int, n_out: int) -> ComplexAffine:
    b = 1.0 / np.sqrt(n_in)
    return ComplexAffine(
        _uniform(rng, b, (n_out, n_in)),
        _uniform(rng, b, (n_out, n_in)),
        _uniform(rng, b, n_out),
        _uniform(rng, b, n_out),
    )


def _init_real_affine(rng, n_in: int, n_out: int) -> RealAffine:
    b = 1.0 / np.sqrt(n_in)
    return RealAffine(_uniform(rng, b, (n_out, n_in)), _uniform(rng, b, n_out))


def init_model(
    seed: int,
    k: int = 16,
    t_steps: int = 10,
    hidden_enc: int = 64,
    hidden_dec: int = 256,
    ansatz_layers: int = 2,
    lr: float = 1e-3,
    lam: float = 0.25,
) -> HybridModel:
    """Fresh model; all draw order is fixed so a seed pins every weight."""
    return _build_model(seed, k, t_steps, hidden_enc, hidden_dec, ansatz_layers, lr, lam,
                        np.random.default_rng(seed))


class _ZeroDraws:
    """Stands in for the generator where a checkpoint payload supplies every weight."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


def _build_model(seed, k, t_steps, hidden_enc, hidden_dec, ansatz_layers, lr, lam,
                 rng) -> HybridModel:
    """The model's structure with every weight from rng.uniform, in a fixed order."""
    enc_dims = [INPUT_DIM + 1, hidden_enc, LATENT_DIM]
    dec_dims = [k + 1 + INPUT_DIM, hidden_dec, INPUT_DIM]
    encoder = [_init_complex_affine(rng, a, b) for a, b in zip(enc_dims, enc_dims[1:])]
    ansatz = build_ansatz(N_QUBITS, ansatz_layers)
    theta = rng.uniform(0.0, 2.0 * np.pi, ansatz.n_params)
    bank = random_bank(k, LATENT_DIM, rng)
    probe_circ = build_ansatz(N_QUBITS, 1)
    probe = GlobalProbe(probe_circ, rng.uniform(0.0, 2.0 * np.pi, probe_circ.n_params))
    decoder = [_init_real_affine(rng, a, b) for a, b in zip(dec_dims, dec_dims[1:])]
    hyper = {
        "n_qubits": N_QUBITS,
        "k": k,
        "t_steps": t_steps,
        "lr": lr,
        "lam": lam,
        "hidden_enc": hidden_enc,
        "hidden_dec": hidden_dec,
        "ansatz_layers": ansatz_layers,
        "seed": seed,
    }
    return HybridModel(encoder, ansatz, theta, bank, probe, decoder, hyper)


def _encode_latent(model: HybridModel, x: np.ndarray, time_frac: float):
    """Complex encoder stack on [x || time_frac]; returns latent and layer inputs.

    No activation sits between the layers: a modulus threshold
    z * max(0, |z| - tau)/|z| at the model's fixed tau = 0 is the identity.
    """
    z = np.concatenate([x, [time_frac]]).astype(complex)
    inputs = []
    for layer in model.encoder:
        inputs.append(z)
        z = layer.apply(z)
    return z, inputs


def _normalize_latent(z: np.ndarray):
    r = np.linalg.norm(z)
    if r == 0.0:
        raise ValueError("encoder latent is all zero; amplitude encoding undefined")
    return z / r, float(r)


def forward_trace(model: HybridModel, x_t, t: int):
    """Forward pass keeping every intermediate needed by the backward pass."""
    x_t = np.asarray(x_t, dtype=float)
    if x_t.shape != (INPUT_DIM,):
        raise ValueError(f"expected input shape ({INPUT_DIM},), got {x_t.shape}")
    t_steps = model.hyper["t_steps"]
    if not 0 <= t <= t_steps:
        raise ValueError(f"timestep {t} outside 0..{t_steps}")

    z, enc_inputs = _encode_latent(model, x_t, t / t_steps)
    psi_vec, r = _normalize_latent(z)
    psi_in = StateVector(psi_vec)
    psi_out = run_circuit(model.ansatz, psi_in, model.theta)
    feats = np.concatenate(
        [ano_features(psi_out, model.bank), [hadamard_test(psi_out, model.probe)]]
    )

    dec_in = np.concatenate([feats, x_t])
    dec_inputs, pre_acts = [], []
    h = dec_in
    for i, layer in enumerate(model.decoder):
        dec_inputs.append(h)
        h = layer.apply(h)
        if i < len(model.decoder) - 1:
            pre_acts.append(h)
            h = leaky_relu(h)
    out = h
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite model output")
    return out, {
        "x_t": x_t,
        "t": t,
        "z": z,
        "r": r,
        "enc_inputs": enc_inputs,
        "psi_in": psi_in,
        "psi_out": psi_out,
        "feats": feats,
        "dec_inputs": dec_inputs,
        "pre_acts": pre_acts,
        "out": out,
    }


def forward(model: HybridModel, x_t, t: int) -> np.ndarray:
    out, _ = forward_trace(model, x_t, t)
    return out


def _target_latent(model: HybridModel, target: np.ndarray, time_frac: float):
    z, inputs = _encode_latent(model, np.asarray(target, dtype=float), time_frac)
    vec, r = _normalize_latent(z)
    return vec, r, z, inputs


def loss_components(model: HybridModel, x_t, t: int, target, lam: float):
    """(mse, infidelity) of the mixed objective; infidelity skipped at lam=0."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    out, trace = forward_trace(model, x_t, t)
    target = np.asarray(target, dtype=float)
    diff = out - target
    mse = float(np.mean(diff * diff))
    if lam == 0.0:
        return mse, 0.0
    t_steps = model.hyper["t_steps"]
    tvec, _, _, _ = _target_latent(model, target, (t - 1) / t_steps)
    overlap = np.vdot(tvec, trace["psi_out"].amps)
    return mse, float(1.0 - min(abs(overlap) ** 2, 1.0))


def loss(model: HybridModel, x_t, t: int, target, lam: float) -> float:
    mse, infid = loss_components(model, x_t, t, target, lam)
    return (1.0 - lam) * mse + lam * infid


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


def _complex_affine_backward(layer: ComplexAffine, z_in: np.ndarray, g_out: np.ndarray):
    """Cotangent convention: Re(g) = dL/dRe, Im(g) = dL/dIm."""
    gr, gi = g_out.real, g_out.imag
    zr, zi = z_in.real, z_in.imag
    dwr = np.outer(gr, zr) + np.outer(gi, zi)
    dwi = np.outer(gi, zr) - np.outer(gr, zi)
    g_in = (layer.w_real.T @ gr + layer.w_imag.T @ gi) + 1j * (
        layer.w_real.T @ gi - layer.w_imag.T @ gr
    )
    return (dwr, dwi, gr.copy(), gi.copy()), g_in


def _encoder_backward(model: HybridModel, enc_inputs, g_latent, grads):
    """Accumulate complex-stack gradients into grads; the stack is linear."""
    g = g_latent
    for i in reversed(range(len(model.encoder))):
        parts, g = _complex_affine_backward(model.encoder[i], enc_inputs[i], g)
        for part, d in zip(("w_real", "w_imag", "b_real", "b_imag"), parts):
            grads[f"encoder.{i}.{part}"] += d


def backward(model: HybridModel, batch, lam: float | None = None):
    """Mean loss over the batch and its gradient, keyed like param_tensors.

    batch rows are (x_t, t, target) triples. The per-sample loop backpropagates
    the classical stacks and collects, per sample, the ansatz input and output
    states, one combined Hermitian G_b (the K features, the Hadamard feature
    and the infidelity term) and the Hadamard feature's cotangent. Then one
    adjoint sweep over the whole batch gives the theta gradient, and one more
    the probe gradient, without any ancilla simulation.
    """
    if len(batch) == 0:
        raise ValueError("backward needs a non-empty batch")
    if lam is None:
        lam = model.hyper.get("lam", 0.25)
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    t_steps = model.hyper["t_steps"]
    k = model.bank.k
    grads = {name: np.zeros_like(a) for name, a in param_tensors(model)}
    h_mats = [hermitize(o) for o in model.bank.observables]
    w_sym = probe_hermitian_part(model.probe)
    u_ansatz = circuit_unitary(model.ansatz, model.theta)
    total_loss = 0.0
    psi_ins, psi_outs, g_mats, u_probe = [], [], [], []

    for idx, (x_t, t, target) in enumerate(batch):
        try:
            out, tr = forward_trace(model, x_t, t)
        except ValueError as e:
            raise ValueError(f"{e} (batch index {idx})") from e
        target = np.asarray(target, dtype=float)
        diff = out - target
        total_loss += (1.0 - lam) * float(np.mean(diff * diff))

        # decoder backprop from the pixel loss
        g = (1.0 - lam) * 2.0 * diff / INPUT_DIM
        for i in reversed(range(len(model.decoder))):
            layer = model.decoder[i]
            grads[f"decoder.{i}.w"] += np.outer(g, tr["dec_inputs"][i])
            grads[f"decoder.{i}.b"] += g
            g = layer.w.T @ g
            if i > 0:
                mask = np.where(tr["pre_acts"][i - 1] > 0, 1.0, LEAKY_SLOPE)
                g = g * mask
        u_feat = g[: k + 1]

        psi_out = tr["psi_out"].amps
        # combined Hermitian for every theta-dependent term of this sample
        g_mat = np.zeros((LATENT_DIM, LATENT_DIM), dtype=complex)
        for j in range(k):
            g_mat += u_feat[j] * h_mats[j]
        g_mat += u_feat[k] * w_sym
        tvec = None
        if lam > 0.0:
            tvec, _, z_tgt, tgt_inputs = _target_latent(model, target, (t - 1) / t_steps)
            overlap = np.vdot(tvec, psi_out)
            total_loss += lam * float(1.0 - min(abs(overlap) ** 2, 1.0))
            g_mat -= lam * np.outer(tvec, tvec.conj())

        psi_ins.append(tr["psi_in"].amps)
        psi_outs.append(psi_out)
        g_mats.append(g_mat)
        u_probe.append(u_feat[k])

        outer = np.outer(psi_out.conj(), psi_out)
        for j in range(k):
            grads[f"bank.{j}.m_real"] += u_feat[j] * outer.real
            grads[f"bank.{j}.m_imag"] += -u_feat[j] * outer.imag

        # encoder main branch: g_psi = 2 C^dag (G psi_out), then the
        # normalization Jacobian of psi = z/r
        g_psi = 2.0 * (u_ansatz.conj().T @ (g_mat @ psi_out))
        z, r = tr["z"], tr["r"]
        g_z = g_psi / r - z * (np.real(np.vdot(z, g_psi)) / r**3)
        _encoder_backward(model, tr["enc_inputs"], g_z, grads)

        if lam > 0.0:
            # target branch of the infidelity: d(1-|o|^2)/d tvec, tvec = z_t/r_t
            g_tlat = -lam * 2.0 * np.conj(np.vdot(tvec, psi_out)) * psi_out
            r_t = np.linalg.norm(z_tgt)
            g_zt = g_tlat / r_t - z_tgt * (np.real(np.vdot(z_tgt, g_tlat)) / r_t**3)
            _encoder_backward(model, tgt_inputs, g_zt, grads)

    grads["theta"] += grad_expectation_wrt_circuit(
        model.ansatz, np.stack(psi_ins, axis=1), model.theta, np.stack(g_mats)
    )
    grads["probe"] += grad_hadamard_wrt_probe(
        np.stack(psi_outs, axis=1), model.probe, u_probe
    )

    n = float(len(batch))
    for name, g in grads.items():
        g /= n
        if not np.all(np.isfinite(g)):
            raise RuntimeError(f"non-finite gradient in parameter {name}")
    return total_loss / n, grads


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
        model = _build_model(
            hyper.get("seed", 0), hyper["k"], hyper["t_steps"], hyper["hidden_enc"],
            hyper["hidden_dec"], hyper["ansatz_layers"], hyper["lr"], hyper["lam"],
            _ZeroDraws(),
        )
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
    re-evaluates the mean batch loss with single scalars nudged by fd_eps.
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

    def batch_loss() -> float:
        return float(np.mean([loss(model, x_t, t, target, lam) for x_t, t, target in batch]))

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
            hi = batch_loss()
            arr.flat[flat] = orig - fd_eps
            lo = batch_loss()
            arr.flat[flat] = orig
            fd = (hi - lo) / (2.0 * fd_eps)
            worst = max(worst, abs(a - fd) / max(abs(fd), 1e-3))
        report[group] = worst
    return report
