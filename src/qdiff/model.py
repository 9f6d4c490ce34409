"""Hybrid denoising model: complex encoder, quantum bottleneck, skip decoder.

One batched path serves a (B, 256) block of 16x16 images: a complex linear
stack on each [image || normalized timestep] row, amplitude encoding onto 4
qubits, the ansatz's dense unitary on each encoded state, K adaptive
observables plus the probe feature <psi|(U+U^dag)/2|psi>, and a decoder on
[features || input]. Each forward builds both circuits' fused-unit matrices
once (circuit.unit_daggers) into their suffix products (circuit.unit_suffixes),
whose first entry gives the ansatz's and the probe's unitaries; backward's two
adjoint gradients read the same stacks. The gate-by-gate circuit.run_block
stays the reference for the ansatz's output. The probe feature equals the
ancilla Hadamard test's Re<psi|U|psi>; measure.hadamard_test stays as its
reference.

Training minimizes (1-lam) * MSE(prediction, target) + lam * infidelity
between the post-ansatz state and the amplitude-encoded latent of the target.
lam, lr and the target mode are read from model.hyper alone, whose training
settings _build_model checks by TrainConfig's rule for fresh and loaded models.
Gradients are exact: (B, .) matmuls through the classical stacks and the
amplitude normalization, one adjoint gradient each for the ansatz (it also
pulls the encoder's cotangent back) and the probe angles, and the linear rule
for observable entries.
"""
from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import struct
import time
import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import ParamCircuit, build_ansatz, unit_daggers, unit_suffixes
from .diffusion import NoiseSchedule, check_timesteps, forward_sample, linear_schedule
from .measure import REAL_TOL, adjoint_gradient
from .qcore import _check_int, _is_int
# unused here; perfbench/spans.py's tracer wraps these names
from .circuit import circuit_unitary, run_circuit
from .measure import (
    ano_features,
    grad_expectation_wrt_circuit,
    grad_hadamard_wrt_probe,
    hadamard_test,
    probe_hermitian_part,
)

INPUT_DIM = 256
N_QUBITS = 4
LATENT_DIM = 2**N_QUBITS
LEAKY_SLOPE = 0.01

CKPT_MAGIC = b"QDFC"
CKPT_VERSION = 3  # the one format load_checkpoint reads: versions 1 and 2 lacked its checksums

PARAM_GROUPS = ("encoder", "theta", "bank", "probe", "decoder")
ADAM_CHUNK = 16384  # adam_step's entries per pass; whole-buffer temporaries lift peak RSS
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8
# the settings that fix the model's shape, each an int >= 1 (_build_model checks)
STRUCTURE_DEFAULTS = dict(k=16, t_steps=10, hidden_enc=64, hidden_dec=256, ansatz_layers=2)
TARGET_MODES = ("x_prev", "eps", "x0")
# the training settings init_model records as TrainConfig's and train() as its config's
_TRAINED_KEYS = ("lr", "lam", "target_mode", "beta_start", "beta_end")
# a checkpoint's hyper must hold each of these; its "seed" is optional
_HYPER_KEYS = ("n_qubits", *STRUCTURE_DEFAULTS, *_TRAINED_KEYS)


def leaky_relu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, LEAKY_SLOPE * x)


def _per_row(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w @ x_b for each row x_b of x, one BLAS matrix-vector product per row, so a
    row's result does not depend on how many rows there are: the forward uses it
    so that sample_block's rows are its single trajectories bit for bit. A matrix
    product's blocking could change a row's last bits with B; backward, which
    needs no such independence, uses matrix products."""
    return (w @ x[..., None])[..., 0]


@dataclass
class HybridModel:
    ansatz: ParamCircuit
    probe: ParamCircuit  # its angles are tensors["probe"]
    tensors: dict  # table name -> view of params, the names backward's gradients carry
    bank: np.ndarray  # (k, 2, D, D): observable j's free matrix is bank[j, 0] + 1j * bank[j, 1]
    hyper: dict
    params: np.ndarray  # the one flat buffer; every param_tensors array is a view of it
    layout: tuple  # _layout's rows, which place each named tensor in params


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
        _check_int("epochs", self.epochs, 0)
        _check_int("batch_size", self.batch_size, 1)
        _check_int("seed", self.seed, 0)
        if self.max_steps is not None:
            _check_int("max_steps", self.max_steps, 0)
        for key in ("lr", "lam", "beta_start", "beta_end"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{key} must be a real number, got {value!r}")
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"lr must be a finite number >= 0, got {self.lr!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("loss mix lam must lie in [0, 1]")
        if self.target_mode not in TARGET_MODES:
            raise ValueError(f"unknown target mode {self.target_mode!r}")
        if not 0.0 < self.beta_start <= self.beta_end < 1.0:
            raise ValueError("need 0 < beta_start <= beta_end < 1")


def _layout(hyper: dict, n_theta: int, n_probe: int) -> tuple:
    """The parameter table: (name, shape, (low, high)) rows in buffer order, so each of
    PARAM_GROUPS is one run of rows. A tensor's init draw is uniform on (low, high):
    a layer's weights and biases in +-1/sqrt(fan-in), angles in [0, 2 pi), bank
    entries in +-1/D. Observable j of the bank is the pair bank.{j}.m_real/m_imag."""
    enc_dims = [INPUT_DIM + 1, hyper["hidden_enc"], LATENT_DIM]
    dec_dims = [hyper["k"] + 1 + INPUT_DIM, hyper["hidden_dec"], INPUT_DIM]
    angles, bank_bound = (0.0, 2.0 * np.pi), 1.0 / LATENT_DIM
    rows = []
    for i, (a, b) in enumerate(zip(enc_dims, enc_dims[1:])):
        fan = (-1.0 / np.sqrt(a), 1.0 / np.sqrt(a))
        rows += [(f"encoder.{i}.{part}", shape, fan) for part, shape in
                 (("w_real", (b, a)), ("w_imag", (b, a)), ("b_real", (b,)), ("b_imag", (b,)))]
    rows.append(("theta", (n_theta,), angles))
    rows += [(f"bank.{j}.{part}", (LATENT_DIM, LATENT_DIM), (-bank_bound, bank_bound))
             for j in range(hyper["k"]) for part in ("m_real", "m_imag")]
    rows.append(("probe", (n_probe,), angles))
    for i, (a, b) in enumerate(zip(dec_dims, dec_dims[1:])):
        fan = (-1.0 / np.sqrt(a), 1.0 / np.sqrt(a))
        rows += [(f"decoder.{i}.w", (b, a), fan), (f"decoder.{i}.b", (b,), fan)]
    return tuple(rows)


def _build_model(hyper: dict) -> HybridModel:
    """The model's structure from its hyper dict alone, with every weight zero: each
    layout tensor is a view of its slice of one float64 vector, model.params, and
    model.tensors maps its name to it (_layout gives each stack two layers). Fresh and
    loaded models alike have their training settings checked by TrainConfig first."""
    for key in STRUCTURE_DEFAULTS:
        if type(hyper[key]) is not int or hyper[key] < 1:
            raise ValueError(f"{key} must be an integer >= 1, got {hyper[key]!r}")
    TrainConfig(**{key: hyper[key] for key in _TRAINED_KEYS})
    ansatz = build_ansatz(N_QUBITS, hyper["ansatz_layers"])
    probe = build_ansatz(N_QUBITS, 1)
    layout = _layout(hyper, ansatz.n_params, probe.n_params)
    params = np.zeros(sum(math.prod(shape) for _, shape, _ in layout))
    tensors = dict(zip((name for name, _, _ in layout), _views(params, layout)))
    bank = _group_view(params, layout, "bank").reshape(hyper["k"], 2, LATENT_DIM, LATENT_DIM)
    return HybridModel(ansatz, probe, tensors, bank, hyper, params, layout)


@lru_cache(maxsize=64)
def _offsets(layout: tuple) -> tuple:
    """Each layout row's offset in the flat buffer, then the buffer's size, once per layout."""
    return tuple(itertools.accumulate((math.prod(shape) for _, shape, _ in layout), initial=0))


def _views(vec: np.ndarray, layout: tuple) -> list:
    """Consecutive slices of the flat vec, reshaped to the layout's shapes (views, not copies)."""
    ends = _offsets(layout)
    return [vec[a:b].reshape(shape) for (_, shape, _), a, b in zip(layout, ends, ends[1:])]


def _group_view(vec: np.ndarray, layout: tuple, group: str) -> np.ndarray:
    """The one contiguous slice of the flat vec that holds the layout rows of `group`."""
    rows = [i for i, (name, _, _) in enumerate(layout) if name.split(".")[0] == group]
    ends = _offsets(layout)
    return vec[ends[rows[0]]:ends[rows[-1] + 1]]


def init_model(seed: int, lam: float = TrainConfig.lam, **structure) -> HybridModel:
    """Fresh model: structure overrides STRUCTURE_DEFAULTS in its hyper dict, whose
    training settings are lam and TrainConfig's others until train() records its own;
    one walk over the layout fills each tensor from rng.uniform on its row's range, so
    a seed pins every weight."""
    _check_int("seed", seed, 0)
    for key in structure:
        if key not in STRUCTURE_DEFAULTS:
            raise TypeError(f"init_model() got an unexpected keyword argument {key!r}")
    s = {**STRUCTURE_DEFAULTS, **structure}
    model = _build_model(dict(n_qubits=N_QUBITS, k=s["k"], t_steps=s["t_steps"],
                              lr=TrainConfig.lr, lam=lam, hidden_enc=s["hidden_enc"],
                              hidden_dec=s["hidden_dec"], ansatz_layers=s["ansatz_layers"],
                              seed=seed, target_mode=TrainConfig.target_mode,
                              beta_start=TrainConfig.beta_start, beta_end=TrainConfig.beta_end))
    rng = np.random.default_rng(seed)
    for (_, shape, bounds), arr in zip(model.layout, _views(model.params, model.layout)):
        arr[...] = rng.uniform(*bounds, shape)
    return model


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
    norms and each layer's input rows. Layer 0's input is real, so its output's real
    and imaginary parts are the real products w_real x + b_real and w_imag x + b_imag,
    per row; layer 1 is complex. No activation sits between the layers: a modulus
    threshold z * max(0, |z| - tau)/|z| at the model's fixed tau = 0 is the identity.
    """
    t = model.tensors
    x = np.concatenate([X, time_fracs[:, None]], axis=1)
    z = np.empty((len(x), len(t["encoder.0.b_real"])), dtype=complex)
    z.real = _per_row(t["encoder.0.w_real"], x) + t["encoder.0.b_real"]
    z.imag = _per_row(t["encoder.0.w_imag"], x) + t["encoder.0.b_imag"]
    inputs = [x, z]
    w = t["encoder.1.w_real"] + 1j * t["encoder.1.w_imag"]
    z = _per_row(w, z) + (t["encoder.1.b_real"] + 1j * t["encoder.1.b_imag"])
    r = np.linalg.norm(z, axis=1)
    zero = np.flatnonzero(r == 0.0)
    if zero.size:
        raise ValueError("encoder latent is all zero; amplitude encoding undefined "
                         f"(batch index {zero[0]})")
    return z, z / r[:, None], r, inputs


def forward_trace(model: HybridModel, X, ts):
    """Forward pass over a (B, 256) block at B timesteps in 0..T, keeping the intermediates
    (_trace gives the part after the encoder)."""
    X = _rows(X, "input")
    t_steps = model.hyper["t_steps"]
    ts = check_timesteps(ts, len(X), 0, t_steps)
    return _trace(model, X, *_encode(model, X, ts / t_steps))


def _trace(model: HybridModel, X, z, psi_in, r, enc_inputs):
    """forward_trace from _encode's rows of X on: (output, trace).

    Each circuit's unit matrices are built once (unit_daggers) into its suffix
    stack (unit_suffixes), whose S[0] is its U^dag; the ansatz's U acts on each
    encoded state alone (_per_row), so row b's output does not depend on B. The K
    bank features and the probe's <psi|(U+U^dag)/2|psi> (the ancilla Hadamard
    test's Re<psi|U|psi>) are one per-row product with the stacked (K+1, 16, 16)
    Hermitians, summed against the conjugated row. backward reads both stacks.
    """
    t = model.tensors
    ansatz = unit_suffixes(model.ansatz, unit_daggers(model.ansatz, t["theta"]))
    probe = unit_suffixes(model.probe, unit_daggers(model.probe, t["probe"]))
    rows = _per_row(np.ascontiguousarray(ansatz[0].conj().T), psi_in)
    m = model.bank[:, 0] + 1j * model.bank[:, 1]
    u_probe = np.ascontiguousarray(probe[0].conj().T)
    obs = np.concatenate([0.5 * (m + m.conj().transpose(0, 2, 1)),
                          0.5 * (u_probe + probe[0])[None]])
    each = _per_row(obs.reshape(-1, LATENT_DIM), rows).reshape(len(X), -1, LATENT_DIM)
    vals = np.sum(rows.conj()[:, None] * each, axis=2)
    if np.max(np.abs(vals.imag)) > REAL_TOL:
        raise ValueError(f"expectation has imaginary residue {np.max(np.abs(vals.imag)):.3e}")
    feats = vals.real

    dec_inputs, pre_acts = [], []
    h = np.concatenate([feats, X], axis=1)
    for i in range(2):
        dec_inputs.append(h)
        h = _per_row(t[f"decoder.{i}.w"], h) + t[f"decoder.{i}.b"]
        if i == 0:
            pre_acts.append(h)
            h = leaky_relu(h)
    bad = np.flatnonzero(~np.all(np.isfinite(h), axis=1))
    if bad.size:
        raise ValueError(f"non-finite model output (batch index {bad[0]})")
    return h, dict(out=h, z=z, r=r, enc_inputs=enc_inputs, psi_out=rows.T, obs=obs,
                   ansatz_suffixes=ansatz, probe_suffixes=probe, u_probe=u_probe, feats=feats,
                   dec_inputs=dec_inputs, pre_acts=pre_acts)


def forward(model: HybridModel, x_t, t: int) -> np.ndarray:
    """The model on one input, the B = 1 case of forward_trace."""
    out, _ = forward_trace(model, np.asarray(x_t, dtype=float)[None], [t])
    return out[0]


def _batch_loss(model: HybridModel, X, ts, targets):
    """The mixed objective, mean over rows of (1-lam) * MSE + lam * infidelity.

    lam is model.hyper["lam"] and timesteps are integers in 1..T; the infidelity
    compares the ansatz output with the encoded target at time (t-1)/T and is
    skipped at lam = 0, else the inputs and targets share one per-row encoder pass
    over 2B rows. Returns (loss, mse rows, infidelity rows, forward trace, target
    trace or None), the target trace's z, r and enc_inputs holding all 2B rows,
    inputs first.
    """
    lam = model.hyper["lam"]
    X = _rows(X, "input")
    t_steps = model.hyper["t_steps"]
    ts = check_timesteps(ts, len(X), 1, t_steps)
    targets = _rows(targets, "target")
    b = len(X)
    rows, steps = ((X, ts) if lam == 0.0
                   else (np.concatenate([X, targets]), np.concatenate([ts, ts - 1])))
    z, psi, r, inputs = _encode(model, rows, steps / t_steps)
    out, tr = _trace(model, X, z[:b], psi[:b], r[:b], [a[:b] for a in inputs])
    diff = out - targets
    mse = np.mean(diff * diff, axis=1)
    infid = np.zeros(b)
    tgt = None
    if lam > 0.0:
        overlap = np.sum(psi[b:].conj() * tr["psi_out"].T, axis=1)
        infid = 1.0 - np.minimum(np.abs(overlap) ** 2, 1.0)
        tgt = {"z": z, "psi": psi[b:], "r": r, "enc_inputs": inputs, "overlap": overlap}
    total = float(np.mean((1.0 - lam) * mse + lam * infid))
    return total, mse, infid, tr, tgt


def loss(model: HybridModel, x_t, t: int, target) -> float:
    return _batch_loss(model, *_stack_batch([(x_t, t, target)]))[0]


def param_tensors(model: HybridModel, vec: np.ndarray | None = None):
    """(name, array) pairs in the layout's order: the model's one parameter table.

    The arrays are consecutive slices of model.params; given a vec laid out like it
    (a gradient, an Adam moment), the same names label vec's slices. A tensor's
    group (one of PARAM_GROUPS) is the first dotted part of its name.
    """
    vec = model.params if vec is None else vec
    return list(zip((name for name, _, _ in model.layout), _views(vec, model.layout)))


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


def _non_finite(model: HybridModel, vec: np.ndarray) -> str | None:
    """The name of the first table tensor whose slice of vec is not all finite, or None.
    A finite vec @ vec clears vec in one pass; only a NaN, an inf or an overflowing
    sum of squares (which the scan then clears) costs the scan over the tensors."""
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(vec @ vec):
            return None
    return next((name for name, a in param_tensors(model, vec) if not np.all(np.isfinite(a))),
                None)


def backward(model: HybridModel, batch):
    """Mean loss over the batch and its flat gradient, laid out like model.params
    (param_tensors(model, grad) names its slices); lam is model.hyper["lam"].

    batch rows are (x_t, t, target) triples with t in 1..T. One forward pass covers
    the batch, and the classical stacks backpropagate as whole-batch matrix products.
    Row b's theta-dependent terms (K features, probe feature, infidelity) form one
    Hermitian G_b; one adjoint gradient from the forward's output block gives the
    theta gradient and C^dag G_b psi_b, the encoder's cotangent. One more, from
    U_p psi_b with the probe unitary U_p, gives the probe gradient. Both read the
    suffix stacks the forward built, and each gradient tensor is written once.
    """
    lam = model.hyper["lam"]
    X, ts, targets = _stack_batch(batch)
    total, _, _, tr, tgt = _batch_loss(model, X, ts, targets)
    k, t = len(model.bank), model.tensors
    # every named view of the one flat vector is written once, below
    grad = np.empty_like(model.params)
    grads = dict(param_tensors(model, grad))
    # the mean's 1/B rides on the loss cotangents, the pixel term's and lam's
    mean_lam = lam / len(X)

    # decoder backprop from the pixel loss
    g = (1.0 - lam) * 2.0 * (tr["out"] - targets) / (INPUT_DIM * len(X))
    for i in (1, 0):
        np.matmul(g.T, tr["dec_inputs"][i], out=grads[f"decoder.{i}.w"])
        np.sum(g, axis=0, out=grads[f"decoder.{i}.b"])
        if i > 0:
            g = (g @ t[f"decoder.{i}.w"]) * np.where(tr["pre_acts"][i - 1] > 0, 1.0, LEAKY_SLOPE)
    # the first layer's input gradient only on the k + 1 quantum features
    u_feat = g @ t["decoder.0.w"][:, : k + 1]

    psi_out, d = tr["psi_out"], LATENT_DIM
    g_mats = (u_feat @ tr["obs"].reshape(k + 1, -1)).reshape(-1, d, d)
    if tgt is not None:
        g_mats -= mean_lam * np.einsum("bi,bj->bij", tgt["psi"], tgt["psi"].conj())
    bra = np.einsum("bij,jb->ib", g_mats, psi_out)
    grads["theta"][:], c_dag_bra = adjoint_gradient(model.ansatz, tr["ansatz_suffixes"],
                                                    psi_out, bra, 2.0)
    # the probe feature's Re<psi|U|psi>: bra psi weighted by its cotangent, from U psi
    grads["probe"][:] = adjoint_gradient(model.probe, tr["probe_suffixes"],
                                         tr["u_probe"] @ psi_out, psi_out * u_feat[:, k], 1.0)[0]
    rank_one = (psi_out.conj().T[:, :, None] * psi_out.T[:, None, :]).reshape(len(X), -1)
    outer = (u_feat[:, :k].T @ rank_one).reshape(k, d, d)
    g_bank = _group_view(grad, model.layout, "bank").reshape(model.bank.shape)
    g_bank[:, 0], g_bank[:, 1] = outer.real, -outer.imag

    # encoder main branch: g_psi = 2 C^dag (G psi_out), then psi = z / r
    g_psi, z, r, enc_inputs = 2.0 * c_dag_bra.T, tr["z"], tr["r"], tr["enc_inputs"]
    if tgt is not None:
        # target branch of the infidelity, d(1-|o|^2)/d tvec with tvec = z_t / r_t; the
        # target rows went through the encoder in one block with the inputs
        g_psi = np.concatenate(
            [g_psi, -mean_lam * 2.0 * tgt["overlap"].conj()[:, None] * psi_out.T])
        z, r, enc_inputs = tgt["z"], tgt["r"], tgt["enc_inputs"]
    radial = np.sum(z.conj() * g_psi, axis=1).real  # back through psi = z / |z|
    g_z = g_psi / r[:, None] - z * (radial / r**3)[:, None]
    # the linear complex stack; with the cotangent convention Re(g) = dL/dRe,
    # Im(g) = dL/dIm, a layer's weight gradient is g^T conj(z), its input's g conj(W)
    gw, gb = g_z.T @ enc_inputs[1].conj(), g_z.sum(axis=0)
    for part, d in (("w_real", gw.real), ("w_imag", gw.imag), ("b_real", gb.real),
                    ("b_imag", gb.imag)):
        grads[f"encoder.1.{part}"][...] = d
    g_z = g_z @ (t["encoder.1.w_real"] - 1j * t["encoder.1.w_imag"])
    # layer 0's input x is real: its weights' gradients are Re(g)^T x and Im(g)^T x
    for part, g_part in (("real", g_z.real), ("imag", g_z.imag)):
        np.matmul(g_part.T, enc_inputs[0], out=grads[f"encoder.0.w_{part}"])
        np.sum(g_part, axis=0, out=grads[f"encoder.0.b_{part}"])

    name = _non_finite(model, grad)
    if name is not None:
        raise RuntimeError(f"non-finite gradient in parameter {name}")
    return total, grad


@dataclass
class AdamState:
    step: int
    m: np.ndarray  # first and second moments, flat vectors laid out like model.params
    v: np.ndarray


def init_adam(model: HybridModel) -> AdamState:
    return AdamState(0, np.zeros_like(model.params), np.zeros_like(model.params))


def adam_step(model: HybridModel, grad: np.ndarray, state: AdamState):
    """Adam on model.params in place, ADAM_CHUNK entries at a time through two scratch
    vectors: m = b1 m + (1-b1) g, v = b2 v + ((1-b2) g) g, then p -= size * m /
    (sqrt(v) + eps_t), lr being model.hyper["lr"] and b1, b2 and eps the _ADAM_
    constants. Both bias corrections are folded into size = lr sqrt(1-b2^t) / (1-b1^t)
    and eps_t = eps sqrt(1-b2^t) (Kingma & Ba, end of section 2): in exact arithmetic
    the textbook lr m_hat / (sqrt(v_hat) + eps), in two fewer passes per chunk. A grad
    or moment not shaped like model.params is refused before the step count or a
    moment moves."""
    for what, vec in (("gradient", grad), ("first moment", state.m), ("second moment", state.v)):
        if np.shape(vec) != model.params.shape:
            raise ValueError(f"{what} shape {np.shape(vec)} is not the parameters' "
                             f"{model.params.shape}")
    state.step += 1
    root_bc2 = math.sqrt(1.0 - _ADAM_BETA2**state.step)
    size = model.hyper["lr"] * root_bc2 / (1.0 - _ADAM_BETA1**state.step)
    eps_t = _ADAM_EPS * root_bc2
    a, b = np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)
    for start in range(0, model.params.size, ADAM_CHUNK):
        p, g, m, v = (x[start:start + ADAM_CHUNK] for x in (model.params, grad, state.m, state.v))
        a, b = a[:len(p)], b[:len(p)]
        m *= _ADAM_BETA1
        m += np.multiply(1.0 - _ADAM_BETA1, g, out=a)
        v *= _ADAM_BETA2
        v += np.multiply(np.multiply(1.0 - _ADAM_BETA2, g, out=a), g, out=a)
        np.sqrt(v, out=b)
        b += eps_t
        p -= np.divide(np.multiply(size, m, out=a), b, out=a)


def train(model: HybridModel, config: TrainConfig, dataset,
          opt: AdamState | None = None, rng: np.random.Generator | None = None,
          step_offset: int = 0):
    """Adam training over noised (x_t, target) pairs drawn from the dataset.

    The config's lr, lam, target_mode and betas are recorded in model.hyper, which
    each step and a checkpoint's sample_block read. Returns (log, opt, rng):
    log rows are (step, loss, wall_ms); passing the returned opt and rng back in
    (with step_offset) continues a run exactly as if it had never stopped.
    wall_ms is the single nondeterministic field; everything else is pinned by
    the seed. All random draws happen per step (batch indices without
    replacement, then per-sample t and noise), so a checkpoint taken after any
    step resumes bitwise. The drawn batch is noised as one block: one
    forward_sample call for x_t and, for x_prev targets, one for x_{t-1}.
    """
    data = np.asarray(dataset, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] != INPUT_DIM:
        raise ValueError(f"dataset must be (n, {INPUT_DIM}), got {data.shape}")
    model.hyper.update({key: getattr(config, key) for key in _TRAINED_KEYS})
    t_steps, mode = model.hyper["t_steps"], model.hyper["target_mode"]
    sched = _noise_schedule(model)
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
        ts, eps = np.empty(len(idx), dtype=int), np.empty((len(idx), INPUT_DIM))
        for row in range(len(idx)):
            ts[row] = rng.integers(1, t_steps + 1)
            rng.standard_normal(out=eps[row])
        x0 = data[idx]
        x_t = forward_sample(x0, ts, sched, eps)
        if mode == "eps":
            targets = eps
        elif mode == "x0":
            targets = x0
        else:  # x_{t-1}, which is x0 itself at t = 1
            targets = np.where(ts[:, None] == 1, x0,
                               forward_sample(x0, np.maximum(ts - 1, 1), sched, eps))
        loss_val, grad = backward(model, list(zip(x_t, ts.tolist(), targets)))
        if not np.isfinite(loss_val):
            raise RuntimeError(f"training diverged at step {step_offset + step}")
        adam_step(model, grad, opt)
        wall_ms = (time.perf_counter() - t0) * 1e3
        log.append((step_offset + step, loss_val, wall_ms))
    return log, opt, rng


def train_log_csv(log) -> str:
    lines = ["step,loss,wall_ms"]
    for step, loss_val, wall_ms in log:
        lines.append(f"{step},{loss_val!r},{wall_ms:.3f}")
    return "\n".join(lines) + "\n"


def _noise_schedule(model: HybridModel) -> NoiseSchedule:
    hyper = model.hyper
    return linear_schedule(hyper["t_steps"], hyper["beta_start"], hyper["beta_end"])


def sample_block(model: HybridModel, seeds) -> np.ndarray:
    """Reverse diffusion of one trajectory per seed over the model's T steps; returns
    (N, T+1, 256) frames, row j being trajectory j's [x_T, ..., x_0].

    Trajectory j draws x_T from default_rng(seeds[j]), seeds[j] an integer >= 0 (a
    bad seed fails before any work, naming j), and is row j of one (N, 256)
    block, so each step is one forward_trace call and a row's frames do not depend
    on N. The step follows the model's target_mode: x_prev takes the prediction as
    the previous step; eps and x0 form the DDPM posterior mean on the schedule the
    model was trained with.
    """
    mode = model.hyper["target_mode"]
    if mode not in TARGET_MODES:
        raise ValueError(f"unknown target mode {mode!r}")
    if len(seeds) == 0:
        raise ValueError("sample_block needs at least one seed")
    for j, s in enumerate(seeds):
        if not _is_int(s) or s < 0:
            raise ValueError(f"seed {s!r} of trajectory {j} is not an integer >= 0")
    t_steps = model.hyper["t_steps"]
    sched = _noise_schedule(model)
    x = np.stack([np.random.default_rng(s).standard_normal(INPUT_DIM) for s in seeds])
    frames = np.empty((len(x), t_steps + 1, INPUT_DIM))
    frames[:, 0] = x
    for i, t in enumerate(range(t_steps, 0, -1), 1):
        pred = forward_trace(model, x, np.full(len(x), t))[0]  # drop the trace at once
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
        frames[:, i] = x
    return frames


def sample(model: HybridModel, t_steps: int, seed: int) -> list:
    """One trajectory [x_T, ..., x_0] over the model's t_steps, the N = 1 case of sample_block;
    its frames are separate arrays, so one kept frame does not hold the whole trajectory."""
    if t_steps != model.hyper["t_steps"]:
        raise ValueError(f"t_steps {t_steps!r} is not the model's T = {model.hyper['t_steps']}")
    return [frame.copy() for frame in sample_block(model, [seed])[0]]


def _crc32(vecs) -> int:
    """CRC-32 of the vectors' bytes in order, read from their buffers without a copy."""
    crc = 0
    for vec in vecs:
        crc = zlib.crc32(vec, crc)
    return crc


def _header_crc32(header: dict) -> int:
    """CRC-32 of the header's JSON with sorted keys and without its own header_crc32,
    so it reads the same from the parsed header as from the one written."""
    rest = {key: value for key, value in header.items() if key != "header_crc32"}
    return zlib.crc32(json.dumps(rest, sort_keys=True).encode())


def _header_bytes(header: dict) -> bytes:
    """The JSON header as checkpoint_bytes writes it, its header_crc32 set to its digest."""
    return json.dumps(dict(header, header_crc32=_header_crc32(header))).encode()


def checkpoint_bytes(model: HybridModel, opt: AdamState | None = None,
                     rng_state: dict | None = None, step: int = 0) -> bytes:
    """Single-file format: magic, version, JSON header, then model.params as float64
    (param_tensors' order) and, with Adam, the first and second moments in that layout.
    The header's crc32 is the CRC-32 of that payload, and its header_crc32 that of
    the rest of the header (_header_crc32)."""
    vecs = [vec.astype("<f8", copy=False)
            for vec in [model.params] + ([opt.m, opt.v] if opt is not None else [])]
    header = {
        "hyper": model.hyper,
        "shapes": [list(shape) for _, shape, _ in model.layout],
        "has_adam": opt is not None,
        "adam_step": opt.step if opt is not None else 0,
        "rng_state": rng_state,
        "step": step,
        "crc32": _crc32(vecs),
    }
    head = _header_bytes(header)
    return b"".join([struct.pack("<4sIQ", CKPT_MAGIC, CKPT_VERSION, len(head)), head, *vecs])


def load_checkpoint(path):
    """Returns dict with model, opt (or None), rng_state (or None), step. Only
    checkpoint_bytes' format is read: the payload goes straight into model.params and,
    with Adam, two fresh moment vectors; its CRC-32 must match the header's crc32, and
    the header's own digest its header_crc32."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        start = fh.read(16)
        if len(start) < 16 or start[:4] != CKPT_MAGIC:
            raise ValueError("not a model checkpoint (bad magic)")
        _, version, hlen = struct.unpack("<4sIQ", start)
        if version != CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        try:
            if hlen > size - 16:
                raise ValueError(f"header length {hlen} runs past the end of the file")
            header = json.loads(fh.read(hlen).decode())
            digest = header["header_crc32"]
            if type(digest) is not int or digest != _header_crc32(header):
                raise ValueError("header CRC-32 mismatch")
            hyper = header["hyper"]
            shapes = [tuple(s) for s in header["shapes"]]
            has_adam = bool(header["has_adam"])
            step = header["step"]
            adam_step = header["adam_step"] if has_adam else 0
            rng_state = header["rng_state"]
            crc = header["crc32"]
            if type(crc) is not int or not 0 <= crc < 2**32:
                raise ValueError(f"crc32 {crc!r} is not a CRC-32")
            if any(key not in hyper for key in _HYPER_KEYS) or hyper["n_qubits"] != N_QUBITS:
                raise KeyError("hyper")
            if any(type(n) is not int or n < 0 for n in (step, adam_step)):
                raise ValueError(f"step {step!r} and adam_step {adam_step!r} must be ints >= 0")
            if rng_state is not None:
                np.random.PCG64(0).state = rng_state  # numpy's own check of a PCG64 state
            model = _build_model(hyper)
        except (ValueError, KeyError, TypeError, AttributeError, OverflowError,
                RecursionError) as e:  # json.loads recurses once per nesting level
            raise ValueError(f"corrupt checkpoint header: {e}") from e
        if shapes != [shape for _, shape, _ in model.layout]:
            raise ValueError("checkpoint shapes do not match its hyperparameters")
        vecs = [model.params] + [np.empty_like(model.params) for _ in range(2 * has_adam)]
        if size - 16 - hlen != len(vecs) * model.params.nbytes:
            raise ValueError("corrupt checkpoint payload (size mismatch)")
        for vec, what in zip(vecs, ("", "adam.m.", "adam.v.")):
            fh.readinto(vec)
            name = _non_finite(model, vec)
            if name is not None:
                raise ValueError(f"checkpoint tensor {what}{name} holds non-finite values")
        if _crc32(vecs) != crc:
            raise ValueError("corrupt checkpoint payload (CRC-32 mismatch)")
    return {
        "model": model,
        "opt": AdamState(adam_step, *vecs[1:]) if has_adam else None,
        "rng_state": rng_state,
        "step": step,
    }


def gradient_audit(model: HybridModel, batch, n_probe: int = 20, seed: int = 0,
                   fd_eps: float = 1e-6, fault_group: str | None = None):
    """Max relative error per parameter group: analytic vs central FD, at model.hyper's lam.

    The analytic side is one backward() pass; the finite-difference side
    re-evaluates the mean batch loss, one batched call per nudge, with single
    scalars nudged by fd_eps.
    Relative error is |a - f| / max(|f|, 1e-3), so the usual 1e-4 pass
    threshold carries an absolute floor of 1e-7 for near-zero entries.
    fault_group flips the sign of one group's analytic gradient; it exists
    so the audit itself can be shown to catch a broken gradient.
    """
    _check_int("n_probe", n_probe, 1)
    if not 0.0 < fd_eps < np.inf:
        raise ValueError("fd_eps must be a finite number > 0")
    if fault_group is not None and fault_group not in PARAM_GROUPS:
        raise ValueError(f"unknown parameter group {fault_group!r}")
    _, grad = backward(model, batch)
    rng = np.random.default_rng(seed)
    X, ts, targets = _stack_batch(batch)
    positions = np.arange(model.params.size)

    report = {}
    for group in PARAM_GROUPS:
        span = _group_view(positions, model.layout, group)
        picks = span[rng.choice(span.size, size=min(n_probe, span.size), replace=False)]
        worst = 0.0
        for pos in picks:
            a = float(grad[pos])
            if fault_group == group:
                a = -a
            orig = model.params[pos]
            model.params[pos] = orig + fd_eps
            hi = _batch_loss(model, X, ts, targets)[0]
            model.params[pos] = orig - fd_eps
            lo = _batch_loss(model, X, ts, targets)[0]
            model.params[pos] = orig
            fd = (hi - lo) / (2.0 * fd_eps)
            worst = max(worst, abs(a - fd) / max(abs(fd), 1e-3))
        report[group] = worst
    return report
