"""Trainable non-local measurements and measured-feature gradients.

An AdaptiveObservable stores a free complex matrix M; the measured operator
is its Hermitian part H = (M + M^dag)/2, so expectation values are real by
construction and every matrix entry is a valid trainable weight. A
GlobalProbe supplies one extra scalar feature through an ancilla Hadamard
test, Re<psi|U(theta)|psi>.

Gradient routes: a feature is linear in its observable's matrix M, so the
bank needs no rule. Every circuit angle is differentiated by the one
parameter-shift rule, shift_gradient: a gate's resolved angle a is moved to
a +- s, the parameter picks up c * (value(a + s) - value(a - s)) times the
gate's scale (the chain rule through angle = offset + scale * param), and
gates sharing a parameter add up. The pair (s, c) follows from how the
value depends on the angle:
  * two-sided <psi(theta)|H|psi(theta)> (ansatz angles, the diffusion
    infidelity): s = pi/2, c = 1/2 for every rotation kind, PHASE included;
  * one-sided Re<psi|U(phi)|psi> (probe angles): a rotation enters at half
    frequency, so s = pi, c = 1/4; PHASE stays at full frequency and keeps
    s = pi/2, c = 1/2.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .circuit import (
    ParamCircuit,
    _apply_1q,
    _apply_cu,
    circuit_unitary,
    effective_angles,
    gate_matrix,
    run_with_angles,
)
from .qcore import StateVector

_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
REAL_TOL = 1e-10

_BANK_HEADER = struct.Struct("<II")


@dataclass(frozen=True)
class AdaptiveObservable:
    """Learnable measurement given by a free complex matrix (real/imag parts)."""

    m_real: np.ndarray
    m_imag: np.ndarray

    def __post_init__(self):
        mr = np.asarray(self.m_real, dtype=float)
        mi = np.asarray(self.m_imag, dtype=float)
        if mr.ndim != 2 or mr.shape[0] != mr.shape[1] or mr.shape != mi.shape:
            raise ValueError(f"expected matching square matrices, got {mr.shape}, {mi.shape}")
        if not (np.all(np.isfinite(mr)) and np.all(np.isfinite(mi))):
            raise ValueError("observable entries must be finite")
        object.__setattr__(self, "m_real", mr)
        object.__setattr__(self, "m_imag", mi)

    @property
    def dim(self) -> int:
        return self.m_real.shape[0]

    def as_matrix(self) -> np.ndarray:
        return self.m_real + 1j * self.m_imag


@dataclass(frozen=True)
class ObservableBank:
    observables: tuple

    def __post_init__(self):
        obs = tuple(self.observables)
        if len(obs) < 1:
            raise ValueError("bank needs at least one observable")
        if len({o.dim for o in obs}) != 1:
            raise ValueError("bank observables must share one dimension")
        object.__setattr__(self, "observables", obs)

    @property
    def k(self) -> int:
        return len(self.observables)

    @property
    def dim(self) -> int:
        return self.observables[0].dim


def random_bank(k: int, dim: int, rng: np.random.Generator) -> ObservableBank:
    """K observables with entries i.i.d. uniform in [-1/D, 1/D]."""
    lim = 1.0 / dim
    obs = [
        AdaptiveObservable(
            rng.uniform(-lim, lim, size=(dim, dim)),
            rng.uniform(-lim, lim, size=(dim, dim)),
        )
        for _ in range(k)
    ]
    return ObservableBank(tuple(obs))


def save_bank(bank: ObservableBank, path) -> None:
    """Binary layout: header (K, D) as uint32 LE, then all real parts in
    row-major order (K*D*D float64 LE), then all imaginary parts."""
    reals = np.stack([o.m_real for o in bank.observables]).astype("<f8")
    imags = np.stack([o.m_imag for o in bank.observables]).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(_BANK_HEADER.pack(bank.k, bank.dim))
        fh.write(reals.tobytes())
        fh.write(imags.tobytes())


def load_bank(path) -> ObservableBank:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _BANK_HEADER.size:
        raise ValueError("bank file too short for header")
    k, d = _BANK_HEADER.unpack_from(raw)
    body = raw[_BANK_HEADER.size:]
    expect = 2 * k * d * d * 8
    if len(body) != expect:
        raise ValueError(f"bank payload is {len(body)} bytes, expected {expect}")
    flat = np.frombuffer(body, dtype="<f8")
    reals = flat[: k * d * d].reshape(k, d, d)
    imags = flat[k * d * d:].reshape(k, d, d)
    return ObservableBank(
        tuple(AdaptiveObservable(reals[i].copy(), imags[i].copy()) for i in range(k))
    )


@dataclass(frozen=True)
class GlobalProbe:
    """Hadamard-test probe: a parameterized unitary with its own angles."""

    circuit: ParamCircuit
    params: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.params, dtype=float)
        if p.shape != (self.circuit.n_params,):
            raise ValueError(f"probe expects {self.circuit.n_params} params, got {p.shape}")
        object.__setattr__(self, "params", p)


def hermitize(obs: AdaptiveObservable) -> np.ndarray:
    m = obs.as_matrix()
    return 0.5 * (m + m.conj().T)


def expectation(psi: StateVector, obs: AdaptiveObservable) -> float:
    if obs.dim != psi.dim:
        raise ValueError(f"observable dim {obs.dim} != state dim {psi.dim}")
    val = psi.amps.conj() @ (hermitize(obs) @ psi.amps)
    if abs(val.imag) > REAL_TOL:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def ano_features(psi: StateVector, bank: ObservableBank) -> np.ndarray:
    return np.array([expectation(psi, o) for o in bank.observables])


def _controlled_payload(g, angle):
    """Matrix for the ancilla-controlled version of g, on g.targets."""
    mat = gate_matrix(g, angle)
    if g.kind == "CU":
        d = mat.shape[0]
        full = np.eye(2 * d, dtype=complex)
        full[d:, d:] = mat
        return full
    return mat


def _hadamard_with_angles(psi: StateVector, c: ParamCircuit, angles: np.ndarray) -> float:
    """Ancilla-qubit Hadamard-test circuit with pre-resolved probe angles."""
    n = psi.n_qubits
    dim = psi.dim
    amps = np.zeros(2 * dim, dtype=complex)
    amps[:dim] = psi.amps
    amps = _apply_1q(amps, _H2, 0, n + 1)
    for i, g in enumerate(c.gates):
        payload = _controlled_payload(g, angles[i])
        wires = tuple(t + 1 for t in g.targets)
        amps = _apply_cu(amps, payload, 0, wires, n + 1)
    amps = _apply_1q(amps, _H2, 0, n + 1)
    p0 = float(np.sum(np.abs(amps[:dim]) ** 2))
    p1 = float(np.sum(np.abs(amps[dim:]) ** 2))
    return p0 - p1


def hadamard_test(psi: StateVector, probe: GlobalProbe) -> float:
    """<Z> on the ancilla of the (n+1)-qubit test circuit, Re<psi|U|psi>."""
    if probe.circuit.n_qubits != psi.n_qubits:
        raise ValueError(
            f"probe acts on {probe.circuit.n_qubits} qubits, state has {psi.n_qubits}"
        )
    angles = effective_angles(probe.circuit, probe.params)
    return _hadamard_with_angles(psi, probe.circuit, angles)


def probe_hermitian_part(probe: GlobalProbe) -> np.ndarray:
    """(U + U^dag)/2 of the probe unitary; <psi|.|psi> of it equals the test value."""
    u = circuit_unitary(probe.circuit, probe.params)
    return 0.5 * (u + u.conj().T)


def shift_gradient(c: ParamCircuit, params, value, one_sided: bool = False) -> np.ndarray:
    """d value(effective_angles(c, params)) / d params by the parameter-shift rule.

    value maps a vector of per-gate angles to a float. one_sided selects the
    rule for a value in which the circuit enters once, unconjugated; the
    module docstring gives both rules.
    """
    base = effective_angles(c, params)
    grad = np.zeros(c.n_params)
    for i, g in enumerate(c.gates):
        if g.param_ref is None:
            continue
        if one_sided and g.kind != "PHASE":
            shift, coeff = np.pi, 0.25
        else:
            shift, coeff = np.pi / 2, 0.5
        vals = []
        for sgn in (+1.0, -1.0):
            angles = base.copy()
            angles[i] += sgn * shift
            vals.append(value(angles))
        grad[g.param_ref] += g.scale * coeff * (vals[0] - vals[1])
    return grad


def grad_expectation_wrt_circuit(
    c: ParamCircuit, psi0: StateVector, params, h_mat: np.ndarray
) -> np.ndarray:
    """d <psi(theta)|H|psi(theta)> / d theta, psi(theta) = C(theta) psi0.

    Phase gates take the two-sided rule too: their global-phase mismatch
    with RZ cancels in the expectation.
    """
    def value(angles):
        out = run_with_angles(c, psi0.amps.copy(), angles)
        return float((out.conj() @ (h_mat @ out)).real)

    return shift_gradient(c, params, value)


def grad_hadamard_wrt_probe(psi: StateVector, probe: GlobalProbe) -> np.ndarray:
    """d Re<psi|U(phi)|psi> / d phi, each value an ancilla Hadamard test."""
    c = probe.circuit
    return shift_gradient(
        c, probe.params, lambda angles: _hadamard_with_angles(psi, c, angles), one_sided=True
    )
