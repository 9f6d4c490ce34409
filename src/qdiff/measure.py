"""Trainable non-local measurements and measured-feature gradients.

An AdaptiveObservable stores a free complex matrix M; the measured operator
is its Hermitian part H = (M + M^dag)/2, so expectation values are real by
construction and every matrix entry is a valid trainable weight. The model
holds its K matrices as one array; AdaptiveObservable, ObservableBank and
ano_features are the one-observable-at-a-time reference it is tested against. A
GlobalProbe adds Re<psi|U(theta)|psi>, which the model reads as <psi|(U+U^dag)/2|psi>
(probe_hermitian_part); the ancilla Hadamard test, hadamard_test, is its reference.

Gradient routes: a feature is linear in its observable's matrix M, so the
bank needs no rule. Every circuit angle is differentiated by one adjoint
sweep (Jones & Gacon, arXiv:2009.02823), adjoint_gradient: the circuit's
output block phi and a bra block lambda are walked back through the gates
together, and each parameterized gate contributes
coeff * scale * Re sum_b <lambda_b|dU_i phi_b> (the chain rule through
angle = offset + scale * param; gates sharing a parameter add up). Two
callers set (lambda, coeff), and the sweep also returns C^dag lambda:
  * two-sided <psi(theta)|H|psi(theta)> (ansatz angles): lambda = H C psi,
    coeff = 2;
  * one-sided Re<psi|U(phi)|psi> (probe angles): lambda = psi, coeff = 1.
Both take a (2^n, B) block of states, so one sweep serves a whole batch.

The parameter-shift rule, shift_gradient, and the ancilla Hadamard test are
the slow, circuit-level references the adjoint sweep is tested against. A
gate's resolved angle a is moved to a +- s and the parameter picks up
c * (value(a + s) - value(a - s)) times the gate's scale:
  * two-sided: s = pi/2, c = 1/2 for every rotation kind, PHASE included;
  * one-sided: a rotation enters at half frequency, so s = pi, c = 1/4;
    PHASE stays at full frequency and keeps s = pi/2, c = 1/2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    ParamCircuit,
    _H_MAT,
    _apply_kq,
    circuit_unitary,
    control_embed,
    effective_angles,
    gate_matrices,
    run_block,
)
from .circuit import run_with_angles  # unused here; perfbench/spans.py's tracer wraps this name
from .qcore import PAULI_X, PAULI_Y, PAULI_Z, StateVector

# dU(a)/da = G U(a) for each rotation kind: RX/RY/RZ are exp(-i a P / 2),
# PHASE is diag(1, e^{ia}).
_GENERATORS = {
    "RX": -0.5j * PAULI_X,
    "RY": -0.5j * PAULI_Y,
    "RZ": -0.5j * PAULI_Z,
    "PHASE": np.diag([0.0, 1.0j]),
}
REAL_TOL = 1e-10


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


def _hadamard_with_angles(psi: StateVector, c: ParamCircuit, angles: np.ndarray) -> float:
    """Ancilla-qubit Hadamard-test circuit with pre-resolved probe angles.

    The ancilla is wire 0 of an (n+1)-qubit one-column block; each probe gate
    acts on the wires after it, controlled by it.
    """
    n = psi.n_qubits
    dim = psi.dim
    block = np.zeros((2 * dim, 1), dtype=complex)
    block[:dim, 0] = psi.amps
    block = _apply_kq(block, _H_MAT, (0,), n + 1)
    for g, mat in zip(c.gates, gate_matrices(c, angles)):
        block = _apply_kq(block, control_embed(mat), (0, *(t + 1 for t in g.targets)), n + 1)
    amps = _apply_kq(block, _H_MAT, (0,), n + 1)[:, 0]
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


def adjoint_gradient(c: ParamCircuit, params, phi_out: np.ndarray, bra_out: np.ndarray,
                     coeff: float):
    """coeff * Re sum_b <bra_out_b| dC/dparams |phi_in_b> by one reverse sweep.

    phi_out = C(params) phi_in and bra_out are (2^n, B) blocks. Walking back
    from the last gate, both blocks hold the states just after gate i, where
    <lambda|dU_i phi_before> = <lambda|G_i phi> with dU_i = G_i U_i; then U_i^dag
    is un-applied to both at once. Returns (grad, C^dag bra_out).
    """
    mats = gate_matrices(c, effective_angles(c, params))
    n = c.n_qubits
    b = phi_out.shape[1]
    both = np.concatenate([phi_out, bra_out], axis=1)
    grad = np.zeros(c.n_params)
    for i in reversed(range(len(c.gates))):
        g = c.gates[i]
        if g.param_ref is not None:
            d_phi = _apply_kq(both[:, :b], _GENERATORS[g.kind], g.targets, n)
            grad[g.param_ref] += coeff * g.scale * float(np.vdot(both[:, b:], d_phi).real)
        both = _apply_kq(both, mats[i].conj().T, g.targets, n)
    return grad, both[:, b:]


def _as_block(psi, n_qubits: int) -> np.ndarray:
    """A StateVector as a one-column block, or a (2^n, B) array checked as one."""
    block = psi.amps[:, None] if isinstance(psi, StateVector) else np.asarray(psi, dtype=complex)
    if block.ndim != 2 or block.shape[0] != 2**n_qubits:
        raise ValueError(f"expected a ({2**n_qubits}, B) block of states, got {block.shape}")
    return block


def grad_expectation_wrt_circuit(
    c: ParamCircuit, psi0, params, h_mat: np.ndarray
) -> np.ndarray:
    """d sum_b <psi_b(theta)|H_b|psi_b(theta)> / d theta, psi_b(theta) = C(theta) psi0_b.

    psi0 is one StateVector or a (2^n, B) block with one state per column;
    h_mat is one Hermitian (D, D) matrix for every column or a (B, D, D)
    stack with one per column.
    """
    block = _as_block(psi0, c.n_qubits)
    phi_out = run_block(c, block, effective_angles(c, params))
    h = np.asarray(h_mat)
    d, b = block.shape
    if h.shape == (d, d):
        lam = h @ phi_out
    elif h.shape == (b, d, d):
        lam = np.einsum("bij,jb->ib", h, phi_out)
    else:
        raise ValueError(f"expected H of shape ({d}, {d}) or ({b}, {d}, {d}), got {h.shape}")
    return adjoint_gradient(c, params, phi_out, lam, 2.0)[0]


def grad_hadamard_wrt_probe(psi, probe: GlobalProbe, weights=None) -> np.ndarray:
    """d sum_b w_b Re<psi_b|U(phi)|psi_b> / d phi, the probe's Hadamard-test values.

    psi is one StateVector or a (2^n, B) block with one state per column;
    weights holds one w_b per column and defaults to all ones.
    """
    c = probe.circuit
    block = _as_block(psi, c.n_qubits)
    w = np.ones(block.shape[1]) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (block.shape[1],):
        raise ValueError(f"expected {block.shape[1]} weights, got shape {w.shape}")
    phi_out = run_block(c, block, effective_angles(c, probe.params))
    return adjoint_gradient(c, probe.params, phi_out, block * w, 1.0)[0]
