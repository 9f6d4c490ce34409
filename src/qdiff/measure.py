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
output block phi and a bra block lambda are walked back together through
the circuit's fused units (circuit.ParamCircuit.units). A unit is one
rotation bound to a parameter with the run of fixed gates before it, on at
most MAX_UNIT_WIRES = 4 wires (a whole register of up to 4 qubits), so
un-applying it is one kernel call with a matrix of at most 16x16; on the
model's 4-qubit circuits that is one matmul per trainable gate. Each
parameterized gate contributes coeff * scale * Re sum_b <lambda_b|dU_i phi_b>
(the chain rule through angle = offset + scale * param; gates sharing a
parameter add up), read off the blocks just after its unit; the sweep keeps
those blocks and contracts them with the generators in one batched step per
KEPT_AMPS amplitudes kept (once per sweep on the model's circuits). Two
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
    rotation_matrix,
    run_block,
)
from .circuit import run_with_angles  # unused here; perfbench/spans.py's tracer wraps this name
from .qcore import StateVector

REAL_TOL = 1e-10
KEPT_AMPS = 2**14  # the adjoint sweep's kept blocks between contractions (256 KB)


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

    value maps the (m,) angles of c's gates bound to a parameter to a float;
    the rule shifts each of them in turn, walking c.table.bound. one_sided
    selects the rule for a value in which the circuit enters once,
    unconjugated; the module docstring gives both rules.
    """
    base = effective_angles(c, params)
    t = c.table
    grad = np.zeros(c.n_params)
    for p, (i, ref, scale) in enumerate(zip(t.bound, t.refs, t.scales[:, 0])):
        if one_sided and c.gates[i].kind != "PHASE":
            shift, coeff = np.pi, 0.25
        else:
            shift, coeff = np.pi / 2, 0.5
        vals = []
        for sgn in (+1.0, -1.0):
            angles = base.copy()
            angles[p] += sgn * shift
            vals.append(value(angles))
        grad[ref] += scale * coeff * (vals[0] - vals[1])
    return grad


def _unit_daggers(c: ParamCircuit, params) -> list:
    """U^dag of each trainable unit of c.units at params, in c.table.bound's order.

    Each rotation's 2x2 matrix (one rotation_matrix call per kind, over
    c.table.rotations) acts on the bit of its wire in the rows of its unit's
    cached fixed part: one batched matmul per unit size and wire place gives
    the units' U* = R* F*, whose transposes are the U^dag.
    """
    angles = effective_angles(c, params)
    rots = np.empty((len(angles), 2, 2), dtype=complex)
    for kind, pos in c.table.rotations:
        rots[pos] = rotation_matrix(kind, angles[pos])
    rots = rots.conj()[:, None]
    daggers = [None] * len(angles)
    for d, pos, fixed in c.units.groups:
        for i, mat in zip(pos, np.matmul(rots[pos], fixed).reshape(-1, d, d).transpose(0, 2, 1)):
            daggers[i] = mat
    return daggers


def adjoint_gradient(c: ParamCircuit, params, phi_out: np.ndarray, bra_out: np.ndarray,
                     coeff: float):
    """coeff * Re sum_b <bra_out_b| dC/dparams |phi_in_b> by one reverse sweep.

    phi_out = C(params) phi_in and bra_out are (2^n, B) blocks. The sweep walks
    back through c.units, one kernel call per unit un-applying its U^dag from
    both blocks at once, each step writing a new slot of a buffer of KEPT_AMPS
    amplitudes. Just after a trainable unit, whose rotation U_i comes last,
    <lambda|dU_i phi_before> = <lambda|G_i phi> with dU_i = G_i U_i; those slots
    stay until the buffer is full, and then all their <lambda|G_i phi> are one
    batched contraction. Returns (grad, C^dag bra_out).
    """
    n, dim = c.n_qubits, 2**c.n_qubits
    if phi_out.ndim != 2 or phi_out.shape[0] != dim or np.shape(bra_out) != phi_out.shape:
        raise ValueError(f"expected two ({dim}, B) blocks of the same B, got "
                         f"{phi_out.shape} and {np.shape(bra_out)}")
    plan, b = c.units, phi_out.shape[1]
    rotated = _unit_daggers(c, params)
    terms, pending = np.empty(len(rotated)), []

    def contract():
        slots, units = np.array(pending, dtype=int).reshape(-1, 2).T
        # the kept blocks [phi | lambda], rows reordered so each rotation's wire leads
        g = buf[slots[:, None], plan.lead[units]].reshape(len(units), 2, dim // 2, 2 * b)
        lam = np.conjugate(g[..., b:], out=g[..., b:])
        overlaps = np.einsum("maxb,mcxb->mac", lam, g[..., :b])  # sum conj(lambda_a) phi_c
        terms[units] = (plan.generators[units] * overlaps).sum(axis=(1, 2)).real
        pending.clear()

    # one slot per unit up to KEPT_AMPS; slot s holds the blocks after a unit, and
    # the step before it writes slot s - 1 (the top slot again after contracting)
    buf = np.empty((min(len(plan.wires), max(1, KEPT_AMPS // (2 * b * dim))) + 1, dim, 2 * b),
                   dtype=complex)
    work = np.empty(buf[0].size, dtype=complex)
    s = len(buf) - 1
    np.concatenate([phi_out, bra_out], axis=1, out=buf[s])
    j = len(rotated)
    for wires, mat in zip(reversed(plan.wires), reversed(plan.daggers)):
        if mat is None:  # a trainable unit
            j -= 1
            mat = rotated[j]
            pending.append((s, j))
        src = s
        if s == 0:
            contract()
            s = len(buf)
        _apply_kq(buf[src], mat, wires, n, buf[s - 1], work)
        s -= 1
    if pending:
        contract()
    t = c.table
    grad = coeff * np.bincount(t.refs, weights=t.scales[:, 0] * terms, minlength=c.n_params)
    return grad, buf[s][:, b:].copy()


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
