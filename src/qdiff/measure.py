"""Trainable non-local measurements and measured-feature gradients.

An adaptive observable is a free complex matrix M, stored as its real and
imaginary parts; the measured operator is its Hermitian part
H = (M + M^dag)/2, so expectation values are real by construction and every
matrix entry is a valid trainable weight. A bank of K of them is one
(K, 2, D, D) array, bank[j, 0] + 1j * bank[j, 1] being observable j's M: the
model holds its bank so, and ano_features reads such an array one observable
at a time, the reference the model's stacked features are tested against.

The probe is a circuit c and its angles, passed as (c, params) like
circuit.run_circuit's. Its feature Re<psi|U|psi>, U = c(params), is what the
ancilla Hadamard test measures (hadamard_test, the reference); the model
reads it as <psi|(U+U^dag)/2|psi> from its own suffix stack, and
probe_hermitian_part gives that matrix from the dense unitary.

Gradient routes: a feature is linear in its observable's matrix M, so the
bank needs no rule. Every circuit angle is differentiated by the adjoint
method (Jones & Gacon, arXiv:2009.02823), adjoint_gradient, over the
circuit's fused units (circuit.ParamCircuit.units): a unit is one rotation
bound to a parameter with the run of fixed gates before it, on at most
MAX_UNIT_WIRES = 4 wires. The caller passes the circuit's suffix products
at its parameter state (circuit.unit_suffixes): the model hands over the
stacks its forward ran the circuits with, and grad_expectation_wrt_circuit
and grad_hadamard_wrt_probe build their own. The suffix product after a
unit maps the output block phi and a bra block lambda back to just after it,
all units in one batched product. Each
parameterized gate contributes coeff * scale * Re sum_b <lambda_b|dU_i phi_b>
there (the chain rule through angle = offset + scale * param; gates sharing
a parameter add up), all in one contraction with the generators. Two callers
set (lambda, coeff), and adjoint_gradient also returns C^dag lambda:
  * two-sided <psi(theta)|H|psi(theta)> (ansatz angles): lambda = H C psi,
    coeff = 2;
  * one-sided Re<psi|U(phi)|psi> (probe angles): lambda = psi, coeff = 1.
Both take a (2^n, B) block of states, so one call serves a whole batch.

The parameter-shift rule, shift_gradient, and the ancilla Hadamard test are
the slow, circuit-level references the adjoint gradient is tested against. A
gate's resolved angle a is moved to a +- s and the parameter picks up
c * (value(a + s) - value(a - s)) times the gate's scale:
  * two-sided: s = pi/2, c = 1/2 for every rotation kind, PHASE included;
  * one-sided: a rotation enters at half frequency, so s = pi, c = 1/4;
    PHASE stays at full frequency and keeps s = pi/2, c = 1/2.
"""
from __future__ import annotations

import numpy as np

from .circuit import (
    ParamCircuit,
    _H_MAT,
    _apply_kq,
    _vector_angles,
    circuit_unitary,
    control_embed,
    gate_matrices,
    run_block,
    unit_daggers,
    unit_suffixes,
)
from .circuit import run_with_angles  # unused here; perfbench/spans.py's tracer wraps this name
from .qcore import StateVector

REAL_TOL = 1e-10


def ano_features(psi: StateVector, bank) -> np.ndarray:
    """<psi|H_j|psi> of every observable j of a (K, 2, D, D) bank array, one at a time.

    H_j = (M_j + M_j^dag)/2 with M_j = bank[j, 0] + 1j * bank[j, 1]; a value whose
    imaginary residue passes REAL_TOL is refused, as is a misshapen or non-finite bank.
    """
    bank = np.asarray(bank, dtype=float)
    d = psi.dim
    if bank.ndim != 4 or len(bank) < 1 or bank.shape[1:] != (2, d, d):
        raise ValueError(f"expected a (K, 2, {d}, {d}) bank with K >= 1, got {bank.shape}")
    bad = np.flatnonzero(~np.all(np.isfinite(bank), axis=(1, 2, 3)))
    if bad.size:
        raise ValueError(f"observable {bad[0]} has non-finite entries")
    feats = np.empty(len(bank))
    for j, (m_real, m_imag) in enumerate(bank):
        m = m_real + 1j * m_imag
        val = psi.amps.conj() @ (0.5 * (m + m.conj().T) @ psi.amps)
        if abs(val.imag) > REAL_TOL:
            raise ValueError(f"observable {j}'s expectation has imaginary residue {val.imag:.3e}")
        feats[j] = val.real
    return feats


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


def hadamard_test(psi: StateVector, c: ParamCircuit, params) -> float:
    """<Z> on the ancilla of the (n+1)-qubit test circuit, Re<psi|U|psi> with U = c(params)."""
    if c.n_qubits != psi.n_qubits:
        raise ValueError(f"probe acts on {c.n_qubits} qubits, state has {psi.n_qubits}")
    return _hadamard_with_angles(psi, c, _vector_angles(c, params))


def probe_hermitian_part(c: ParamCircuit, params) -> np.ndarray:
    """(U + U^dag)/2 of U = c(params); <psi|.|psi> of it equals the test value."""
    u = circuit_unitary(c, params)
    return 0.5 * (u + u.conj().T)


def shift_gradient(c: ParamCircuit, params, value, one_sided: bool = False) -> np.ndarray:
    """d value(effective_angles(c, params)) / d params by the parameter-shift rule.

    value maps the (m,) angles of c's gates bound to a parameter to a float;
    the rule shifts each of them in turn, walking c.table.bound. one_sided
    selects the rule for a value in which the circuit enters once,
    unconjugated; the module docstring gives both rules.
    """
    base = _vector_angles(c, params)
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


def adjoint_gradient(c: ParamCircuit, suffixes: np.ndarray, phi_out: np.ndarray,
                     bra_out: np.ndarray, coeff: float):
    """coeff * Re sum_b <bra_out_b| dC/dparams |phi_in_b> from the circuit's suffix products.

    suffixes is circuit.unit_suffixes' stack at params, S[k] = U_{k+1}^dag ... U_K^dag
    over c.units; phi_out = C(params) phi_in and bra_out are (2^n, B) blocks. S[k]
    walks both blocks back to just after unit k, so every trainable unit's pair is
    one batched product S[k] @ [phi_out | bra_out]. A trainable unit's rotation U_i
    comes last, so <lambda|dU_i phi_before> = <lambda|G_i phi> with dU_i = G_i U_i,
    and all of those are one contraction. Returns (grad, C^dag bra_out = S[0] bra_out).
    """
    dim = 2**c.n_qubits
    if phi_out.ndim != 2 or phi_out.shape[0] != dim or np.shape(bra_out) != phi_out.shape:
        raise ValueError(f"expected two ({dim}, B) blocks of the same B, got "
                         f"{phi_out.shape} and {np.shape(bra_out)}")
    plan, b = c.units, phi_out.shape[1]
    if suffixes.shape != (len(plan.wires) + 1, dim, dim):
        raise ValueError(f"expected ({len(plan.wires) + 1}, {dim}, {dim}) suffix products, "
                         f"got {suffixes.shape}")
    after = np.matmul(suffixes[1:], np.concatenate([phi_out, bra_out], axis=1))
    # each trainable unit's [phi | lambda], rows reordered so its rotation's wire leads
    g = after[plan.trainable[:, None], plan.lead].reshape(len(plan.trainable), 2, dim // 2, 2 * b)
    lam = np.conjugate(g[..., b:], out=g[..., b:])
    overlaps = np.einsum("maxb,mcxb->mac", lam, g[..., :b])  # sum conj(lambda_a) phi_c
    terms = (plan.generators * overlaps).sum(axis=(1, 2)).real
    t = c.table
    grad = coeff * np.bincount(t.refs, weights=t.scales[:, 0] * terms, minlength=c.n_params)
    return grad, suffixes[0] @ bra_out


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
    phi_out = run_block(c, block, _vector_angles(c, params))
    h = np.asarray(h_mat)
    d, b = block.shape
    if h.shape == (d, d):
        lam = h @ phi_out
    elif h.shape == (b, d, d):
        lam = np.einsum("bij,jb->ib", h, phi_out)
    else:
        raise ValueError(f"expected H of shape ({d}, {d}) or ({b}, {d}, {d}), got {h.shape}")
    return adjoint_gradient(c, unit_suffixes(c, unit_daggers(c, params)), phi_out, lam, 2.0)[0]


def grad_hadamard_wrt_probe(psi, c: ParamCircuit, params, weights=None) -> np.ndarray:
    """d sum_b w_b Re<psi_b|U(phi)|psi_b> / d phi at phi = params, U = c(phi).

    psi is one StateVector or a (2^n, B) block with one state per column;
    weights holds one w_b per column and defaults to all ones.
    """
    block = _as_block(psi, c.n_qubits)
    w = np.ones(block.shape[1]) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (block.shape[1],):
        raise ValueError(f"expected {block.shape[1]} weights, got shape {w.shape}")
    phi_out = run_block(c, block, _vector_angles(c, params))
    suffixes = unit_suffixes(c, unit_daggers(c, params))
    return adjoint_gradient(c, suffixes, phi_out, block * w, 1.0)[0]
