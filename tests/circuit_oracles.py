"""Test helpers shared by the circuit, measure and bench tests.

full_unitary_oracle multiplies out a circuit from each gate's matrix
embedded on the full register by explicit index arithmetic; it never runs
the gate kernel (`circuit._apply_kq`) or the circuit's matrix list
(`circuit.gate_matrices`), so it stays an independent reference for
everything that does, and it works out each gate's angle from the gate and
the parameters itself. effective_angles_oracle resolves the bound gates'
angles one gate at a time, the reference for the circuit's angle table.
random_mixed_circuit draws small circuits that exercise every gate kind and
angle binding.
"""
import numpy as np

from qdiff.circuit import (
    ROTATION_KINDS,
    _CNOT_MAT,
    _CZ_MAT,
    _H_MAT,
    _X_MAT,
    Gate,
    ParamCircuit,
    cnot,
    controlled,
    cz,
    h,
    phase,
    rotation_matrix,
    x,
)

FIXED_MATS = {"H": _H_MAT, "X": _X_MAT, "CNOT": _CNOT_MAT, "CZ": _CZ_MAT}


def embed(m, targets, n):
    """Place a k-qubit matrix on the given wires of an n-qubit register."""
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in targets]
    for i in range(dim):
        bi = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        row = 0
        for t in targets:
            row = (row << 1) | bi[t]
        for j in range(dim):
            bj = [(j >> (n - 1 - q)) & 1 for q in range(n)]
            if any(bi[q] != bj[q] for q in rest):
                continue
            col = 0
            for t in targets:
                col = (col << 1) | bj[t]
            full[i, j] = m[row, col]
    return full


def gate_angle(g, draws):
    """A rotation's angle at each row of (B, n_params) draws: its fixed angle,
    or offset + scale * params[param_ref]."""
    if g.param_ref is None:
        return np.full(len(draws), g.fixed_angle)
    return g.offset + g.scale * draws[:, g.param_ref]


def effective_angles_oracle(c, params):
    """effective_angles gate by gate: offset + scale * params[param_ref] for
    each gate bound to a parameter, in gate order, at each draw."""
    params = np.asarray(params, dtype=float)
    draws = np.atleast_2d(params)
    out = np.array([gate_angle(g, draws) for g in c.gates if g.param_ref is not None])
    out = out.reshape(-1, len(draws))
    return out if params.ndim == 2 else out[:, 0]


def full_unitary_oracle(c, params):
    """Independent route: embed each gate's full matrix and multiply."""
    dim = 2**c.n_qubits
    u = np.eye(dim, dtype=complex)
    draws = np.atleast_2d(np.asarray(params, dtype=float))
    for g in c.gates:
        if g.kind in ROTATION_KINDS:
            m = rotation_matrix(g.kind, gate_angle(g, draws)[0])
        elif g.kind == "CU":
            k = g.matrix.shape[0]
            m = np.block([[np.eye(k), np.zeros((k, k))],
                          [np.zeros((k, k)), g.matrix]]).astype(complex)
        else:
            m = FIXED_MATS[g.kind]
        full = embed(m, g.targets, c.n_qubits)
        u = full @ u
    return u


def random_hermitian(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m + m.conj().T


def random_mixed_circuit(rng, fixed_angles=False, n_qubits=None):
    """1-3 qubits (or n_qubits), 1-3 parameters shared across RX/RY/RZ/PHASE
    gates with random scale/offset, interleaved with fixed H, X, CNOT, CZ and
    controlled-U gates. A controlled-U's payload, on one or two wires, is a
    random unitary or a random permutation times random unit phases, so runs
    of fixed gates with one nonzero entry per row (which run_block applies as
    one gather-and-scale step) hold X and CU gates too. A PHASE gate is always
    present so its own shift rule is always exercised. With fixed_angles,
    about half the rotations carry a fixed angle instead of a parameter."""
    n = int(rng.integers(1, 4)) if n_qubits is None else n_qubits
    n_params = int(rng.integers(1, 4))
    gates = []
    for _ in range(int(rng.integers(2, 8))):
        q = int(rng.integers(0, n))
        pick = int(rng.integers(0, 10))
        if pick < len(ROTATION_KINDS):
            if fixed_angles and rng.uniform() < 0.5:
                gates.append(Gate(ROTATION_KINDS[pick], (q,),
                                  fixed_angle=float(rng.uniform(-np.pi, np.pi))))
            else:
                gates.append(Gate(ROTATION_KINDS[pick], (q,),
                                  param_ref=int(rng.integers(0, n_params)),
                                  scale=float(rng.uniform(-2, 2)),
                                  offset=float(rng.uniform(-np.pi, np.pi))))
        elif pick == 8:
            gates.append(x(q))
        elif pick == 4 or n == 1:
            gates.append(h(q))
        elif pick == 5:
            gates.append(cnot(q, (q + int(rng.integers(1, n))) % n))
        elif pick == 6:
            gates.append(cz(q, (q + int(rng.integers(1, n))) % n))
        else:  # controlled-U on one wire, or on two when there are three qubits or more
            wires = [w for w in rng.permutation(n) if w != q][: int(rng.integers(1, min(n, 3)))]
            d = 2 ** len(wires)
            if pick == 7:
                u, _ = np.linalg.qr(random_hermitian(d, rng))
            else:
                u = np.exp(1j * rng.uniform(-np.pi, np.pi, (d, 1))) * np.eye(d)[rng.permutation(d)]
            gates.append(controlled(q, tuple(int(w) for w in wires), u))
    at = int(rng.integers(0, len(gates) + 1))
    gates.insert(at, phase(int(rng.integers(0, n)), ref=int(rng.integers(0, n_params)),
                           scale=float(rng.uniform(-2, 2))))
    return ParamCircuit(n, tuple(gates), n_params)
