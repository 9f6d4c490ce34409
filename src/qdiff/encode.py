"""Classical-to-quantum data encodings.

Five maps from classical vectors to statevectors: basis, amplitude, angle,
phase, and dense-angle. All of them return validated StateVector instances
under the package-wide qubit ordering (qubit 0 is the most significant bit).
"""
from __future__ import annotations

from functools import reduce

import numpy as np

from .qcore import StateVector, _is_int, basis_state

MAX_QUBITS = 12


def _kron_chain(single_qubit_states) -> StateVector:
    amps = reduce(np.kron, single_qubit_states)
    return StateVector(amps)


def encode_basis(bits) -> StateVector:
    """|b0 b1 ... b_{P-1}> for a bit list, b0 being the most significant."""
    bits = list(bits)
    if not 1 <= len(bits) <= MAX_QUBITS:
        raise ValueError(f"need 1..{MAX_QUBITS} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    return basis_state(len(bits), index)


def encode_amplitude(x, n_qubits: int) -> StateVector:
    """Normalize x into the amplitudes of an n-qubit state, tail-padded with zeros.

    Accepts real or complex input; the normalization constant is the
    Euclidean norm, so any positive rescaling of x yields the same state.
    """
    x = np.asarray(x, dtype=complex).ravel()
    if not _is_int(n_qubits) or not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be an integer in 1..{MAX_QUBITS}, got {n_qubits!r}")
    dim = 2**n_qubits
    if len(x) > dim:
        raise ValueError(f"{len(x)} values do not fit in {n_qubits} qubits")
    alpha = np.linalg.norm(x)
    if alpha == 0.0:
        raise ValueError("cannot amplitude-encode the zero vector")
    amps = np.zeros(dim, dtype=complex)
    amps[: len(x)] = x / alpha
    return StateVector(amps)


def encode_angle(x) -> StateVector:
    """Product of per-qubit RY(x_k)|0> states: (cos(x_k/2), sin(x_k/2))."""
    x = np.asarray(x, dtype=float).ravel()
    if not 1 <= len(x) <= MAX_QUBITS:
        raise ValueError(f"need 1..{MAX_QUBITS} angles, got {len(x)}")
    singles = [np.array([np.cos(v / 2), np.sin(v / 2)], dtype=complex) for v in x]
    return _kron_chain(singles)


def encode_phase(x) -> StateVector:
    """Product of (|0> + e^{i x_k}|1>)/sqrt(2); all magnitudes are 2^{-n/2}."""
    x = np.asarray(x, dtype=float).ravel()
    if not 1 <= len(x) <= MAX_QUBITS:
        raise ValueError(f"need 1..{MAX_QUBITS} angles, got {len(x)}")
    singles = [np.array([1.0, np.exp(1j * v)]) / np.sqrt(2) for v in x]
    return _kron_chain(singles)


def encode_dense_angle(x) -> StateVector:
    """Two features per qubit: cos(x_odd)|0> + e^{i x_even} sin(x_odd)|1>.

    Consecutive pairs (x[2k], x[2k+1]) feed qubit k; the first of each pair
    sets the amplitude split (full angle, no halving) and the second the
    relative phase.
    """
    x = np.asarray(x, dtype=float).ravel()
    if len(x) % 2 != 0:
        raise ValueError("dense-angle encoding needs an even-length input")
    n = len(x) // 2
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"need 1..{MAX_QUBITS} qubit pairs, got {n}")
    singles = [
        np.array([np.cos(x[2 * k]), np.exp(1j * x[2 * k + 1]) * np.sin(x[2 * k])])
        for k in range(n)
    ]
    return _kron_chain(singles)

