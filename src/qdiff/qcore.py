"""Complex linear algebra and quantum-state primitives.

Vectors and matrices are plain complex128 numpy arrays; `StateVector` and
`DensityMatrix` are thin validated wrappers used at module boundaries.

Qubit ordering convention (used everywhere in this package): qubit 0 is the
leftmost ket label and the most significant bit of the basis index, i.e.
|q0 q1 ... q_{n-1}> lives at index sum(q_j * 2**(n-1-j)).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-10
HERM_TOL = 1e-10
PSD_CLAMP = 1e-10

# Single-qubit constants shared across the package.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _is_int(x) -> bool:
    """An Integral that is not a bool: the one test for a count, size, index or seed."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_int(name: str, value, low: int) -> None:
    """Refuse `value` unless it is an integer >= low; the error names the argument."""
    if not _is_int(value) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _n_qubits_for(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state |psi> on `n_qubits` qubits."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        _n_qubits_for(amps.shape[0])
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")

    @property
    def n_qubits(self) -> int:
        return _n_qubits_for(self.amps.shape[0])

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix of dimension 2^n."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        _n_qubits_for(mat.shape[0])
        if not np.all(np.isfinite(mat)):
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > HERM_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")
        # Eigenvalues in [-PSD_CLAMP, 0) count as zero (floating-point noise
        # from channel arithmetic); anything lower is a genuine violation.
        lo = float(np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)))
        if lo < -PSD_CLAMP:
            raise ValueError(f"density matrix has negative eigenvalue {lo}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n_qubits(self) -> int:
        return _n_qubits_for(self.mat.shape[0])


def basis_state(n_qubits: int, index: int = 0) -> StateVector:
    """Computational basis state |index> on n_qubits qubits."""
    _check_int("n_qubits", n_qubits, 1)
    dim = 2**n_qubits
    if not _is_int(index) or not 0 <= index < dim:
        raise ValueError(f"basis index {index!r} is not an integer in 0..{dim - 1}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced 2x2 density matrix of qubit `keep`, tracing out the rest."""
    n = rho.n_qubits
    if not 0 <= keep < n:
        raise ValueError(f"qubit index {keep} out of range for {n} qubits")
    t = rho.mat.reshape([2] * (2 * n))
    # Move the kept qubit's row/col axes to the front, then trace pairwise
    # over the remaining axes.
    t = np.moveaxis(t, (keep, n + keep), (0, 1))
    reduced = t.reshape(2, 2, 2 ** (n - 1), 2 ** (n - 1))
    reduced = np.einsum("abkk->ab", reduced)
    return DensityMatrix(reduced)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state."""
    return float(np.sum(np.abs(rho.mat) ** 2))


def expm_hermitian(h: np.ndarray, scale: float) -> np.ndarray:
    """Unitary exp(1j * scale * h) of a Hermitian matrix, via eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    if not np.all(np.isfinite(h)) or np.max(np.abs(h - h.conj().T)) > HERM_TOL:
        raise ValueError("matrix is not Hermitian with finite entries")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * scale * w)) @ v.conj().T


def sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues in [-1e-8, 0) are clamped to zero; anything below -1e-8
    raises.
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)) or np.max(np.abs(m - m.conj().T)) > 1e-8:
        raise ValueError("matrix is not Hermitian with finite entries")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    if np.min(w) < -1e-8:
        raise ValueError(f"matrix has negative eigenvalue {np.min(w)}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
