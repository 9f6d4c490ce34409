"""Parameterized quantum circuits and their statevector simulation.

Gate angles may be bound to a trainable parameter through an affine map
angle = offset + scale * params[param_ref], which lets structural blocks bake
fixed angle offsets into the gate while keeping the underlying parameter
trainable.

Every simulation runs through one kernel, `_apply_kq`: it applies a gate's
dense matrix to a (2^n, B) block of states, one column per state. A single
state is a one-column block, and the dense unitary is the circuit run on the
identity. `gate_matrices` is the one map from a circuit's angles to those
matrices (a CU gate's control included). A block may also carry one
parameter draw per column: (G, B) angles give each rotation a (B, 2, 2)
stack of matrices, one per column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qcore import StateVector

ROTATION_KINDS = ("RX", "RY", "RZ", "PHASE")
FIXED_KINDS = ("H", "X", "CNOT", "CZ", "CU")

_H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
_CNOT_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ_MAT = np.diag([1, 1, 1, -1]).astype(complex)
_FIXED_MATS = {"H": _H_MAT, "X": _X_MAT, "CNOT": _CNOT_MAT, "CZ": _CZ_MAT}


@dataclass(frozen=True)
class Gate:
    """One circuit operation.

    Rotation/phase kinds carry exactly one of (param_ref, fixed_angle); the
    remaining kinds carry neither. `CU` is a controlled unitary: targets[0]
    is the control and `matrix` acts on the remaining targets.
    """

    kind: str
    targets: tuple
    param_ref: int | None = None
    fixed_angle: float | None = None
    scale: float = 1.0
    offset: float = 0.0
    matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ROTATION_KINDS + FIXED_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate target in {self.targets}")
        if self.kind in ROTATION_KINDS:
            if (self.param_ref is None) == (self.fixed_angle is None):
                raise ValueError(f"{self.kind} needs exactly one of param_ref/fixed_angle")
        elif self.param_ref is not None or self.fixed_angle is not None:
            raise ValueError(f"{self.kind} takes no angle")
        if self.kind == "CU":
            if self.matrix is None:
                raise ValueError("CU needs a unitary payload")
            k = len(self.targets) - 1
            if k < 1 or self.matrix.shape != (2**k, 2**k):
                raise ValueError("CU payload shape does not match its targets")


def h(q: int) -> Gate:
    return Gate("H", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def cz(a: int, b: int) -> Gate:
    return Gate("CZ", (a, b))


def rx(q, ref=None, angle=None, scale=1.0, offset=0.0) -> Gate:
    return Gate("RX", (q,), param_ref=ref, fixed_angle=angle, scale=scale, offset=offset)


def ry(q, ref=None, angle=None, scale=1.0, offset=0.0) -> Gate:
    return Gate("RY", (q,), param_ref=ref, fixed_angle=angle, scale=scale, offset=offset)


def rz(q, ref=None, angle=None, scale=1.0, offset=0.0) -> Gate:
    return Gate("RZ", (q,), param_ref=ref, fixed_angle=angle, scale=scale, offset=offset)


def phase(q, ref=None, angle=None, scale=1.0, offset=0.0) -> Gate:
    return Gate("PHASE", (q,), param_ref=ref, fixed_angle=angle, scale=scale, offset=offset)


def controlled(control: int, targets, matrix: np.ndarray) -> Gate:
    return Gate("CU", (control, *targets), matrix=np.asarray(matrix, dtype=complex))


@dataclass(frozen=True)
class ParamCircuit:
    """Ordered gate list over n_qubits with n_params trainable angles."""

    n_qubits: int
    gates: tuple
    n_params: int

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for t in g.targets:
                if not 0 <= t < self.n_qubits:
                    raise ValueError(f"gate target {t} out of range for {self.n_qubits} qubits")
            if g.param_ref is not None and not 0 <= g.param_ref < self.n_params:
                raise ValueError(f"param_ref {g.param_ref} out of range for {self.n_params} params")


def rotation_matrix(kind: str, angle: float | np.ndarray) -> np.ndarray:
    """The 2x2 matrix of a rotation at each angle of an array of shape S, as S + (2, 2)."""
    angle = np.asarray(angle, dtype=float)
    half = angle / 2.0
    out = np.zeros(angle.shape + (2, 2), dtype=complex)
    if kind in ("RX", "RY"):
        c, s = np.cos(half), np.sin(half)
        out[..., 0, 0] = out[..., 1, 1] = c
        if kind == "RX":
            out[..., 0, 1] = out[..., 1, 0] = -1j * s
        else:
            out[..., 0, 1], out[..., 1, 0] = -s, s
    elif kind == "RZ":
        out[..., 0, 0], out[..., 1, 1] = np.exp(-1j * half), np.exp(1j * half)
    elif kind == "PHASE":
        out[..., 0, 0], out[..., 1, 1] = 1.0, np.exp(1j * angle)
    else:
        raise ValueError(f"{kind} is not a rotation kind")
    return out


@lru_cache(maxsize=None)
def _axis_orders(qubits: tuple, n: int):
    """Axis order that puts `qubits` first, the other wires next and the batch
    axis last, and its inverse."""
    order = qubits + tuple(a for a in range(n + 1) if a not in qubits)
    inverse = tuple(sorted(range(n + 1), key=order.__getitem__))
    return order, inverse


def _apply_kq(block: np.ndarray, mat: np.ndarray, qubits, n: int) -> np.ndarray:
    """mat on `qubits` of every column of a (2^n, B) block of states.

    The block is viewed as a (2,)*n + (B,) tensor; one transpose brings the
    target axes to the front, so mat acts on the leading 2^k rows, and the
    inverse transpose puts every axis back. A (d, d) mat acts on every
    column; a (B, d, d) stack acts column by column, as one batched matmul
    on the (B, d, R) view. The only code that applies a gate.
    """
    order, inverse = _axis_orders(tuple(qubits), n)
    t = block.reshape((2,) * n + (-1,)).transpose(order)
    if mat.ndim == 2:
        t = mat @ t.reshape(mat.shape[1], -1)
    else:
        if len(mat) != block.shape[1]:
            raise ValueError(f"{len(mat)} gate matrices for a block of {block.shape[1]} columns")
        # contiguous per column, so a column's product does not depend on B
        cols = np.ascontiguousarray(t.reshape(mat.shape[1], -1, len(mat)).transpose(2, 0, 1))
        t = (mat @ cols).transpose(1, 2, 0)
    t = t.reshape((2,) * n + (-1,))
    return t.transpose(inverse).reshape(block.shape)


def control_embed(mat: np.ndarray) -> np.ndarray:
    """diag(1, mat): mat on the wires after a leading control, applied where it is 1."""
    d = mat.shape[0]
    full = np.eye(2 * d, dtype=complex)
    full[d:, d:] = mat
    return full


def gate_matrices(c: ParamCircuit, angles: np.ndarray) -> list:
    """Each gate's matrix on all of its targets, a CU gate's control included.

    (G,) angles give each rotation a 2x2 matrix; (G, B) angles give it a
    (B, 2, 2) stack, one matrix per column. Each rotation kind is built in
    one rotation_matrix call over its gates' angles, so the builder's fixed
    cost of a few microseconds is paid per kind, not per gate.
    """
    mats, rotations = [], {}
    for i, g in enumerate(c.gates):
        if g.kind in ROTATION_KINDS:
            rotations.setdefault(g.kind, []).append(i)
        mats.append(control_embed(g.matrix) if g.kind == "CU" else _FIXED_MATS.get(g.kind))
    for kind, idx in rotations.items():
        for i, mat in zip(idx, rotation_matrix(kind, angles[idx])):
            mats[i] = mat
    return mats


def effective_angles(c: ParamCircuit, params) -> np.ndarray:
    """Per-gate resolved angles (nan for gates without one).

    (n_params,) parameters give (G,) angles; a (B, n_params) array of
    parameter draws gives (G, B) angles, one column per draw.
    """
    params = np.asarray(params, dtype=float)
    if params.ndim not in (1, 2) or params.shape[-1] != c.n_params:
        raise ValueError(f"expected {c.n_params} parameters, got {params.shape}")
    draws = np.atleast_2d(params)
    out = np.full((len(c.gates), len(draws)), np.nan)
    for i, g in enumerate(c.gates):
        if g.kind in ROTATION_KINDS:
            out[i] = (g.fixed_angle if g.param_ref is None
                      else g.offset + g.scale * draws[:, g.param_ref])
    return out if params.ndim == 2 else out[:, 0]


def run_with_angles(c: ParamCircuit, amps: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The circuit on one raw amplitude array with pre-resolved angles, as a one-column block."""
    return run_block(c, amps[:, None], angles)[:, 0]


def run_block(c: ParamCircuit, block: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The circuit on every column of a (2^n, B) block, one kernel call per gate.

    (G,) angles are shared by every column; (G, B) angles give each column
    its own, as effective_angles returns them for B parameter draws.
    """
    for g, mat in zip(c.gates, gate_matrices(c, angles)):
        block = _apply_kq(block, mat, g.targets, c.n_qubits)
    return block


def run_circuit(c: ParamCircuit, psi0: StateVector, params=()) -> StateVector:
    """Apply the circuit's gates in order to psi0."""
    if psi0.n_qubits != c.n_qubits:
        raise ValueError(f"state has {psi0.n_qubits} qubits, circuit {c.n_qubits}")
    angles = effective_angles(c, params)
    return StateVector(run_with_angles(c, psi0.amps, angles))


def circuit_unitary(c: ParamCircuit, params=()) -> np.ndarray:
    """Dense 2^n x 2^n unitary of the circuit (n_qubits <= 10), run on the identity block."""
    if c.n_qubits > 10:
        raise ValueError("circuit_unitary limited to 10 qubits")
    return run_block(c, np.eye(2**c.n_qubits, dtype=complex), effective_angles(c, params))


def vw_block(q0: int, q1: int, param_refs) -> list:
    """Vatan-Williams two-qubit interaction block.

    Three CNOTs with alternating direction, interleaved with single-qubit
    rotations; with the referenced parameters (a, b, g) the block matches
    exp(-1j*(a XX + b YY + g ZZ)) up to a global phase. The canonical
    construction realizes the +i exponent, so the trainable terms enter the
    angle maps negated; the pi/2 offsets are compiled constants.
    """
    if q0 == q1:
        raise ValueError("vw_block needs two distinct qubits")
    a_ref, b_ref, g_ref = param_refs
    return [
        rz(q1, angle=-math.pi / 2),
        cnot(q1, q0),
        rz(q0, ref=g_ref, scale=2.0, offset=math.pi / 2),
        ry(q1, ref=a_ref, scale=-2.0, offset=-math.pi / 2),
        cnot(q0, q1),
        ry(q1, ref=b_ref, scale=2.0, offset=math.pi / 2),
        cnot(q1, q0),
        rz(q0, angle=math.pi / 2),
    ]


def mixing_layer(n_qubits: int, param_refs) -> list:
    """Cluster-state phase-mixing layer: H on all, CZ chain, per-qubit RX."""
    if n_qubits < 2:
        raise ValueError("mixing_layer needs at least 2 qubits")
    if len(param_refs) != n_qubits:
        raise ValueError("mixing_layer needs one parameter per qubit")
    gates = [h(q) for q in range(n_qubits)]
    gates += [cz(j, j + 1) for j in range(n_qubits - 1)]
    gates += [rx(q, ref=param_refs[q]) for q in range(n_qubits)]
    return gates


def brick_pairs(n_qubits: int) -> list:
    """Two-qubit pairs in brick order: even offset (0,1),(2,3),.. then odd."""
    pairs = [(q, q + 1) for q in range(0, n_qubits - 1, 2)]
    pairs += [(q, q + 1) for q in range(1, n_qubits - 1, 2)]
    return pairs


def build_ansatz(n_qubits: int, n_layers: int) -> ParamCircuit:
    """Layered ansatz: brick-tiled vw_blocks followed by a mixing layer.

    Parameter count is n_layers * (3 * n_pairs + n_qubits).
    """
    if n_qubits < 2 or n_layers < 1:
        raise ValueError("build_ansatz needs n_qubits >= 2 and n_layers >= 1")
    gates = []
    next_ref = 0
    for _ in range(n_layers):
        for q0, q1 in brick_pairs(n_qubits):
            gates += vw_block(q0, q1, (next_ref, next_ref + 1, next_ref + 2))
            next_ref += 3
        gates += mixing_layer(n_qubits, list(range(next_ref, next_ref + n_qubits)))
        next_ref += n_qubits
    return ParamCircuit(n_qubits, tuple(gates), next_ref)


def dump_circuit(c: ParamCircuit) -> str:
    """One gate per line: KIND targets... [pREF[*scale+offset] | angle]."""
    lines = []
    for g in c.gates:
        parts = [g.kind] + [str(t) for t in g.targets]
        if g.kind in ROTATION_KINDS:
            if g.param_ref is not None:
                spec = f"p{g.param_ref}"
                if g.scale != 1.0 or g.offset != 0.0:
                    spec += f"*{g.scale!r}+{g.offset!r}"
                parts.append(spec)
            else:
                parts.append(repr(float(g.fixed_angle)))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
