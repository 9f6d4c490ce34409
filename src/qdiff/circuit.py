"""Parameterized quantum circuits and their statevector simulation.

Gate angles may be bound to a trainable parameter through an affine map
angle = offset + scale * params[param_ref], which lets structural blocks bake
fixed angle offsets into the gate while keeping the underlying parameter
trainable. A circuit's angles are those of its m gates bound to a parameter,
in gate order: `effective_angles` maps (n_params,) parameters to (m,) angles
and a (B, n_params) array of draws to (m, B), one column per draw; a
function of one circuit state (run_circuit, circuit_unitary, unit_daggers)
refuses draws. Every other gate's matrix, a fixed-angle rotation's
included, is a constant that each circuit resolves once, in its table
(`ParamCircuit.table`).

Every simulation runs through `run_block` on a (2^n, B) block of states, one
column per state; a single state is a one-column block, and the dense
unitary is the circuit run on the identity. It walks the circuit's steps
(`ParamCircuit.steps`, planned once per circuit), which are of two kinds.
Each maximal run of constant gates whose matrices hold one nonzero entry per
row (X, CNOT, CZ, a fixed-angle RZ or PHASE, a CU gate with such a payload)
is one gather-and-scale step on the full register: its gates multiplied
out are a permutation of the amplitudes times a phase, so the step is one
row gather and one elementwise multiply. Every other gate (H, a rotation
bound to a parameter, a dense CU) is one call of the kernel, `_apply_kq`,
which applies the gate's matrix from `gate_matrices`, the one map from a
circuit's angles to its gates' matrices (a CU gate's control included).
(m, B) angles give each rotation bound to a parameter a (B, 2, 2) stack of
matrices, one per column, which the kernel applies elementwise along the
batch axis as two whole-block products, one with the stack's diagonal and one
with its anti-diagonal (only the first for RZ and PHASE, diagonal by kind);
a constant's one matrix acts on every column. Both step kinds
act on each column alone, so a column's result does not depend on B.

A circuit is also a product of fused units: `ParamCircuit.units` groups the
gates once, each rotation bound to a parameter with the run of constant gates
before it, so long as their wires number at most MAX_UNIT_WIRES (a unit's
matrix is then at most 16x16; units as wide as a 6- or 7-qubit register were
slower than the gates they replaced). `unit_daggers` builds every unit's
U^dag at a parameter state, a trainable one's as alpha A + beta B from two
cached matrices, and `unit_suffixes` multiplies them out into the stack of
the circuit's suffix products, whose first entry is its U^dag. The model
builds each circuit's stack once per forward: it runs the circuit, and the
adjoint gradient (measure.adjoint_gradient) reads every unit's states from
it. On a register of at most MAX_UNIT_WIRES wires every unit spans all of
it, so the kernel applies it as one matmul.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .qcore import PAULI_X, PAULI_Y, PAULI_Z, StateVector, _check_int, _is_int

ROTATION_KINDS = ("RX", "RY", "RZ", "PHASE")
_DIAGONAL_KINDS = ("RZ", "PHASE")  # rotations whose matrix is diagonal at every angle
FIXED_KINDS = ("H", "X", "CNOT", "CZ", "CU")

_H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X_MAT = np.array([[0, 1], [1, 0]], dtype=complex)
_CNOT_MAT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CZ_MAT = np.diag([1, 1, 1, -1]).astype(complex)
_FIXED_MATS = {"H": _H_MAT, "X": _X_MAT, "CNOT": _CNOT_MAT, "CZ": _CZ_MAT}
# dU(a)/da = G U(a) for each rotation kind: RX/RY/RZ are exp(-i a P / 2),
# PHASE is diag(1, e^{ia}).
_GENERATORS = {
    "RX": -0.5j * PAULI_X,
    "RY": -0.5j * PAULI_Y,
    "RZ": -0.5j * PAULI_Z,
    "PHASE": np.diag([0.0, 1.0j]),
}
# R(a) = cos(a/2) I - i sin(a/2) P; PHASE, diag(1, e^{ia}), mixes I and Z
_PAULIS = {"RX": PAULI_X, "RY": PAULI_Y, "RZ": PAULI_Z, "PHASE": PAULI_Z}
MAX_UNIT_WIRES = 4  # the widest fused unit (see the module docstring)
SUFFIX_BYTES = 2**27  # unit_suffixes' largest stack, 128 MiB: 127 units at n = 8


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
        for name in ("fixed_angle", "scale", "offset"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.kind} {name} must be finite, got {value!r}")
        if self.kind == "CU":
            if self.matrix is None:
                raise ValueError("CU needs a unitary payload")
            k = len(self.targets) - 1
            if k < 1 or self.matrix.shape != (2**k, 2**k):
                raise ValueError("CU payload shape does not match its targets")
            if not np.all(np.isfinite(self.matrix)):
                raise ValueError("CU payload must be finite")
            deviation = np.max(np.abs(self.matrix.conj().T @ self.matrix - np.eye(2**k)))
            if deviation > 1e-10:
                raise ValueError(f"CU payload is not unitary: max |M^dag M - I| = {deviation:.3e}")


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


class _GateTable(NamedTuple):
    """What effective_angles and gate_matrices read, built once per circuit.

    bound, refs, scales, offsets: the indices of the m gates bound to a
    parameter, their refs, and their scales and offsets as (m, 1) columns.
    rotations: per rotation kind bound to a parameter, its gates' places in
    bound. constants: every other gate's matrix on all of its targets (a CU
    gate's control included, a fixed-angle rotation at its angle), None for
    a gate bound to a parameter.
    """

    bound: np.ndarray
    refs: np.ndarray
    scales: np.ndarray
    offsets: np.ndarray
    rotations: tuple
    constants: tuple


@dataclass(frozen=True)
class ParamCircuit:
    """Ordered gate list over n_qubits with n_params trainable angles."""

    n_qubits: int
    gates: tuple
    n_params: int
    table: _GateTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_int("n_qubits", self.n_qubits, 1)
        _check_int("n_params", self.n_params, 0)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for t in g.targets:
                if not _is_int(t):
                    raise ValueError(f"gate target {t!r} is not an integer")
                if not 0 <= t < self.n_qubits:
                    raise ValueError(f"gate target {t} out of range for {self.n_qubits} qubits")
            if g.param_ref is not None and not _is_int(g.param_ref):
                raise ValueError(f"param_ref {g.param_ref!r} is not an integer")
            if g.param_ref is not None and not 0 <= g.param_ref < self.n_params:
                raise ValueError(f"param_ref {g.param_ref} out of range for {self.n_params} params")
        bound = [i for i, g in enumerate(self.gates) if g.param_ref is not None]
        by_kind = {}
        for p, i in enumerate(bound):
            by_kind.setdefault(self.gates[i].kind, []).append(p)

        def values(name, dtype=float):
            return np.array([getattr(self.gates[i], name) for i in bound], dtype=dtype)

        object.__setattr__(self, "table", _GateTable(
            np.array(bound, dtype=int), values("param_ref", int),
            values("scale")[:, None], values("offset")[:, None],
            tuple((kind, np.array(pos)) for kind, pos in by_kind.items()),
            tuple(None if g.param_ref is not None
                  else rotation_matrix(g.kind, g.fixed_angle) if g.fixed_angle is not None
                  else control_embed(g.matrix) if g.kind == "CU" else _FIXED_MATS[g.kind]
                  for g in self.gates)))

    @cached_property
    def units(self) -> _UnitPlan:
        """The circuit's fused units, built on first use (_fuse_units)."""
        return _fuse_units(self)

    @cached_property
    def steps(self) -> tuple:
        """run_block's steps, built on first use (_plan_steps)."""
        return _plan_steps(self)


class _Gather(NamedTuple):
    """A run of constant monomial gates as one step: out[j] = diag[j] * in[perm[j]].

    gates: the run's gate indices. perm: (2^n,) int32 row indices. diag: (2^n, 1)
    phases, None when every one is 1.
    """

    gates: range
    perm: np.ndarray
    diag: np.ndarray | None


def _monomial(mat: np.ndarray | None):
    """(cols, phases) with mat[r, cols[r]] = phases[r] the only nonzero entry of
    row r, or None when mat (None for a rotation bound to a parameter) has a
    row with more or fewer."""
    if mat is None:
        return None
    nonzero = mat != 0
    if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
        return None
    cols = np.argmax(nonzero, axis=1)
    return cols, mat[np.arange(len(mat)), cols]


def _plan_steps(c: ParamCircuit) -> tuple:
    """c's gates as run_block's steps, in order: each maximal run of consecutive
    constant monomial gates (X, CNOT, CZ, a fixed RZ or PHASE, a CU whose payload
    is one) as one _Gather on the full register, every other gate as its index.

    Whether a gate is monomial is read from its constant matrix. A gate whose row r
    holds phases[r] in column cols[r] maps register row (r, s), r its bits on
    the gate's targets and s the rest, to phases[r] times row (cols[r], s); a
    run composes its gates' maps in order.
    """
    n = c.n_qubits
    rows = np.arange(2**n, dtype=np.int32)  # half the bytes of intp; np.take is as fast
    steps = []
    for i, (g, mat) in enumerate(zip(c.gates, c.table.constants)):
        mono = _monomial(mat)
        if mono is None:
            steps.append(i)
            continue
        cols, phases = mono
        # the register rows as (r, s): the gate's targets first, in its order
        rs = np.moveaxis(rows.reshape((2,) * n), g.targets, range(len(g.targets)))
        rs = rs.reshape(len(cols), -1)
        perm, diag = np.empty_like(rows), np.empty((len(rows), 1), dtype=complex)
        perm[rs], diag[rs, 0] = rs[cols], phases[:, None]
        run = steps[-1] if steps else None
        if isinstance(run, _Gather):  # the gate after the run: diag[j] * run(in)[perm[j]]
            steps[-1] = _Gather(range(run.gates.start, i + 1), run.perm[perm],
                                diag * run.diag[perm])
        else:
            steps.append(_Gather(range(i, i + 1), perm, diag))
    return tuple(step if isinstance(step, int) or np.any(step.diag != 1)
                 else step._replace(diag=None) for step in steps)


class _UnitPlan(NamedTuple):
    """A circuit's gates grouped into fused units, in gate order.

    wires: each unit's wires, the order its matrix indexes them. daggers: a
    constant unit's U^dag, None for a trainable one. Trainable unit i holds
    bound gate table.bound[i] last; for these:
    trainable: (m,) each one's place in wires.
    terms: per unit size D, (their places among the m, A = F^dag, B = F^dag P),
      the last two (m_D, D, D); F is the fixed part, P the rotation's _PAULIS.
    lead: (m, 2^n) row orders that put each rotation's wire first in a block.
    generators: (m, 2, 2), each rotation's G with dU/da = G U.
    """

    wires: tuple
    daggers: tuple
    trainable: np.ndarray
    terms: tuple
    lead: np.ndarray
    generators: np.ndarray


def _fuse_units(c: ParamCircuit) -> _UnitPlan:
    """Group c's gates into units: each bound rotation closes one with the constant
    gates before it, and a run of constant gates closes a constant unit when one
    more gate would take it past MAX_UNIT_WIRES wires, or at the circuit's end.

    A unit acts on the whole register when that has at most MAX_UNIT_WIRES wires,
    else on its gates' wires in ascending order. Its fixed part F is multiplied
    out here, once, by applying its gates' table.constants in order to the
    identity on the unit's wires.
    """
    n = c.n_qubits
    runs, run = [], []
    for i, g in enumerate(c.gates):
        if run and len({t for j in run + [i] for t in c.gates[j].targets}) > MAX_UNIT_WIRES:
            runs.append(run)
            run = []
        run.append(i)
        if g.param_ref is not None:
            runs.append(run)
            run = []
    if run:
        runs.append(run)

    wires, daggers, trainable, terms, lead, gens = [], [], [], {}, [], []
    for run in runs:
        w = tuple(range(n)) if n <= MAX_UNIT_WIRES else tuple(
            sorted({t for i in run for t in c.gates[i].targets}))
        at = {t: p for p, t in enumerate(w)}
        rot = c.gates[run.pop()] if c.gates[run[-1]].param_ref is not None else None
        fixed = np.eye(2**len(w), dtype=complex)
        for i in run:
            fixed = _apply_kq(fixed, c.table.constants[i],
                              tuple(at[t] for t in c.gates[i].targets), len(w))
        wires.append(w)
        if rot is None:
            daggers.append(np.ascontiguousarray(fixed.conj().T))
            continue
        daggers.append(None)
        (q,) = rot.targets
        places, a, b = terms.setdefault(len(fixed), ([], [], []))
        places.append(len(trainable))
        a.append(fixed.conj().T)
        b.append(_apply_kq(fixed, _PAULIS[rot.kind], (at[q],), len(w)).conj().T)  # (P F)^dag
        trainable.append(len(wires) - 1)
        lead.append(np.arange(2**n).reshape(2**q, 2, -1).transpose(1, 0, 2).ravel())
        gens.append(_GENERATORS[rot.kind])
    return _UnitPlan(tuple(wires), tuple(daggers), np.array(trainable, dtype=int),
                     tuple((np.array(p), np.array(a), np.array(b)) for p, a, b in terms.values()),
                     np.array(lead, dtype=int).reshape(len(lead), 2**n),
                     np.array(gens, dtype=complex).reshape(len(gens), 2, 2))


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
    axis last, and its inverse; None when `qubits` already lead."""
    order = qubits + tuple(a for a in range(n + 1) if a not in qubits)
    if order == tuple(range(n + 1)):
        return None
    inverse = tuple(sorted(range(n + 1), key=order.__getitem__))
    return order, inverse


def _apply_kq(block: np.ndarray, mat: np.ndarray, qubits, n: int,
              out: np.ndarray | None = None, work: np.ndarray | None = None,
              diagonal: bool = False) -> np.ndarray:
    """mat on `qubits` of every column of a (2^n, B) block of states, into out.

    A (d, d) mat acts on every column: the block is gathered into out in the
    axis order that puts the targets first, mat acts on the leading 2^k rows
    as one matmul into work, and the inverse transpose scatters it back into
    out. A (B, 2, 2) stack acts on one qubit q column by column, elementwise
    along the batch axis of the block's (2^q, 2, R, B) view t: with the
    stack's diagonal and anti-diagonal read as (2, B) views,
    out = t * diag + t[:, ::-1] * anti, that is
    out[:, i] = t[:, i] * mat[:, i, i] + t[:, 1 - i] * mat[:, i, 1 - i]. That
    is two multiplies and one add over the whole block, with no copy, no
    loop and no matmul per column; diagonal (an RZ or PHASE stack, as
    run_block reads from the gate's kind) skips the anti-diagonal product.
    Each entry sums the same two products, state times matrix entry, as
    t[:, 0] * mat[:, i, 0] + t[:, 1] * mat[:, i, 1]; the sum commutes, so
    the order of the two changes no bit. An entry reads only its own
    column, so a column's result does not depend on B.

    out ((2^n, B) complex, not overlapping block) and work (block.size
    complex entries) are allocated when not given; run_block passes both,
    so no gate allocates. It applies every gate that run_block does not
    gather (ParamCircuit.steps), every gate of the Hadamard test, and every
    unit of unit_suffixes.
    """
    if out is None:
        out = np.empty(block.shape, dtype=complex)
    if work is None:
        work = np.empty(block.size, dtype=complex)
    if mat.ndim == 2:
        d, orders = len(mat), _axis_orders(tuple(qubits), n)
        if orders is None:  # the targets lead: the block is already gathered
            np.matmul(mat, block.reshape(d, -1), out=out.reshape(d, -1))
            return out
        # the batch axis stays last, so the gathered order has the block's shape
        shape = (2,) * n + (block.shape[1],)
        gathered = out.reshape(shape)
        gathered[...] = block.reshape(shape).transpose(orders[0])
        product = work.reshape(d, -1)
        np.matmul(mat, gathered.reshape(d, -1), out=product)
        gathered[...] = product.reshape(shape).transpose(orders[1])
        return out
    if len(mat) != block.shape[1]:
        raise ValueError(f"{len(mat)} gate matrices for a block of {block.shape[1]} columns")
    (q,) = qubits  # per-column stacks come from one-qubit rotations
    t = block.reshape(2**q, 2, -1, block.shape[1])
    o = out.reshape(t.shape)
    # every column's m[i, i] and m[i, 1 - i] as (2, 1, B) views, row i on axis 0
    np.multiply(t, mat.diagonal(0, 1, 2).T[:, None], out=o)
    if not diagonal:
        anti = work[:block.size].reshape(t.shape)
        np.multiply(t[:, ::-1], mat[:, :, ::-1].diagonal(0, 1, 2).T[:, None], out=anti)
        o += anti
    return out


def control_embed(mat: np.ndarray) -> np.ndarray:
    """diag(1, mat): mat on the wires after a leading control, applied where it is 1."""
    d = mat.shape[0]
    full = np.eye(2 * d, dtype=complex)
    full[d:, d:] = mat
    return full


def gate_matrices(c: ParamCircuit, angles: np.ndarray) -> list:
    """Each gate's matrix on all of its targets, a CU gate's control included.

    angles are effective_angles', one row per gate bound to a parameter:
    (m,) angles give each such rotation a 2x2 matrix, (m, B) angles a
    (B, 2, 2) stack, one matrix per column. Every other gate's matrix is its
    constant from c.table. Each rotation kind bound to a parameter is built
    in one rotation_matrix call over its gates' angles, so the builder's
    fixed cost of a few microseconds is paid per kind, not per gate.
    """
    mats = list(c.table.constants)
    for kind, pos in c.table.rotations:
        for i, mat in zip(c.table.bound[pos], rotation_matrix(kind, angles[pos])):
            mats[i] = mat
    return mats


def unit_daggers(c: ParamCircuit, params) -> list:
    """U^dag of each unit of c.units at params, in c.units' order.

    A constant unit's is its cached dagger. A trainable unit's U = R F, its
    rotation after its fixed part, so U^dag = F^dag R^dag = alpha A + beta B
    with R^dag = alpha I + beta P: alpha = cos(a/2) and beta = i sin(a/2), or
    (1 +- e^{-ia})/2 for PHASE. That is one expression per unit size.
    """
    angles = _vector_angles(c, params)
    half = angles / 2.0
    alpha, beta = np.cos(half) + 0j, 1j * np.sin(half)
    for kind, pos in c.table.rotations:
        if kind == "PHASE":
            turn = np.exp(-1j * angles[pos])
            alpha[pos], beta[pos] = (1 + turn) / 2, (1 - turn) / 2
    plan = c.units
    daggers = list(plan.daggers)
    for places, a, b in plan.terms:
        mats = alpha[places, None, None] * a + beta[places, None, None] * b
        for u, mat in zip(plan.trainable[places], mats):
            daggers[u] = mat
    return daggers


def unit_suffixes(c: ParamCircuit, daggers) -> np.ndarray:
    """The (K+1, 2^n, 2^n) stack S[k] = U_{k+1}^dag ... U_K^dag of unit_daggers'
    K matrices, unit k of c.units counted from 1: S[K] = I, S[0] = U^dag, and S[k]
    maps the circuit's output to its state just after unit k. S[k-1] is one kernel
    call of U_k^dag on S[k]. The dense stack is refused past SUFFIX_BYTES.
    """
    n, k = c.n_qubits, len(c.units.wires)
    if len(daggers) != k:
        raise ValueError(f"expected {k} unit matrices, got {len(daggers)}")
    size = (k + 1) * 16 * 4**n
    if size > SUFFIX_BYTES:
        raise ValueError(f"{k + 1} suffix products on {n} qubits take {size} bytes, "
                         f"past SUFFIX_BYTES = {SUFFIX_BYTES}")
    stack = np.empty((k + 1, 2**n, 2**n), dtype=complex)
    stack[k] = np.eye(2**n)
    work = np.empty(4**n, dtype=complex)
    whole = tuple(range(n))
    for u in range(k, 0, -1):
        if c.units.wires[u - 1] == whole:  # the kernel's own matmul, without its set-up
            np.matmul(daggers[u - 1], stack[u], out=stack[u - 1])
        else:
            _apply_kq(stack[u], daggers[u - 1], c.units.wires[u - 1], n, stack[u - 1], work)
    return stack


def effective_angles(c: ParamCircuit, params) -> np.ndarray:
    """The angles of c's gates bound to a parameter, offset + scale * param.

    (n_params,) parameters give (m,) angles, one per gate of c.table.bound;
    a (B, n_params) array of parameter draws gives (m, B) angles, one column
    per draw. A non-finite parameter fails, naming its index (and draw).
    """
    params = np.asarray(params, dtype=float)
    if params.ndim not in (1, 2) or params.shape[-1] != c.n_params:
        raise ValueError(f"expected {c.n_params} parameters, got {params.shape}")
    if not np.all(np.isfinite(params)):
        *draw, j = np.argwhere(~np.isfinite(params))[0]
        where = f" of draw {draw[0]}" if draw else ""
        raise ValueError(f"parameter {j}{where} is not finite: {float(params[(*draw, j)])}")
    t = c.table
    out = t.offsets + t.scales * np.atleast_2d(params)[:, t.refs].T
    return out if params.ndim == 2 else out[:, 0]


def _vector_angles(c: ParamCircuit, params) -> np.ndarray:
    """effective_angles of one parameter vector: a function of one state refuses draws."""
    if np.ndim(params) != 1:
        raise ValueError(f"expected one vector of {c.n_params} parameters, "
                         f"got shape {np.shape(params)}")
    return effective_angles(c, params)


def run_with_angles(c: ParamCircuit, amps: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The circuit on one raw amplitude array with pre-resolved angles, as a one-column block."""
    return run_block(c, amps[:, None], angles)[:, 0]


def run_block(c: ParamCircuit, block: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The circuit on every column of a (2^n, B) block, one step of c.steps at a time:
    a gather and a multiply per run of constant monomial gates, a kernel call per other gate.

    angles are effective_angles', one row per gate bound to a parameter: (m,)
    angles are shared by every column; (m, B) angles give each column its
    own, as effective_angles returns them for B parameter draws.
    """
    block = np.asarray(block, dtype=complex)  # no copy of a complex block
    dim, m = 2**c.n_qubits, len(c.table.bound)
    if block.ndim != 2 or block.shape[0] != dim:
        raise ValueError(f"expected a ({dim}, B) block for {c.n_qubits} qubits, got {block.shape}")
    width = block.shape[1]
    if angles.ndim not in (1, 2) or len(angles) != m:
        raise ValueError(f"expected ({m},) or ({m}, {width}) angles, got {angles.shape}")
    if angles.ndim == 2 and angles.shape[1] != width:
        raise ValueError(f"angles {angles.shape} give {angles.shape[1]} gate matrices "
                         f"for a block of {width} columns")
    # The steps ping-pong between two work blocks and share one scratch array,
    # so no step allocates: a fresh multi-megabyte array per gate had the
    # allocator hand pages back and fault them in again, which at n = 12 cost
    # more than the arithmetic. The caller's block is read, never written.
    work, spare, mats = np.empty(block.size, dtype=complex), None, gate_matrices(c, angles)
    for i, step in enumerate(c.steps):
        out = np.empty(block.shape, dtype=complex) if spare is None else spare
        spare = block if i else None
        if isinstance(step, _Gather):
            # mode="clip": the default "raise" buffers out before writing it
            block = np.take(block, step.perm, axis=0, out=out, mode="clip")
            if step.diag is not None:
                block *= step.diag
        else:
            g = c.gates[step]
            block = _apply_kq(block, mats[step], g.targets, c.n_qubits, out, work,
                              g.kind in _DIAGONAL_KINDS)
    return block


def run_circuit(c: ParamCircuit, psi0: StateVector, params=()) -> StateVector:
    """Apply the circuit's gates in order to psi0."""
    if psi0.n_qubits != c.n_qubits:
        raise ValueError(f"state has {psi0.n_qubits} qubits, circuit {c.n_qubits}")
    return StateVector(run_with_angles(c, psi0.amps, _vector_angles(c, params)))


def circuit_unitary(c: ParamCircuit, params=()) -> np.ndarray:
    """Dense 2^n x 2^n unitary of the circuit (n_qubits <= 10), run on the identity block."""
    if c.n_qubits > 10:
        raise ValueError("circuit_unitary limited to 10 qubits")
    return run_block(c, np.eye(2**c.n_qubits, dtype=complex), _vector_angles(c, params))


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
    _check_int("n_qubits", n_qubits, 2)
    _check_int("n_layers", n_layers, 1)
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
