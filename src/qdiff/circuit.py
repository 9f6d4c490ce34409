"""Parameterized quantum circuits and their statevector simulation.

Gate angles may be bound to a trainable parameter through an affine map
angle = offset + scale * params[param_ref], which lets structural blocks bake
fixed angle offsets into the gate while keeping the underlying parameter
trainable. A circuit's angles are those of its m gates bound to a parameter,
in gate order: `effective_angles` maps (n_params,) parameters to (m,) angles
and a (B, n_params) array of draws to (m, B), one column per draw. Every
other gate's matrix, a fixed-angle rotation's included, is a constant that
each circuit resolves once, in its table (`ParamCircuit.table`).

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
batch axis; a constant's one matrix acts on every column. Both step kinds
act on each column alone, so a column's result does not depend on B.

The adjoint sweep (measure.adjoint_gradient) walks a circuit back through
fused units rather than gates: `ParamCircuit.units` groups the gates once,
each rotation bound to a parameter with the run of constant gates before it,
so long as their wires number at most MAX_UNIT_WIRES (a unit's matrix is then
at most 16x16; units as wide as a 6- or 7-qubit register were slower than
the gates they replaced). On a register of at most MAX_UNIT_WIRES wires
every unit spans all of it, so the kernel applies it as one matmul.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .qcore import PAULI_X, PAULI_Y, PAULI_Z, StateVector

ROTATION_KINDS = ("RX", "RY", "RZ", "PHASE")
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
MAX_UNIT_WIRES = 4  # the adjoint sweep's widest fused unit (see the module docstring)


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
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.n_params < 0:
            raise ValueError(f"n_params must be >= 0, got {self.n_params}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for t in g.targets:
                if not 0 <= t < self.n_qubits:
                    raise ValueError(f"gate target {t} out of range for {self.n_qubits} qubits")
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
        """The adjoint sweep's fused units, built on first use (_fuse_units)."""
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
    """A circuit's gates grouped into the adjoint sweep's units, in gate order.

    wires: each unit's wires, the order its matrix indexes them. daggers: a
    constant unit's U^dag, None for a trainable one. Trainable unit i holds
    bound gate table.bound[i] last; for these:
    groups: per unit size D and place p of the rotation's wire among the unit's,
      (D, the units, their fixed parts' conjugates F* shaped (m, 2^p, 2, R) so
      that axis 2 is that wire's bit of the row and a matmul by R* acts on it).
    lead: (m, 2^n) row orders that put each rotation's wire first in a block.
    generators: (m, 2, 2), each rotation's G with dU/da = G U.
    """

    wires: tuple
    daggers: tuple
    groups: tuple
    lead: np.ndarray
    generators: np.ndarray


def _fuse_units(c: ParamCircuit) -> _UnitPlan:
    """Group c's gates into units: each bound rotation closes one with the constant
    gates before it, and a run of constant gates closes a constant unit when one
    more gate would take it past MAX_UNIT_WIRES wires, or at the circuit's end.

    A unit acts on the whole register when that has at most MAX_UNIT_WIRES wires,
    else on its gates' wires in ascending order. Its fixed part is multiplied out
    here, once, by applying its gates' table.constants in order to the identity
    on the unit's wires.
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

    wires, daggers, groups, lead, gens = [], [], {}, [], []
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
        d, p = len(fixed), at[q]
        group = groups.setdefault((d, p), ([], []))
        group[0].append(len(lead))
        group[1].append(fixed.conj().reshape(2**p, 2, -1))
        lead.append(np.arange(2**n).reshape(2**q, 2, -1).transpose(1, 0, 2).ravel())
        gens.append(_GENERATORS[rot.kind])
    return _UnitPlan(tuple(wires), tuple(daggers),
                     tuple((d, np.array(u), np.array(f)) for (d, _), (u, f) in groups.items()),
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
              out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """mat on `qubits` of every column of a (2^n, B) block of states, into out.

    A (d, d) mat acts on every column: the block is gathered into out in the
    axis order that puts the targets first, mat acts on the leading 2^k rows
    as one matmul into work, and the inverse transpose scatters it back into
    out. A (B, 2, 2) stack acts on one qubit q column by column, elementwise
    along the batch axis of the block's (2^q, 2, R, B) view:
    out[:, i] = mat[:, i, 0] * t[:, 0] + mat[:, i, 1] * t[:, 1]. That is four
    multiplies and two adds over half the block each, with no transpose and
    no matmul per column; each entry reads only its own column, so a
    column's result does not depend on B.

    out ((2^n, B) complex, not overlapping block) and work (block.size
    complex entries) are allocated when not given; run_block passes both,
    so no gate allocates. It applies every gate that run_block does not
    gather (ParamCircuit.steps), and every gate of the Hadamard test and the
    adjoint sweep.
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
    term = work[:block.size // 2].reshape(o[:, 0].shape)
    m = np.ascontiguousarray(mat.transpose(1, 2, 0))
    for i in range(2):
        np.multiply(t[:, 0], m[i, 0], out=o[:, i])
        np.multiply(t[:, 1], m[i, 1], out=term)
        o[:, i] += term
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
            block = _apply_kq(block, mats[step], c.gates[step].targets, c.n_qubits, out, work)
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
