"""Gate semantics, statevector simulation, and the ansatz building blocks.

The heavy check here is compositional: applying gates one by one to a state
must agree with multiplying out the full circuit unitary, and the two-qubit
block must synthesize exp(-i(a XX + b YY + c ZZ)) up to global phase.
"""
import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiff import circuit
from qdiff.circuit import (
    ROTATION_KINDS,
    Gate,
    ParamCircuit,
    _Gather,
    _apply_kq,
    build_ansatz,
    circuit_unitary,
    cnot,
    controlled,
    cz,
    dump_circuit,
    effective_angles,
    h,
    mixing_layer,
    phase,
    rotation_matrix,
    run_block,
    run_circuit,
    run_with_angles,
    rx,
    ry,
    rz,
    vw_block,
    x,
)
from qdiff.qcore import PAULI_X, PAULI_Y, PAULI_Z, basis_state, expm_hermitian

from circuit_oracles import (
    FIXED_MATS,
    effective_angles_oracle,
    full_unitary_oracle,
    random_mixed_circuit,
)

H2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def random_state_vec(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def rotation_closed_form(kind, t):
    c, s = math.cos(t / 2), math.sin(t / 2)
    return {"RZ": [[cmath.exp(-0.5j * t), 0], [0, cmath.exp(0.5j * t)]],
            "RY": [[c, -s], [s, c]],
            "RX": [[c, -1j * s], [-1j * s, c]],
            "PHASE": [[1, 0], [0, cmath.exp(1j * t)]]}[kind]


def test_rotation_conventions():
    """rotation_matrix on a scalar angle is the 2x2 closed form."""
    th = 0.73
    for kind in ("RX", "RY", "RZ", "PHASE"):
        got = rotation_matrix(kind, th)
        assert got.shape == (2, 2)
        assert np.max(np.abs(got - np.array(rotation_closed_form(kind, th)))) < 1e-15


@pytest.mark.parametrize("kind", ["RX", "RY", "RZ", "PHASE"])
def test_rotation_matrix_stacks_one_matrix_per_angle(kind):
    """rotation_matrix on an angle array of shape S is S + (2, 2), each entry
    the closed form at its angle."""
    rng = np.random.default_rng(3)
    for shape in [(9,), (3, 2)]:
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, shape)
        got = rotation_matrix(kind, angles)
        assert got.shape == shape + (2, 2)
        for t, m in zip(angles.ravel(), got.reshape(-1, 2, 2)):
            assert np.max(np.abs(m - np.array(rotation_closed_form(kind, t)))) < 1e-15
        with pytest.raises(ValueError, match="H is not a rotation kind"):
            rotation_matrix("H", angles)


def one_gate(n, g, state):
    """`state` after the one-gate circuit g on n qubits."""
    return run_circuit(ParamCircuit(n, (g,), 0), state).amps


def test_ry_on_zero_gives_cos_sin():
    out = one_gate(1, ry(0, angle=0.9), basis_state(1))
    assert np.allclose(out, [math.cos(0.45), math.sin(0.45)])


def test_cnot_and_cz_truth_tables():
    # control q0 (MSB), target q1: |10> -> |11>, |11> -> |10>
    for idx, expect in [(0, 0), (1, 1), (2, 3), (3, 2)]:
        out = one_gate(2, cnot(0, 1), basis_state(2, idx))
        assert out[expect] == 1.0 and np.count_nonzero(out) == 1
    for idx, sign in [(0, 1), (1, 1), (2, 1), (3, -1)]:
        out = one_gate(2, cz(0, 1), basis_state(2, idx))
        assert out[idx] == sign


def test_gate_wider_than_its_circuit_or_state_is_rejected():
    with pytest.raises(ValueError, match="gate target 1 out of range for 1 qubits"):
        ParamCircuit(1, (cnot(0, 1),), 0)
    with pytest.raises(ValueError, match="gate target 2 out of range for 2 qubits"):
        ParamCircuit(2, (h(2),), 0)
    with pytest.raises(ValueError, match="state has 2 qubits, circuit 3"):
        one_gate(3, h(2), basis_state(2))


def test_gate_validation():
    with pytest.raises(ValueError):
        rx(0)  # neither ref nor angle
    with pytest.raises(ValueError):
        rx(0, ref=1, angle=0.2)  # both
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1))  # duplicate targets
    with pytest.raises(ValueError):
        Gate("ROT", (0,))  # unknown kind
    with pytest.raises(ValueError):
        controlled(0, (1,), np.eye(3))  # payload not 2^k
    # a payload that is not unitary, or not finite, is refused: the adjoint sweep
    # un-applies gates by their adjoints, which holds only for unitary ones
    with pytest.raises(ValueError, match=re.escape("not unitary: max |M^dag M - I| = 3.000e+00")):
        controlled(0, (1,), np.diag([2.0, 1.0]))
    with pytest.raises(ValueError, match=re.escape("max |M^dag M - I| = 1.000e-09")):
        controlled(0, (1, 2), np.diag([1.0, 1.0, 1.0, np.sqrt(1 + 1e-9)]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="CU payload must be finite"):
            controlled(0, (1,), np.array([[bad, 0], [0, 1]]))
    controlled(0, (1,), np.diag([1.0, 1.0 + 1e-12]))  # within 1e-10 of unitary


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gate_rejects_non_finite_angle_maps(bad):
    with pytest.raises(ValueError, match="RX fixed_angle must be finite"):
        rx(0, angle=bad)
    with pytest.raises(ValueError, match="RY scale must be finite"):
        ry(0, ref=0, scale=bad)
    with pytest.raises(ValueError, match="PHASE offset must be finite"):
        phase(0, ref=0, offset=bad)


def test_circuit_rejects_bad_sizes():
    with pytest.raises(ValueError, match="n_qubits must be >= 1, got 0"):
        ParamCircuit(0, (), 0)
    with pytest.raises(ValueError, match="n_params must be >= 0, got -1"):
        ParamCircuit(1, (), -1)


def test_run_block_checks_block_and_angle_shapes():
    """A block that is not (2^n, B), or angles that are not (m,) or (m, B) for
    the m gates bound to a parameter, fail naming both shapes instead of being
    reshaped or indexed past."""
    bell = ParamCircuit(2, (h(0), cnot(0, 1)), 0)
    for shape in [(8, 3), (4,), (2, 2, 2)]:
        msg = re.escape(f"a (4, B) block for 2 qubits, got {shape}")
        with pytest.raises(ValueError, match=msg):
            run_block(bell, np.zeros(shape, dtype=complex), effective_angles(bell, ()))
    c = build_ansatz(2, 2)
    block = np.eye(4, 2, dtype=complex)
    for shape in [(3,), (10, 2, 1), (3, 2), (26,)]:
        with pytest.raises(ValueError, match=re.escape(f"(10,) or (10, 2) angles, got {shape}")):
            run_block(c, block, np.zeros(shape))
    # every rotation fixed: the angles have no rows, and their columns still must match
    fixed = ParamCircuit(1, (rx(0, angle=0.3), h(0)), 0)
    with pytest.raises(ValueError, match="3 gate matrices for a block of 2 columns"):
        run_block(fixed, np.eye(2, dtype=complex), np.zeros((0, 3)))


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(1e-3, 1e6))
def test_effective_angles_table_matches_the_per_gate_loop(seed, b, spread):
    """The table-driven angles equal the per-gate loop bitwise, for (n,)
    parameters and (B, n) draws, with shared refs and fixed angles."""
    rng = np.random.default_rng(seed)
    c = random_mixed_circuit(rng, fixed_angles=True)
    for params in (rng.uniform(-spread, spread, c.n_params),
                   rng.uniform(-spread, spread, (b, c.n_params))):
        got, want = effective_angles(c, params), effective_angles_oracle(c, params)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_effective_angles_affine_map():
    """The bound RY gets offset + scale * param; the fixed RZ has no angle, its
    matrix is the table's constant at its fixed angle."""
    c = ParamCircuit(1, (ry(0, ref=0, scale=-2.0, offset=0.5), rz(0, angle=1.0)), 1)
    angles = effective_angles(c, np.array([0.25]))
    assert angles.shape == (1,)
    assert angles[0] == pytest.approx(-2.0 * 0.25 + 0.5)
    assert c.table.constants[0] is None
    assert np.allclose(c.table.constants[1], rotation_closed_form("RZ", 1.0))


def test_effective_angles_one_column_per_draw():
    c = ParamCircuit(2, (ry(0, ref=1, scale=-2.0, offset=0.5), cnot(0, 1),
                         rz(1, angle=1.0), phase(0, ref=0)), 2)
    draws = np.random.default_rng(4).uniform(0, 2 * np.pi, (5, 2))
    angles = effective_angles(c, draws)
    assert angles.shape == (2, 5)
    for j, p in enumerate(draws):
        assert np.array_equal(angles[:, j], effective_angles(c, p))
    with pytest.raises(ValueError, match="expected 2 parameters"):
        effective_angles(c, np.zeros((5, 3)))


def test_effective_angles_reject_non_finite_parameters():
    """A NaN or infinite parameter fails where parameters become angles, naming
    the first bad index and, for (B, n) draws, its draw, so no simulation
    returns a NaN state without an error."""
    c = ParamCircuit(2, (ry(0, ref=1), cnot(0, 1), rz(1, angle=1.0), phase(0, ref=0)), 3)
    with pytest.raises(ValueError, match="parameter 1 is not finite: nan"):
        effective_angles(c, [0.0, math.nan, math.inf])
    with pytest.raises(ValueError, match="parameter 2 is not finite: -inf"):
        circuit_unitary(c, [0.0, 1.0, -math.inf])
    draws = np.zeros((4, 3))
    draws[2, 0], draws[3, 1] = math.inf, math.nan
    with pytest.raises(ValueError, match="parameter 0 of draw 2 is not finite: inf"):
        effective_angles(c, draws)


def column_unitary_oracle(c, params):
    """The unitary built column by column, one single-state simulation per basis state.

    It runs the same kernel as circuit_unitary, so it checks the block layout;
    full_unitary_oracle is the independent reference.
    """
    angles = effective_angles(c, params)
    cols = [run_with_angles(c, col.copy(), angles) for col in np.eye(2**c.n_qubits, dtype=complex)]
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_gates_matches_full_unitary(n):
    rng = np.random.default_rng(40 + n)
    gates = []
    n_params = 4
    kinds = ["h", "x", "rx", "ry", "rz", "phase"]
    if n >= 2:
        kinds += ["cnot", "cz", "cu", "monomial cu"]

    def random_controlled(q, q2, n_wires, monomial=False):
        """A random unitary on n_wires wires controlled by q, or with monomial a
        random permutation times random unit phases."""
        wires = [q2] + [int(w) for w in rng.permutation(n) if w not in (q, q2)][:n_wires - 1]
        d = 2 ** len(wires)
        if monomial:
            u = np.exp(1j * rng.uniform(-np.pi, np.pi, (d, 1))) * np.eye(d)[rng.permutation(d)]
        else:
            u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        return controlled(q, wires, u)

    for _ in range(12):
        kind = rng.choice(kinds)
        q = int(rng.integers(n))
        if kind in ("h",):
            gates.append(h(q))
        elif kind == "x":
            gates.append(x(q))
        elif kind in ("rx", "ry", "rz", "phase"):
            ctor = {"rx": rx, "ry": ry, "rz": rz, "phase": phase}[kind]
            if rng.uniform() < 0.5:
                gates.append(ctor(q, ref=int(rng.integers(n_params)),
                                  scale=float(rng.uniform(-2, 2)),
                                  offset=float(rng.uniform(-1, 1))))
            else:
                gates.append(ctor(q, angle=float(rng.uniform(-np.pi, np.pi))))
        else:
            q2 = int(rng.integers(n))
            while q2 == q:
                q2 = int(rng.integers(n))
            if kind == "cnot":
                gates.append(cnot(q, q2))
            elif kind == "cz":
                gates.append(cz(q, q2))
            else:
                gates.append(random_controlled(q, q2, int(rng.integers(1, min(n - 1, 2) + 1)),
                                               monomial=kind == "monomial cu"))
    # a run of fixed monomial gates, which run_block applies as one gather-and-scale step
    q, q2 = (int(w) for w in rng.permutation(n)[:2]) if n >= 2 else (0, None)
    run = [x(q), rz(q, angle=float(rng.uniform(-np.pi, np.pi))),
           phase(q, angle=float(rng.uniform(-np.pi, np.pi)))]
    if n >= 2:
        run += [cnot(q, q2), cz(q2, q), x(q2),
                random_controlled(q2, q, min(n - 1, 2), monomial=True)]
    gates += run
    if n >= 2:
        # every multi-qubit draw ends on a controlled gate, with two target wires when n >= 3
        q, q2 = (int(w) for w in rng.permutation(n)[:2])
        gates.append(random_controlled(q, q2, min(n - 1, 2)))
    c = ParamCircuit(n, tuple(gates), n_params)
    assert any(isinstance(step, _Gather) and len(step.gates) >= len(run) for step in c.steps)
    params = rng.uniform(-np.pi, np.pi, n_params)
    psi0 = random_state_vec(n, rng)

    angles = effective_angles(c, params)
    oracle = full_unitary_oracle(c, params)
    stepped = run_with_angles(c, psi0.copy(), angles)
    assert np.max(np.abs(stepped - oracle @ psi0)) < 1e-12

    block = np.stack([random_state_vec(n, rng) for _ in range(3)], axis=1)
    out = run_block(c, block, angles)
    for j in range(3):
        assert np.max(np.abs(out[:, j] - oracle @ block[:, j])) < 1e-12

    lib_unitary = circuit_unitary(c, params)
    assert np.max(np.abs(lib_unitary - oracle)) < 1e-12
    assert np.max(np.abs(lib_unitary - column_unitary_oracle(c, params))) < 1e-12


@pytest.mark.parametrize("layers,n_steps,n_gathers", [(2, 50, 16), (1, 25, 8)])
def test_step_plan_gathers_each_run_of_fixed_monomial_gates(layers, n_steps, n_gathers):
    """The default model's ansatz and probe: every fixed RZ, CNOT and CZ lies in a
    gather-and-scale step, each maximal run of them in one, and every H and
    trainable rotation is a kernel step; the steps cover the gates in order."""
    c = build_ansatz(4, layers)
    assert (len(c.gates), len(c.steps)) == (35 * layers, n_steps)
    gathers = [step for step in c.steps if isinstance(step, _Gather)]
    assert len(gathers) == n_gathers
    order = [i for step in c.steps for i in (step.gates if isinstance(step, _Gather) else [step])]
    assert order == list(range(len(c.gates)))
    monomial = {i for step in gathers for i in step.gates}
    assert monomial == {i for i, g in enumerate(c.gates)
                        if g.kind in ("CNOT", "CZ") or g.fixed_angle is not None}
    assert all(step.gates.stop not in monomial for step in gathers)
    assert all(step.diag is None or step.diag.shape == (16, 1) for step in gathers)


def test_gather_steps_equal_their_gates_one_at_a_time_at_12_qubits():
    c = build_ansatz(12, 2)
    rng = np.random.default_rng(12)
    mats = circuit.gate_matrices(c, effective_angles(c, np.zeros(c.n_params)))
    block = np.stack([random_state_vec(12, rng) for _ in range(3)], axis=1)
    gathers = [step for step in c.steps if isinstance(step, _Gather)]
    assert len(gathers) == 48
    assert {c.gates[i].kind for step in gathers for i in step.gates} == {"CNOT", "CZ", "RZ"}
    for step in gathers:
        one_at_a_time = block
        for i in step.gates:
            one_at_a_time = _apply_kq(one_at_a_time, mats[i], c.gates[i].targets, 12)
        gathered = block[step.perm] if step.diag is None else step.diag * block[step.perm]
        assert np.max(np.abs(gathered - one_at_a_time)) < 1e-15


@pytest.mark.parametrize("n,layers", [(4, 2), (3, 3), (6, 1), (8, 1)])
@pytest.mark.parametrize("n_cols", [1, 2, 8, 64, 300])
def test_block_columns_equal_single_state_runs_bitwise(n, layers, n_cols):
    rng = np.random.default_rng(100 * n + n_cols)
    c = build_ansatz(n, layers)
    angles = effective_angles(c, rng.uniform(0, 2 * np.pi, c.n_params))
    block = np.stack([random_state_vec(n, rng) for _ in range(n_cols)], axis=1)
    out = run_block(c, block, angles)
    for j in range(n_cols):
        assert np.array_equal(out[:, j], run_with_angles(c, block[:, j].copy(), angles))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_per_column_angles_match_single_state_runs(seed, b):
    """Column j of a block run with (G, B) angles is column j's state run alone."""
    rng = np.random.default_rng(seed)
    c = random_mixed_circuit(rng, fixed_angles=True)
    draws = rng.uniform(0, 2 * np.pi, (b, c.n_params))
    block = np.stack([random_state_vec(c.n_qubits, rng) for _ in range(b)], axis=1)
    out = run_block(c, block, effective_angles(c, draws))
    for j in range(b):
        alone = run_with_angles(c, block[:, j].copy(), effective_angles(c, draws[j]))
        assert np.max(np.abs(out[:, j] - alone)) < 1e-12


@pytest.mark.parametrize("n", [4, 6, 8])
def test_per_draw_columns_do_not_depend_on_the_block(n):
    """With (G, B) angles a draw's column is bitwise the same in every block
    of 1 to 300 columns it runs in, at any position, and within 1e-12 of the
    draw's state run alone with (G,) angles."""
    rng = np.random.default_rng(60 + n)
    c = build_ansatz(n, 1)
    draws = rng.uniform(0, 2 * np.pi, (300, c.n_params))
    block = np.stack([random_state_vec(n, rng) for _ in range(300)], axis=1)
    full = run_block(c, block, effective_angles(c, draws))
    for lo, width in [(0, 1), (299, 1), (5, 7), (100, 64), (1, 299)]:
        part = run_block(c, block[:, lo:lo + width], effective_angles(c, draws[lo:lo + width]))
        assert np.array_equal(part, full[:, lo:lo + width])
    for j in range(300):
        alone = run_with_angles(c, block[:, j].copy(), effective_angles(c, draws[j]))
        assert np.max(np.abs(full[:, j] - alone)) < 1e-12


def test_gate_matrices_build_each_rotation_kind_in_one_call(monkeypatch):
    """(m,) angles give each rotation bound to a parameter one 2x2 matrix; (m, B)
    angles give it a (B, 2, 2) stack whose column j is the (m,) build at draw j,
    bitwise. Every other gate gets its table constant for both: the fixed kinds'
    module constants, a CU gate's matrix with its control, and a fixed-angle
    rotation's matrix at its angle. rotation_matrix runs once per rotation kind
    bound to a parameter."""
    calls = []

    def counting_rotation_matrix(kind, angle):
        calls.append(kind)
        return rotation_matrix(kind, angle)

    for seed in range(40):
        rng = np.random.default_rng(seed)
        c = random_mixed_circuit(rng, fixed_angles=True)
        draws = rng.uniform(0, 2 * np.pi, (3, c.n_params))
        kinds = {g.kind for g in c.gates if g.param_ref is not None}
        monkeypatch.setattr(circuit, "rotation_matrix", counting_rotation_matrix)
        calls.clear()
        stacks = circuit.gate_matrices(c, effective_angles(c, draws))
        assert sorted(calls) == sorted(kinds)
        singles = []
        for p in draws:
            calls.clear()
            singles.append(circuit.gate_matrices(c, effective_angles(c, p)))
            assert sorted(calls) == sorted(kinds)
        monkeypatch.undo()
        for i, (g, stack) in enumerate(zip(c.gates, stacks)):
            if g.param_ref is not None:
                assert stack.shape == (3, 2, 2)
                for j, (p, mats) in enumerate(zip(draws, singles)):
                    a = g.offset + g.scale * p[g.param_ref]
                    assert mats[i].shape == (2, 2)
                    assert np.array_equal(mats[i], rotation_matrix(g.kind, a))
                    assert np.array_equal(stack[j], mats[i])
                continue
            assert stack is c.table.constants[i] and all(m[i] is stack for m in singles)
            if g.kind in ROTATION_KINDS:
                assert np.array_equal(stack, rotation_matrix(g.kind, g.fixed_angle))
            elif g.kind == "CU":
                d = len(g.matrix)
                embedded = np.eye(2 * d, dtype=complex)
                embedded[d:, d:] = g.matrix
                assert np.array_equal(stack, embedded)
            else:
                assert stack is FIXED_MATS[g.kind]


def test_stacked_gate_matrices_must_match_the_block_width():
    c = ParamCircuit(2, (cnot(0, 1), ry(1, ref=0)), 1)
    block = np.eye(4, 2, dtype=complex)
    with pytest.raises(ValueError, match="3 gate matrices for a block of 2 columns"):
        run_block(c, block, effective_angles(c, np.zeros((3, 1))))
    with pytest.raises(ValueError, match="1 gate matrices for a block of 2 columns"):
        _apply_kq(block, rotation_matrix("RX", np.zeros(1)), (0,), 2)


def test_vw_block_synthesizes_canonical_two_qubit_unitary():
    rng = np.random.default_rng(7)
    xx = np.kron(PAULI_X, PAULI_X)
    yy = np.kron(PAULI_Y, PAULI_Y)
    zz = np.kron(PAULI_Z, PAULI_Z)
    c = ParamCircuit(2, tuple(vw_block(0, 1, (0, 1, 2))), 3)
    for _ in range(50):
        a, b, g = rng.uniform(-np.pi, np.pi, 3)
        u = circuit_unitary(c, np.array([a, b, g]))
        target = expm_hermitian(a * xx + b * yy + g * zz, -1.0)
        overlap = abs(np.trace(u.conj().T @ target)) / 4.0
        assert overlap > 1.0 - 1e-9


def test_vw_block_gate_inventory():
    gates = vw_block(0, 1, (0, 1, 2))
    kinds = [g.kind for g in gates]
    assert kinds.count("CNOT") == 3
    assert kinds == ["RZ", "CNOT", "RZ", "RY", "CNOT", "RY", "CNOT", "RZ"]
    refs = sorted(g.param_ref for g in gates if g.param_ref is not None)
    assert refs == [0, 1, 2]


def test_mixing_layer_structure_matches_kron_oracle():
    n = 3
    c = ParamCircuit(n, tuple(mixing_layer(n, [0, 1, 2])), 3)
    params = np.array([0.3, -0.8, 1.1])
    got = circuit_unitary(c, params)

    hh = np.kron(np.kron(H2, H2), H2)
    cz01 = np.diag([1, 1, 1, 1, 1, 1, -1, -1]).astype(complex)
    cz12 = np.diag([1, 1, 1, -1, 1, 1, 1, -1]).astype(complex)

    def rx_mat(t):
        return np.array([[math.cos(t / 2), -1j * math.sin(t / 2)],
                         [-1j * math.sin(t / 2), math.cos(t / 2)]])

    rots = np.kron(np.kron(rx_mat(0.3), rx_mat(-0.8)), rx_mat(1.1))
    expect = rots @ cz12 @ cz01 @ hh
    assert np.max(np.abs(got - expect)) < 1e-12


@pytest.mark.parametrize("n,layers,count", [(2, 1, 5), (4, 1, 13), (4, 2, 26)])
def test_ansatz_parameter_count(n, layers, count):
    c = build_ansatz(n, layers)
    assert c.n_params == count
    refs = {g.param_ref for g in c.gates if g.param_ref is not None}
    assert refs == set(range(count))


def test_ansatz_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_ansatz(1, 1)
    with pytest.raises(ValueError):
        build_ansatz(4, 0)


def test_dump_circuit_golden():
    text = dump_circuit(build_ansatz(2, 1))
    assert text == (
        "RZ 1 -1.5707963267948966\n"
        "CNOT 1 0\n"
        "RZ 0 p2*2.0+1.5707963267948966\n"
        "RY 1 p0*-2.0+-1.5707963267948966\n"
        "CNOT 0 1\n"
        "RY 1 p1*2.0+1.5707963267948966\n"
        "CNOT 1 0\n"
        "RZ 0 1.5707963267948966\n"
        "H 0\n"
        "H 1\n"
        "CZ 0 1\n"
        "RX 0 p3\n"
        "RX 1 p4\n"
    )


def test_run_circuit_accepts_state_and_checks_params():
    c = build_ansatz(2, 1)
    psi = run_circuit(c, basis_state(2), np.zeros(5))
    assert psi.dim == 4
    with pytest.raises(ValueError):
        run_circuit(c, basis_state(2), np.zeros(4))
    with pytest.raises(ValueError):
        run_circuit(c, basis_state(3), np.zeros(5))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 2))
def test_circuit_preserves_norm(seed, n, layers):
    rng = np.random.default_rng(seed)
    c = build_ansatz(n, layers)
    psi = random_state_vec(n, rng)
    out = run_with_angles(c, psi.copy(), effective_angles(c, rng.uniform(0, 2 * np.pi, c.n_params)))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
