"""Trainable observables, the Hadamard test, and circuit-angle gradients.

Gradient routes are checked against central finite differences of an
independent forward evaluation, with |a - f| <= max(1e-5 |f|, 1e-8) since
FD itself carries truncation noise, and the adjoint sweep is checked against
the parameter-shift rule, which re-simulates the circuit (and, one-sided,
the ancilla Hadamard test) for every shifted angle, to 1e-12. All of these
run through the one gate kernel, so one test also checks the measure routes
against dense unitaries that never touch it (tests/circuit_oracles.py).
"""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiff.circuit import (
    MAX_UNIT_WIRES,
    ParamCircuit,
    build_ansatz,
    circuit_unitary,
    cz,
    h,
    phase,
    run_circuit,
    run_with_angles,
    rx,
    ry,
    unit_daggers,
    unit_suffixes,
    x,
)
from qdiff.measure import (
    _hadamard_with_angles,
    adjoint_gradient,
    ano_features,
    grad_expectation_wrt_circuit,
    grad_hadamard_wrt_probe,
    hadamard_test,
    probe_hermitian_part,
    shift_gradient,
)
from qdiff.model import forward_trace, init_model
from qdiff.qcore import StateVector, basis_state

from circuit_oracles import full_unitary_oracle, random_hermitian, random_mixed_circuit

REL, FLOOR = 1e-5, 1e-8


def close(a, f):
    return abs(a - f) <= max(REL * abs(f), FLOOR)


def random_state(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(v / np.linalg.norm(v))


def random_bank(k, dim, rng):
    """A (k, 2, dim, dim) bank array: observable j's free matrix is bank[j, 0] + 1j * bank[j, 1]."""
    return rng.standard_normal((k, 2, dim, dim))


def test_observable_validation():
    """A non-square observable is refused, and a non-finite entry is named by its observable."""
    rng = np.random.default_rng(0)
    psi = random_state(2, rng)
    with pytest.raises(ValueError, match=r"expected a \(K, 2, 4, 4\) bank with K >= 1, got "
                                         r"\(3, 2, 4, 3\)"):
        ano_features(psi, np.zeros((3, 2, 4, 3)))
    for bad in (np.nan, np.inf):
        bank = random_bank(3, 4, rng)
        bank[2, 1, 0, 3] = bad
        with pytest.raises(ValueError, match="observable 2 has non-finite entries"):
            ano_features(psi, bank)


def test_bank_validation():
    """A bank is K >= 1 observables, each a real and an imaginary part of the state's dimension."""
    rng = np.random.default_rng(0)
    psi = random_state(2, rng)
    assert ano_features(psi, random_bank(3, 4, rng)).shape == (3,)
    for shape in [(0, 2, 4, 4), (3, 2, 2, 2), (3, 2, 8, 8), (3, 1, 4, 4), (2, 4, 4)]:
        with pytest.raises(ValueError, match=r"expected a \(K, 2, 4, 4\) bank"):
            ano_features(psi, np.zeros(shape))


def test_ano_features_against_dense_oracle():
    """Each feature is <psi|(M + M^dag)/2|psi> summed entry by entry; M's anti-Hermitian
    part reads 0 and M^dag reads the same as M."""
    rng = np.random.default_rng(1)
    bank = random_bank(3, 4, rng)
    psi = random_state(2, rng)
    a = psi.amps
    for j, feat in enumerate(ano_features(psi, bank)):
        m = bank[j, 0] + 1j * bank[j, 1]
        expect = sum(np.conj(a[r]) * 0.5 * (m[r, c] + np.conj(m[c, r])) * a[c]
                     for r in range(4) for c in range(4))
        assert feat == pytest.approx(expect.real, abs=1e-13)
    dagger = np.stack([bank[:, 0].transpose(0, 2, 1), -bank[:, 1].transpose(0, 2, 1)], axis=1)
    assert np.max(np.abs(ano_features(psi, dagger) - ano_features(psi, bank))) < 1e-13
    anti = np.stack([bank[:, 0] - bank[:, 0].transpose(0, 2, 1),
                     bank[:, 1] + bank[:, 1].transpose(0, 2, 1)], axis=1)
    assert np.max(np.abs(ano_features(psi, anti))) < 1e-13


def test_ano_features_vector():
    """Feature j of each row's output state matches the model's stacked features."""
    m = init_model(4, k=6, hidden_enc=4, hidden_dec=4, ansatz_layers=1)
    x = np.random.default_rng(4).standard_normal((3, 256))
    _, tr = forward_trace(m, x, [0, 4, 10])
    for b in range(3):
        feats = ano_features(StateVector(tr["psi_out"][:, b]), m.bank)
        assert feats.shape == (6,)
        assert np.max(np.abs(feats - tr["feats"][b, :6])) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hadamard_test_equals_direct_overlap(n):
    rng = np.random.default_rng(20 + n)
    circ = build_ansatz(n, 1) if n >= 2 else ParamCircuit(
        1, (ry(0, ref=0), phase(0, ref=1)), 2)
    for _ in range(10):
        params = rng.uniform(0, 2 * np.pi, circ.n_params)
        psi = random_state(n, rng)
        got = hadamard_test(psi, circ, params)
        u = probe_hermitian_part(circ, params)
        direct = float(np.real(psi.amps.conj() @ u @ psi.amps))
        assert got == pytest.approx(direct, abs=1e-10)


def test_hadamard_test_on_eigenstate():
    # U = RY(0) is the identity: Re<psi|U|psi> = 1 for every state
    c = ParamCircuit(1, (ry(0, ref=0),), 1)
    assert hadamard_test(basis_state(1), c, np.zeros(1)) == pytest.approx(1.0, abs=1e-12)


def test_hadamard_test_refuses_wrong_or_non_finite_angles():
    c = build_ansatz(2, 1)
    psi = random_state(2, np.random.default_rng(3))
    for params in (np.zeros(c.n_params - 1), np.zeros(c.n_params + 1)):
        with pytest.raises(ValueError, match=f"expected {c.n_params} parameters"):
            hadamard_test(psi, c, params)
    params = np.zeros(c.n_params)
    params[2] = np.nan
    with pytest.raises(ValueError, match="parameter 2 is not finite"):
        hadamard_test(psi, c, params)
    with pytest.raises(ValueError, match="probe acts on 2 qubits, state has 1"):
        hadamard_test(basis_state(1), c, np.zeros(c.n_params))


def expectation_forward(c, psi0, params, h_mat):
    out = run_circuit(c, psi0, params)
    return float(np.real(out.amps.conj() @ h_mat @ out.amps))


def test_grad_expectation_wrt_circuit_matches_fd():
    rng = np.random.default_rng(7)
    c = build_ansatz(3, 1)  # includes scale -2/+2 angles and plain RX refs
    psi0 = random_state(3, rng)
    h = rng.standard_normal((8, 8))
    h = h + h.T
    params = rng.uniform(0, 2 * np.pi, c.n_params)
    grad = grad_expectation_wrt_circuit(c, psi0, params, h)
    eps = 1e-6
    for j in range(c.n_params):
        p = params.copy()
        p[j] += eps
        hi = expectation_forward(c, psi0, p, h)
        p[j] -= 2 * eps
        lo = expectation_forward(c, psi0, p, h)
        fd = (hi - lo) / (2 * eps)
        assert close(grad[j], fd), (j, grad[j], fd)


def test_grad_with_phase_gate_and_shared_ref():
    # one parameter feeding two gates, including a PHASE gate
    rng = np.random.default_rng(8)
    c = ParamCircuit(2, (ry(0, ref=0, scale=2.0), phase(1, ref=0),
                         rx(1, ref=1, offset=0.3)), 2)
    psi0 = random_state(2, rng)
    h = rng.standard_normal((4, 4))
    h = h + h.T
    params = rng.uniform(0, 2 * np.pi, 2)
    grad = grad_expectation_wrt_circuit(c, psi0, params, h)
    eps = 1e-6
    for j in range(2):
        p = params.copy()
        p[j] += eps
        hi = expectation_forward(c, psi0, p, h)
        p[j] -= 2 * eps
        lo = expectation_forward(c, psi0, p, h)
        assert close(grad[j], (hi - lo) / (2 * eps))


def test_grad_hadamard_wrt_probe_matches_fd():
    rng = np.random.default_rng(10)
    c = build_ansatz(2, 1)
    psi = random_state(2, rng)
    params = rng.uniform(0, 2 * np.pi, c.n_params)
    grad = grad_hadamard_wrt_probe(psi, c, params)
    eps = 1e-6
    for j in range(c.n_params):
        p = params.copy()
        p[j] += eps
        hi = hadamard_test(psi, c, p)
        p[j] -= 2 * eps
        lo = hadamard_test(psi, c, p)
        fd = (hi - lo) / (2 * eps)
        assert close(grad[j], fd), (j, grad[j], fd)


def test_measure_matches_kernel_free_dense_unitaries():
    """probe_hermitian_part, hadamard_test and both gradient callers against
    unitaries multiplied out from embedded gate matrices, which never run the
    gate kernel that every measure route shares; gradients against central
    differences of the dense values."""
    rng = np.random.default_rng(50)
    c = build_ansatz(4, 1)
    params = rng.uniform(0, 2 * np.pi, c.n_params)
    psi = random_state(4, rng)
    h_mat = random_hermitian(16, rng)

    def dense_values(p):
        """(<psi|U^dag H U|psi>, Re<psi|U|psi>) from the dense oracle U(p)."""
        out = full_unitary_oracle(c, p) @ psi.amps
        return float(np.real(np.vdot(out, h_mat @ out))), float(np.real(np.vdot(psi.amps, out)))

    u = full_unitary_oracle(c, params)
    assert np.max(np.abs(probe_hermitian_part(c, params) - 0.5 * (u + u.conj().T))) < 1e-12
    assert hadamard_test(psi, c, params) == pytest.approx(dense_values(params)[1], abs=1e-12)

    grad_e = grad_expectation_wrt_circuit(c, psi, params, h_mat)
    grad_h = grad_hadamard_wrt_probe(psi, c, params)
    eps = 1e-6
    for j in range(c.n_params):
        p = params.copy()
        p[j] += eps
        hi = dense_values(p)
        p[j] -= 2 * eps
        lo = dense_values(p)
        fd_e, fd_h = ((a - b) / (2 * eps) for a, b in zip(hi, lo))
        assert close(grad_e[j], fd_e), (j, grad_e[j], fd_e)
        assert close(grad_h[j], fd_h), (j, grad_h[j], fd_h)


def shift_expectation_grad(c, psi, params, h_mat):
    """Parameter-shift oracle for grad_expectation_wrt_circuit on one state."""
    def value(angles):
        out = run_with_angles(c, psi.amps.copy(), angles)
        return float((out.conj() @ (h_mat @ out)).real)

    return shift_gradient(c, params, value)


def shift_hadamard_grad(psi, c, params):
    """Parameter-shift oracle for grad_hadamard_wrt_probe: ancilla test per shift."""
    return shift_gradient(
        c, params, lambda angles: _hadamard_with_angles(psi, c, angles), one_sided=True
    )


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_shift_rules_match_fd_on_random_circuits(seed, one_sided):
    """shift_gradient, the reference for the adjoint sweep, two- and one-sided."""
    rng = np.random.default_rng(seed)
    c = random_mixed_circuit(rng)
    psi = random_state(c.n_qubits, rng)
    params = rng.uniform(0, 2 * np.pi, c.n_params)
    if one_sided:  # Re<psi|U(phi)|psi>, ancilla test against the dense unitary
        grad = shift_hadamard_grad(psi, c, params)

        def f(p):
            return float(np.real(np.vdot(psi.amps, circuit_unitary(c, p) @ psi.amps)))
    else:  # <psi(theta)|H|psi(theta)> for a random Hermitian H
        h_mat = random_hermitian(2**c.n_qubits, rng)
        grad = shift_expectation_grad(c, psi, params, h_mat)

        def f(p):
            return expectation_forward(c, psi, p, h_mat)
    eps = 1e-6
    for j in range(c.n_params):
        p = params.copy()
        p[j] += eps
        hi = f(p)
        p[j] -= 2 * eps
        lo = f(p)
        fd = (hi - lo) / (2 * eps)
        assert close(grad[j], fd), (j, grad[j], fd)


def assert_same_gradient(got, want, tol=1e-12):
    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want))), (got, want)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_adjoint_matches_shift_rule_on_random_circuits(seed):
    """Both adjoint callers against their parameter-shift oracles."""
    rng = np.random.default_rng(seed)
    c = random_mixed_circuit(rng)
    psi = random_state(c.n_qubits, rng)
    params = rng.uniform(0, 2 * np.pi, c.n_params)
    h_mat = random_hermitian(2**c.n_qubits, rng)
    assert_same_gradient(grad_expectation_wrt_circuit(c, psi, params, h_mat),
                         shift_expectation_grad(c, psi, params, h_mat))
    assert_same_gradient(grad_hadamard_wrt_probe(psi, c, params),
                         shift_hadamard_grad(psi, c, params))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_block_gradients_equal_sum_of_single_states(seed, b):
    """A B-column block with per-column H and weights is the sum of B single calls."""
    rng = np.random.default_rng(seed)
    c = random_mixed_circuit(rng)
    params = rng.uniform(0, 2 * np.pi, c.n_params)
    d = 2**c.n_qubits
    states = [random_state(c.n_qubits, rng) for _ in range(b)]
    block = np.stack([s.amps for s in states], axis=1)
    h_stack = np.stack([random_hermitian(d, rng) for _ in range(b)])
    weights = rng.standard_normal(b)

    assert_same_gradient(
        grad_expectation_wrt_circuit(c, block, params, h_stack),
        sum(grad_expectation_wrt_circuit(c, s, params, hb) for s, hb in zip(states, h_stack)))
    assert_same_gradient(
        grad_expectation_wrt_circuit(c, block, params, h_stack[0]),
        sum(grad_expectation_wrt_circuit(c, s, params, h_stack[0]) for s in states))
    assert_same_gradient(
        grad_hadamard_wrt_probe(block, c, params, weights),
        sum(w * grad_hadamard_wrt_probe(s, c, params) for s, w in zip(states, weights)))

    # adjoint_gradient's second output is the bra block pulled back through the circuit
    u = circuit_unitary(c, params)
    bra = rng.standard_normal((d, b)) + 1j * rng.standard_normal((d, b))
    _, pulled = adjoint_gradient(c, unit_suffixes(c, unit_daggers(c, params)), u @ block, bra, 1.0)
    assert np.max(np.abs(pulled - u.conj().T @ bra)) < 1e-12


def assert_sweep_matches_shift_rules(c, rng):
    """Both adjoint callers on one random state against their parameter-shift oracles."""
    psi = random_state(c.n_qubits, rng)
    params = rng.uniform(0, 2 * np.pi, c.n_params)
    h_mat = random_hermitian(2**c.n_qubits, rng)
    assert_same_gradient(grad_expectation_wrt_circuit(c, psi, params, h_mat),
                         shift_expectation_grad(c, psi, params, h_mat))
    assert_same_gradient(grad_hadamard_wrt_probe(psi, c, params),
                         shift_hadamard_grad(psi, c, params))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_unit_sweep_matches_shift_rule_with_fixed_angles_and_x(seed):
    """Random 1-3 qubit circuits (CU, PHASE, shared refs) whose fixed runs, folded
    into the units, also hold fixed-angle rotations and an X gate."""
    rng = np.random.default_rng(seed)
    c = random_mixed_circuit(rng, fixed_angles=True)
    gates = list(c.gates)
    gates.insert(int(rng.integers(0, len(gates) + 1)), x(int(rng.integers(0, c.n_qubits))))
    assert_sweep_matches_shift_rules(ParamCircuit(c.n_qubits, tuple(gates), c.n_params), rng)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_unit_sweep_matches_shift_rule_on_ansatz_circuits(n):
    """Units span the register at n = 4 and fewer wires beyond it."""
    assert_sweep_matches_shift_rules(build_ansatz(n, 1), np.random.default_rng(60 + n))


def test_fusion_plan_groups_the_gates_into_units():
    # the default model's ansatz and probe: one unit per trainable rotation, each on
    # the whole 4-qubit register, since both circuits end on a trainable RX
    for layers, count in ((2, 26), (1, 13)):
        plan = build_ansatz(4, layers).units
        assert len(plan.wires) == count
        assert all(w == (0, 1, 2, 3) for w in plan.wires)
        assert all(mat is None for mat in plan.daggers)
    wide = build_ansatz(6, 2).units
    assert max(len(w) for w in wide.wires) == MAX_UNIT_WIRES
    # a run closes before a fifth wire, and a trailing run is a fixed-only unit
    c = ParamCircuit(6, (h(0), h(1), h(2), h(3), h(4), rx(5, ref=0), cz(0, 1)), 1)
    plan = c.units
    assert plan.wires == ((0, 1, 2, 3), (4, 5), (0, 1))
    assert [mat is None for mat in plan.daggers] == [False, True, False]
    assert_sweep_matches_shift_rules(c, np.random.default_rng(66))


@pytest.mark.parametrize("phi_shape, bra_shape", [((4, 2), (4, 3)), ((4, 2), (8, 2)),
                                                  ((8, 2), (8, 2)), ((4,), (4,))])
def test_adjoint_gradient_checks_its_blocks(phi_shape, bra_shape):
    c = build_ansatz(2, 1)
    with pytest.raises(ValueError, match=rf"{re.escape(str(phi_shape))} and "
                                         rf"{re.escape(str(bra_shape))}"):
        adjoint_gradient(c, unit_suffixes(c, unit_daggers(c, np.zeros(c.n_params))),
                         np.ones(phi_shape, dtype=complex), np.ones(bra_shape, dtype=complex), 1.0)


def test_adjoint_gradient_checks_its_suffix_stack():
    c = build_ansatz(2, 1)  # 5 units
    stack = unit_suffixes(c, unit_daggers(c, np.zeros(c.n_params)))
    with pytest.raises(ValueError, match=r"expected \(6, 4, 4\) suffix products, got \(5, 4, 4\)"):
        adjoint_gradient(c, stack[1:], np.ones((4, 2), dtype=complex),
                         np.ones((4, 2), dtype=complex), 1.0)


def test_gradient_callers_reject_mismatched_shapes():
    c = build_ansatz(2, 1)
    params = np.zeros(c.n_params)
    block = np.eye(4, 3, dtype=complex)
    with pytest.raises(ValueError, match="block of states"):
        grad_expectation_wrt_circuit(c, np.eye(8, 2), params, np.eye(8))
    with pytest.raises(ValueError, match="block of states"):
        grad_expectation_wrt_circuit(c, np.ones(4), params, np.eye(4))
    with pytest.raises(ValueError, match="expected H"):
        grad_expectation_wrt_circuit(c, block, params, np.stack([np.eye(4)] * 2))
    with pytest.raises(ValueError, match="weights"):
        grad_hadamard_wrt_probe(block, c, params, np.ones(2))


ONE_STATE_CALLS = {
    "run_circuit": lambda c, p: run_circuit(c, basis_state(2), p),
    "circuit_unitary": circuit_unitary,
    "unit_daggers": unit_daggers,
    "hadamard_test": lambda c, p: hadamard_test(basis_state(2), c, p),
    "probe_hermitian_part": probe_hermitian_part,
    "grad_expectation_wrt_circuit":
        lambda c, p: grad_expectation_wrt_circuit(c, basis_state(2), p, np.eye(4)),
    "grad_hadamard_wrt_probe": lambda c, p: grad_hadamard_wrt_probe(basis_state(2), c, p),
    "shift_gradient": lambda c, p: shift_gradient(c, p, lambda angles: 0.0),
}


@pytest.mark.parametrize("n_draws", [4, 3])
@pytest.mark.parametrize("name", ONE_STATE_CALLS)
def test_functions_of_one_parameter_vector_refuse_an_array_of_draws(name, n_draws):
    # with 2^n draws, run_block gives circuit_unitary's column j from draw j: not a unitary
    c = build_ansatz(2, 1)
    call = ONE_STATE_CALLS[name]
    with pytest.raises(ValueError, match=rf"expected one vector of {c.n_params} parameters, "
                                         rf"got shape \({n_draws}, {c.n_params}\)"):
        call(c, np.zeros((n_draws, c.n_params)))
    call(c, np.zeros(c.n_params))
