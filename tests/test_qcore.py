"""Core state/density-matrix types against brute-force linear algebra."""
import numpy as np
import pytest

from qdiff.qcore import (
    DensityMatrix,
    StateVector,
    basis_state,
    expm_hermitian,
    partial_trace,
    purity,
    sqrtm_psd,
)


def random_state(n_qubits, rng):
    v = rng.standard_normal(2**n_qubits) + 1j * rng.standard_normal(2**n_qubits)
    return StateVector(v / np.linalg.norm(v))


def random_density(n_qubits, rng, rank=3):
    dim = 2**n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    weights = rng.uniform(0.1, 1.0, rank)
    weights /= weights.sum()
    for w in weights:
        psi = random_state(n_qubits, rng).amps
        rho += w * np.outer(psi, psi.conj())
    return DensityMatrix(rho)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]))  # not a power of two
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan, 0.0]))
    sv = StateVector(np.array([3 / 5, 4j / 5]))
    assert sv.n_qubits == 1 and sv.dim == 2


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.0, 0.5], [0.2, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.7, 0.0], [0.0, 0.7]]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # not PSD
    rho = DensityMatrix(np.eye(4) / 4)
    assert rho.n_qubits == 2


def test_state_vector_accepts_non_contiguous_input():
    sv = StateVector(np.eye(4, dtype=complex)[:, 1])
    assert np.array_equal(sv.amps, [0, 1, 0, 0])
    with pytest.raises(ValueError, match="finite"):
        StateVector(np.array([[0.0, np.inf], [1.0, 0.0]], dtype=complex)[:, 1])


def test_state_vector_copies_its_input():
    v = np.array([1.0, 0.0], dtype=complex)
    sv = StateVector(v)
    assert v.flags.writeable  # the caller's array is left alone
    v[0] = 5.0
    assert np.array_equal(sv.amps, [1.0, 0.0])


def test_density_matrix_accepts_transposed_input_and_copies_it():
    m = np.array([[0.5, 0.2j], [-0.2j, 0.5]])
    assert np.array_equal(DensityMatrix(m.T).mat, m.T)
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex).T)
    dm = DensityMatrix(m)
    assert m.flags.writeable  # the caller's array is left alone
    m[0, 0] = 7.0
    assert dm.mat[0, 0] == 0.5


def test_basis_state_indexing():
    # qubit 0 is the most significant bit: |10> lives at index 2
    sv = basis_state(2, 2)
    assert sv.amps[2] == 1.0 and np.count_nonzero(sv.amps) == 1
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(0)


def brute_force_reduced(rho_mat, n, keep):
    """Independent partial trace: explicit double loop over basis labels."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2**n):
        for j in range(2**n):
            bi = [(i >> (n - 1 - q)) & 1 for q in range(n)]
            bj = [(j >> (n - 1 - q)) & 1 for q in range(n)]
            if all(bi[q] == bj[q] for q in range(n) if q != keep):
                out[bi[keep], bj[keep]] += rho_mat[i, j]
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_partial_trace_matches_brute_force(n):
    rng = np.random.default_rng(10 + n)
    rho = random_density(n, rng)
    for keep in range(n):
        got = partial_trace(rho, keep).mat
        expect = brute_force_reduced(rho.mat, n, keep)
        assert np.max(np.abs(got - expect)) < 1e-12


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(2)
    singles = []
    for _ in range(3):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        singles.append(v / np.linalg.norm(v))
    full = np.kron(np.kron(singles[0], singles[1]), singles[2])
    rho = DensityMatrix(np.outer(full, full.conj()))
    for q in range(3):
        got = partial_trace(rho, q).mat
        expect = np.outer(singles[q], singles[q].conj())
        assert np.max(np.abs(got - expect)) < 1e-12


def test_purity_range():
    assert purity(DensityMatrix(np.eye(4) / 4)) == pytest.approx(0.25, abs=1e-14)
    rng = np.random.default_rng(3)
    rho = random_density(2, rng)
    p = purity(rho)
    assert 0.25 - 1e-12 <= p <= 1.0 + 1e-12
    assert p == pytest.approx(np.trace(rho.mat @ rho.mat).real, abs=1e-12)
    psi = random_state(2, rng).amps
    assert purity(DensityMatrix(np.outer(psi, psi.conj()))) == pytest.approx(1.0, abs=1e-12)


def test_expm_hermitian_against_power_series():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (m + m.conj().T) / 2
    h *= 0.3 / np.max(np.abs(h))  # keep the series convergent fast
    got = expm_hermitian(h, -1.0)
    expect = np.eye(4, dtype=complex)
    term = np.eye(4, dtype=complex)
    for k in range(1, 40):
        term = term @ (-1j * h) / k
        expect = expect + term
    assert np.max(np.abs(got - expect)) < 1e-12


def test_expm_hermitian_is_unitary():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (m + m.conj().T) / 2
    u = expm_hermitian(h, 0.7)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10
    with pytest.raises(ValueError):
        expm_hermitian(m, 1.0)  # not Hermitian


def test_sqrtm_psd_squares_back():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = a @ a.conj().T
    r = sqrtm_psd(m)
    assert np.max(np.abs(r @ r - m)) < 1e-10
    assert np.max(np.abs(r - r.conj().T)) < 1e-12
    with pytest.raises(ValueError):
        sqrtm_psd(-np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_functions_reject_non_finite_entries(bad):
    """nan > tol reads False, so without a finite check both returned all-NaN matrices."""
    m = np.eye(3, dtype=complex)
    m[1, 1] = bad
    for fn in (sqrtm_psd, lambda h: expm_hermitian(h, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            fn(m)


@pytest.mark.parametrize("index", [1.5, True, np.float64(2.0), "1"])
def test_basis_state_needs_an_integer_index(index):
    with pytest.raises(ValueError, match="basis index"):
        basis_state(2, index)
    assert np.array_equal(basis_state(2, np.int64(3)).amps, [0, 0, 0, 1])

