"""All five classical-to-quantum encoders against analytic values."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiff.encode import (
    encode_amplitude,
    encode_angle,
    encode_basis,
    encode_dense_angle,
    encode_phase,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_basis_examples():
    assert np.array_equal(encode_basis([0]).amps, [1, 0])
    two = encode_basis([1, 0]).amps
    assert two[2] == 1.0 and np.count_nonzero(two) == 1
    three = encode_basis([1, 1, 1]).amps
    assert three[7] == 1.0 and np.count_nonzero(three) == 1


def test_basis_errors():
    with pytest.raises(ValueError):
        encode_basis([])
    with pytest.raises(ValueError):
        encode_basis([0, 2])
    with pytest.raises(ValueError):
        encode_basis([0] * 13)


def test_amplitude_examples():
    assert np.allclose(encode_amplitude([3, 4], 1).amps, [0.6, 0.8], atol=1e-12)
    assert np.allclose(encode_amplitude([1, 0, 0, 0], 2).amps, [1, 0, 0, 0], atol=1e-12)
    assert np.allclose(encode_amplitude([1, 1, 1, 1], 2).amps, [0.5] * 4, atol=1e-12)


def test_amplitude_pads_and_accepts_complex():
    out = encode_amplitude([1j, 1], 2).amps
    assert np.allclose(out, [1j * INV_SQRT2, INV_SQRT2, 0, 0], atol=1e-12)


def test_amplitude_errors():
    with pytest.raises(ValueError):
        encode_amplitude([0, 0, 0], 2)  # zero norm must not become NaN
    with pytest.raises(ValueError):
        encode_amplitude([1] * 5, 2)  # too long for the register
    # True built a 1-qubit state and 1.5 failed inside numpy with a TypeError
    for n in (True, 1.5, 0, 13):
        with pytest.raises(ValueError, match=f"n_qubits must be an integer in 1..12, got {n!r}"):
            encode_amplitude([1.0], n)


def test_amplitude_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(6)
        c = rng.uniform(0.1, 50.0)
        a = encode_amplitude(v, 3).amps
        b = encode_amplitude(c * v, 3).amps
        assert np.max(np.abs(a - b)) < 1e-12


def test_angle_examples():
    assert np.allclose(encode_angle([0]).amps, [1, 0], atol=1e-12)
    assert np.allclose(encode_angle([math.pi]).amps, [0, 1], atol=1e-12)
    assert np.allclose(encode_angle([math.pi / 2, math.pi / 2]).amps, [0.5] * 4, atol=1e-12)


def test_angle_is_real_product_of_half_angles():
    rng = np.random.default_rng(1)
    xs = rng.uniform(-np.pi, np.pi, 3)
    out = encode_angle(xs).amps
    assert np.max(np.abs(out.imag)) < 1e-15
    singles = [np.array([math.cos(t / 2), math.sin(t / 2)]) for t in xs]
    expect = np.kron(np.kron(singles[0], singles[1]), singles[2])
    assert np.allclose(out.real, expect, atol=1e-12)


def test_phase_examples():
    assert np.allclose(encode_phase([0]).amps, [INV_SQRT2, INV_SQRT2], atol=1e-12)
    assert np.allclose(encode_phase([math.pi]).amps, [INV_SQRT2, -INV_SQRT2], atol=1e-12)
    assert encode_phase([math.pi / 2]).amps[1] == pytest.approx(1j * INV_SQRT2, abs=1e-12)


def test_phase_constant_magnitude():
    rng = np.random.default_rng(2)
    for n in (1, 2, 4):
        out = encode_phase(rng.uniform(-np.pi, np.pi, n)).amps
        assert np.max(np.abs(np.abs(out) - 2.0 ** (-n / 2))) < 1e-12


def test_dense_angle_examples():
    assert np.allclose(encode_dense_angle([0, 0]).amps, [1, 0], atol=1e-12)
    assert np.allclose(encode_dense_angle([math.pi / 2, 0]).amps, [0, 1], atol=1e-12)
    out = encode_dense_angle([math.pi / 4, math.pi / 2]).amps
    assert np.allclose(out, [INV_SQRT2, 1j * INV_SQRT2], atol=1e-12)


def test_dense_angle_rejects_odd_length():
    with pytest.raises(ValueError):
        encode_dense_angle([0.1, 0.2, 0.3])


def test_dense_angle_pairs_against_kron_oracle():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-np.pi, np.pi, 4)
    out = encode_dense_angle(xs).amps
    q0 = np.array([math.cos(xs[0]), np.exp(1j * xs[1]) * math.sin(xs[0])])
    q1 = np.array([math.cos(xs[2]), np.exp(1j * xs[3]) * math.sin(xs[2])])
    assert np.allclose(out, np.kron(q0, q1), atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=5))
def test_every_encoder_outputs_unit_norm(xs):
    outs = [encode_angle(xs), encode_phase(xs)]
    if any(abs(v) > 1e-9 for v in xs):
        outs.append(encode_amplitude(xs, 3))
    if len(xs) % 2 == 0:
        outs.append(encode_dense_angle(xs))
    for sv in outs:
        assert abs(np.linalg.norm(sv.amps) - 1.0) < 1e-12
