"""Classical noising and quantum depolarizing processes."""
import numpy as np
import pytest

from qdiff.diffusion import (
    NoiseSchedule,
    depolarize_closed,
    depolarize_step,
    forward_sample,
    linear_schedule,
)
from qdiff.model import INPUT_DIM, backward, forward_trace, init_model
from qdiff.qcore import DensityMatrix, StateVector


def random_state(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(v / np.linalg.norm(v))


def projector(psi):
    return DensityMatrix(np.outer(psi.amps, psi.amps.conj()))


def test_noise_schedule_cumprod_oracle():
    betas = np.array([0.1, 0.2, 0.4])
    s = NoiseSchedule(betas)
    assert s.t_max == 3
    # hand-rolled running product
    expect = [0.9, 0.9 * 0.8, 0.9 * 0.8 * 0.6]
    for t in (1, 2, 3):
        assert s.beta(t) == pytest.approx(betas[t - 1])
        assert s.alpha_bar(t) == pytest.approx(expect[t - 1], abs=1e-15)


def test_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.0, 0.1]))
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([]))
    s = linear_schedule(5, 1e-4, 0.02)
    with pytest.raises(ValueError):
        s.beta(0)  # timesteps are 1-based
    with pytest.raises(ValueError):
        s.alpha_bar(6)


@pytest.mark.parametrize("t", [1.5, 2.5, True, np.float64(2.0), 0, 6, -1])
def test_timesteps_must_be_integers_in_range(t):
    """1.5 and 2.5 crashed with numpy's IndexError, and True silently read step 1."""
    noise = linear_schedule(5, 1e-4, 0.02)
    for read in (noise.beta, noise.alpha_bar,
                 lambda t: forward_sample(np.zeros(3), t, noise, np.zeros(3))):
        with pytest.raises(ValueError, match=r"is not an integer in 1\.\.5"):
            read(t)
    assert noise.alpha_bar(np.int64(5)) == noise.alpha_bar(5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_schedules_require_finite_entries(bad):
    """A NaN entry fails both range comparisons, so it used to pass them."""
    with pytest.raises(ValueError, match=r"every beta_t must be a finite number"):
        NoiseSchedule(np.array([0.1, bad, 0.2]))


def test_schedule_derived_fields_are_not_arguments():
    with pytest.raises(TypeError):
        NoiseSchedule(np.array([0.1]), alpha_bars=np.array([0.5]))


def test_linear_schedule_endpoints():
    s = linear_schedule(10, 1e-4, 0.02)
    assert s.beta(1) == pytest.approx(1e-4)
    assert s.beta(10) == pytest.approx(0.02)
    with pytest.raises(ValueError):
        linear_schedule(10, 0.02, 1e-4)
    with pytest.raises(ValueError):
        linear_schedule(0, 1e-4, 0.02)


def test_forward_sample_closed_form():
    rng = np.random.default_rng(0)
    s = linear_schedule(10, 0.1, 0.5)
    x0 = rng.standard_normal(8)
    eps = rng.standard_normal(8)
    x_t = forward_sample(x0, 4, s, eps)
    ab = s.alpha_bar(4)
    assert x_t.shape == x0.shape
    assert np.allclose(x_t, np.sqrt(ab) * x0 + np.sqrt(1 - ab) * eps, atol=1e-14)
    with pytest.raises(ValueError):
        forward_sample(x0, 4, s, eps[:4])


def test_forward_sample_block_rows_are_their_own_calls_bit_for_bit():
    rng = np.random.default_rng(3)
    s = linear_schedule(6, 0.01, 0.4)
    ts = np.array([3, 1, 6, 2, 5, 4, 1, 6])
    x0, eps = rng.standard_normal((len(ts), 7)), rng.standard_normal((len(ts), 7))
    block = forward_sample(x0, ts, s, eps)
    assert block.shape == x0.shape
    for row, t in enumerate(ts):
        assert np.array_equal(block[row], forward_sample(x0[row], int(t), s, eps[row])), row
    assert np.array_equal(forward_sample(x0, list(ts), s, eps), block)


_ZERO_STEP = np.array([2, 0, 1])
# blocks of three timesteps that a 5-step schedule and the loss refuse
_BAD_STEPS = [
    (np.array([2, 3, 1]) == 2, r"timestep (np\.)?True.* of row 0 is not an integer in 1\.\.5"),
    ([2, True, 1], r"timestep True of row 1 is not an integer in 1\.\.5"),
    (np.array([2.0, 3.0, 1.0]), r"timestep (np\.float64\()?2\.0\)? of row 0 is not an integer"),
    ([2, 3, 1.5], r"timestep 1\.5 of row 2 is not an integer"),
    (_ZERO_STEP, r"timestep (np\.int64\()?0\)? of row 1 is not an integer in 1\.\.5"),
    (np.array([2, 3, 6]), r"timestep (np\.int64\()?6\)? of row 2 is not an integer in 1\.\.5"),
]
# the model reads the same rule (check_timesteps): backward's steps run over 1..T and
# forward_trace's over 0..T, t = 0 being the clean input
_BLOCK_READS = (
    [(ts, match, "forward_sample") for ts, match in _BAD_STEPS]
    + [(np.array([2, 3]), r"one per row.*shape \(2,\).*\(3, 4\)", "forward_sample"),
       (np.array([[2, 3, 1]]), r"one per row.*shape \(1, 3\)", "forward_sample")]
    + [(ts, match, "backward") for ts, match in _BAD_STEPS]
    + [(ts, match.replace(r"1\.\.5", r"0\.\.5"), "forward_trace") for ts, match in _BAD_STEPS
       if ts is not _ZERO_STEP])


@pytest.mark.parametrize("ts, match, reader", _BLOCK_READS)
def test_forward_sample_block_refuses_bad_timesteps_naming_the_row(ts, match, reader):
    m = init_model(0, k=2, t_steps=5, hidden_enc=2, hidden_dec=2, ansatz_layers=1)
    X = np.random.default_rng(0).uniform(0.0, 1.0, (3, INPUT_DIM))
    with pytest.raises(ValueError, match=match):
        if reader == "forward_sample":
            forward_sample(np.zeros((3, 4)), ts, linear_schedule(5, 1e-4, 0.02), np.zeros((3, 4)))
        elif reader == "forward_trace":
            forward_trace(m, X, ts)
        else:
            backward(m, list(zip(X, ts, X)))


def test_forward_sample_extremes():
    x0 = np.ones(4)
    tight = NoiseSchedule(np.array([1e-8]))
    near = forward_sample(x0, 1, tight, np.zeros(4))
    assert np.max(np.abs(near - x0)) < 1e-7
    heavy = NoiseSchedule(np.full(30, 0.5))
    eps = np.full(4, 2.0)
    far = forward_sample(x0, 30, heavy, eps)
    # alpha_bar ~ 1e-9, so x_30 is essentially sqrt(1-ab) * eps
    assert np.max(np.abs(far - eps)) < 1e-4


def test_depolarize_step_basics():
    rho = projector(random_state(2, np.random.default_rng(1)))
    same = depolarize_step(rho, 0.0)
    assert np.max(np.abs(same.mat - rho.mat)) < 1e-15
    mixed = depolarize_step(rho, 1.0)
    assert np.max(np.abs(mixed.mat - np.eye(4) / 4)) < 1e-15
    with pytest.raises(ValueError):
        depolarize_step(rho, 1.5)


def test_depolarize_closed_matches_iteration():
    rng = np.random.default_rng(2)
    for trial in range(5):
        probs = rng.uniform(0.0, 0.9, 10)
        sched = NoiseSchedule(probs)
        rho = projector(random_state(2, rng))
        walker = rho
        for t in range(1, 11):
            walker = depolarize_step(walker, probs[t - 1])
            closed = depolarize_closed(rho, t, sched)
            assert np.max(np.abs(walker.mat - closed.mat)) < 1e-12


def test_depolarize_converges_to_maximally_mixed():
    sched = NoiseSchedule(np.full(60, 0.3))
    rho = projector(random_state(2, np.random.default_rng(3)))
    end = depolarize_closed(rho, 60, sched)
    assert np.max(np.abs(end.mat - np.eye(4) / 4)) < 1e-8


def test_state_fidelity_of_depolarized_state():
    psi = random_state(2, np.random.default_rng(8))
    rho = projector(psi)
    sched = NoiseSchedule(np.array([0.4]))
    noised = depolarize_closed(rho, 1, sched)
    # F = alpha + (1 - alpha)/d with alpha = 0.6, d = 4
    fidelity = np.vdot(psi.amps, noised.mat @ psi.amps).real
    assert fidelity == pytest.approx(0.6 + 0.4 / 4, abs=1e-12)
