"""Hybrid denoiser: forward composition, gradients, Adam, checkpoints."""
import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdiff.circuit import (
    circuit_unitary,
    effective_angles,
    run_block,
    run_circuit,
    unit_daggers,
)
from qdiff.data import SyntheticSpec
from qdiff.diffusion import forward_sample, linear_schedule
from qdiff.measure import adjoint_gradient, ano_features, hadamard_test, probe_hermitian_part
from qdiff.model import (
    ADAM_CHUNK,
    INPUT_DIM,
    LATENT_DIM,
    PARAM_GROUPS,
    AdamState,
    TrainConfig,
    _encode,
    _group_view,
    _non_finite,
    adam_step,
    backward,
    checkpoint_bytes,
    forward,
    forward_trace,
    gradient_audit,
    init_adam,
    init_model,
    leaky_relu,
    load_checkpoint,
    loss,
    param_tensors,
    sample,
    sample_block,
    train,
    train_log_csv,
)
from qdiff.qcore import StateVector

from checkpoint_headers import read_header, with_header


def small_model(seed=0, lam=TrainConfig.lam):
    return init_model(seed, lam=lam, k=4, t_steps=5, hidden_enc=16, hidden_dec=32,
                      ansatz_layers=1)


def small_batch(rng, n=2, t_steps=5):
    batch = []
    for _ in range(n):
        batch.append((rng.standard_normal(INPUT_DIM),
                      int(rng.integers(1, t_steps + 1)),
                      rng.uniform(0, 1, INPUT_DIM)))
    return batch


def test_activations():
    x = np.array([-2.0, 0.0, 3.0])
    assert np.allclose(leaky_relu(x), [-0.02, 0.0, 3.0])


def test_init_model_is_seed_deterministic():
    a, b = init_model(7), init_model(7)
    for (na, ta), (nb, tb) in zip(param_tensors(a), param_tensors(b)):
        assert na == nb and np.array_equal(ta, tb)
    c = init_model(8)
    assert not np.array_equal(a.tensors["theta"], c.tensors["theta"])


@pytest.mark.parametrize("config", [{}, dict(k=4, t_steps=5, hidden_enc=16, hidden_dec=32,
                                              ansatz_layers=1)], ids=["default", "small"])
def test_init_model_draws_the_table_in_order_from_fixed_ranges(config):
    # an independent walk: layer weights and biases in +-1/sqrt(fan-in), angles in
    # [0, 2 pi), bank entries in +-1/16, drawn in the parameter table's order
    k = config.get("k", 16)
    enc, dec = config.get("hidden_enc", 64), config.get("hidden_dec", 256)
    rng = np.random.default_rng(11)
    want = []
    for n_in, n_out in ((257, enc), (enc, 16)):
        bound = 1.0 / np.sqrt(n_in)
        want += [rng.uniform(-bound, bound, shape)
                 for shape in ((n_out, n_in), (n_out, n_in), n_out, n_out)]
    want.append(rng.uniform(0.0, 2.0 * np.pi, 13 * config.get("ansatz_layers", 2)))
    want += [rng.uniform(-1 / 16, 1 / 16, (16, 16)) for _ in range(2 * k)]
    want.append(rng.uniform(0.0, 2.0 * np.pi, 13))
    for n_in, n_out in ((k + 257, dec), (dec, 256)):
        bound = 1.0 / np.sqrt(n_in)
        want += [rng.uniform(-bound, bound, (n_out, n_in)), rng.uniform(-bound, bound, n_out)]
    got = param_tensors(init_model(11, **config))
    assert len(got) == len(want)
    for (name, a), b in zip(got, want):
        assert np.array_equal(a, b), name


def test_init_model_header_keys_and_unknown_keywords():
    # the header's key order is part of the checkpoint bytes
    m = init_model(3, lam=0.5, k=4)
    assert list(m.hyper) == ["n_qubits", "k", "t_steps", "lr", "lam", "hidden_enc",
                             "hidden_dec", "ansatz_layers", "seed", "target_mode",
                             "beta_start", "beta_end"]
    assert (m.hyper["k"], m.hyper["lam"], m.hyper["lr"]) == (4, 0.5, TrainConfig.lr)
    assert (m.hyper["target_mode"], m.hyper["beta_start"], m.hyper["beta_end"]) \
        == (TrainConfig.target_mode, TrainConfig.beta_start, TrainConfig.beta_end)
    for bad in ("lr", "n_qubits", "kk"):
        with pytest.raises(TypeError, match=bad):
            init_model(0, **{bad: 1})


def test_default_model_shapes():
    m = init_model(0)
    t = m.tensors
    assert t["encoder.0.w_real"].shape == (64, 257)
    assert t["encoder.1.w_real"].shape == (16, 64)
    assert t["theta"].shape == (26,) and m.ansatz.n_params == 26
    assert m.bank.shape == (16, 2, LATENT_DIM, LATENT_DIM)
    assert t["probe"].shape == (13,) and m.probe.n_params == 13
    assert t["decoder.0.w"].shape == (256, 16 + 1 + 256)
    assert t["decoder.1.w"].shape == (256, 256)


def test_param_tensor_names_are_stable():
    names = [n for n, _ in param_tensors(small_model())]
    assert names == [
        "encoder.0.w_real", "encoder.0.w_imag", "encoder.0.b_real", "encoder.0.b_imag",
        "encoder.1.w_real", "encoder.1.w_imag", "encoder.1.b_real", "encoder.1.b_imag",
        "theta",
        "bank.0.m_real", "bank.0.m_imag", "bank.1.m_real", "bank.1.m_imag",
        "bank.2.m_real", "bank.2.m_imag", "bank.3.m_real", "bank.3.m_imag",
        "probe",
        "decoder.0.w", "decoder.0.b", "decoder.1.w", "decoder.1.b",
    ]


def test_forward_trace_matches_manual_composition():
    rng = np.random.default_rng(1)
    m = small_model()
    x_t = rng.standard_normal(INPUT_DIM)
    t = 3
    out, tr = forward_trace(m, x_t[None], [t])

    # encoder: complex affine stack on the row [x ; t/T]
    z = np.concatenate([x_t, [t / m.hyper["t_steps"]]])[None].astype(complex)
    w = m.tensors
    for i in range(2):  # linear layers, no activation between them
        z = (z @ (w[f"encoder.{i}.w_real"] + 1j * w[f"encoder.{i}.w_imag"]).T
             + (w[f"encoder.{i}.b_real"] + 1j * w[f"encoder.{i}.b_imag"]))
    r = np.linalg.norm(z, axis=1)
    psi_in = StateVector(z[0] / r[0])

    # the circuits' unit products against the gate-by-gate run and the column-by-column
    # unitary; the rest is built from the trace's state and probe unitary, so it matches bitwise
    psi_out = run_circuit(m.ansatz, psi_in, w["theta"])
    assert np.max(np.abs(tr["psi_out"][:, 0] - psi_out.amps)) < 1e-12
    probe_part = 0.5 * (tr["u_probe"] + tr["u_probe"].conj().T)
    assert np.max(np.abs(probe_part - probe_hermitian_part(m.probe, w["probe"]))) < 1e-12
    # the bank's Hermitian parts and the probe's (U + U^dag)/2 against one contraction;
    # the model sums its products in another order, so the last bits may differ
    obs = np.stack([0.5 * (mj + mj.conj().T) for mj in m.bank[:, 0] + 1j * m.bank[:, 1]]
                   + [probe_part])
    col = tr["psi_out"]
    feats = np.einsum("ib,kij,jb->bk", col.conj(), obs, col).real
    assert np.max(np.abs(tr["feats"] - feats)) < 1e-14
    # the decoder on the trace's features matches bitwise
    d = np.concatenate([tr["feats"], x_t[None]], axis=1)
    for i in range(2):
        d = d @ w[f"decoder.{i}.w"].T + w[f"decoder.{i}.b"]
        if i == 0:
            d = leaky_relu(d)

    assert np.max(np.abs(out - d)) == 0.0
    # the probe feature is the ancilla Hadamard test's value
    assert abs(tr["feats"][0, -1] - hadamard_test(psi_out, m.probe, w["probe"])) < 1e-12


def test_forward_rejects_zero_latent():
    m = small_model()
    for name, arr in m.tensors.items():
        if name.startswith("encoder."):
            arr[:] = 0
    with pytest.raises(ValueError):
        forward(m, np.zeros(INPUT_DIM), 1)


def test_loss_components_blend():
    rng = np.random.default_rng(2)
    m = small_model()
    x_t = rng.standard_normal(INPUT_DIM)
    target = rng.uniform(0, 1, INPUT_DIM)
    m.hyper["lam"] = 0.0
    mse = loss(m, x_t, 2, target)
    m.hyper["lam"] = 1.0
    infid = loss(m, x_t, 2, target)
    assert mse > 0.0 and 0.0 <= infid <= 1.0
    m.hyper["lam"] = 0.5
    blended = loss(m, x_t, 2, target)
    assert blended == pytest.approx(0.5 * mse + 0.5 * infid, abs=1e-12)


def test_gradient_audit_all_groups_pass():
    rng = np.random.default_rng(3)
    m = small_model(lam=0.3)
    batch = small_batch(rng)
    report = gradient_audit(m, batch, n_probe=6, seed=4)
    assert set(report) == set(PARAM_GROUPS)
    for group, err in report.items():
        assert err < 1e-4, (group, err)


@pytest.mark.parametrize("n_probe", [0, -2])
def test_gradient_audit_needs_a_probe(n_probe):
    m = small_model()
    batch = small_batch(np.random.default_rng(3))
    with pytest.raises(ValueError, match="n_probe"):
        gradient_audit(m, batch, n_probe=n_probe)


@pytest.mark.parametrize("n_probe", [2.5, True, "3"])
def test_gradient_audit_needs_an_integer_probe_count(n_probe, monkeypatch):
    m = small_model()
    batch = small_batch(np.random.default_rng(3))

    def no_work(*args, **kwargs):
        raise AssertionError("gradient_audit ran backward")

    monkeypatch.setattr("qdiff.model.backward", no_work)
    with pytest.raises(ValueError, match=rf"n_probe must be an integer >= 1, got {n_probe!r}"):
        gradient_audit(m, batch, n_probe=n_probe)


@pytest.mark.parametrize("fd_eps", [0.0, -1.0, np.nan, np.inf])
def test_gradient_audit_needs_a_finite_positive_step(fd_eps, monkeypatch):
    m = small_model()
    batch = small_batch(np.random.default_rng(3))

    def no_work(*args, **kwargs):
        raise AssertionError("gradient_audit ran backward")

    monkeypatch.setattr("qdiff.model.backward", no_work)
    with pytest.raises(ValueError, match="fd_eps"):
        gradient_audit(m, batch, fd_eps=fd_eps)


def test_gradient_audit_catches_sign_fault():
    rng = np.random.default_rng(5)
    m = small_model(lam=0.3)
    batch = small_batch(rng)
    report = gradient_audit(m, batch, n_probe=6, seed=4, fault_group="decoder")
    assert report["decoder"] > 1e-4
    with pytest.raises(ValueError):
        gradient_audit(m, batch, fault_group="nonsense")


def test_zero_decoder_with_lam_zero_kills_upstream_gradients():
    rng = np.random.default_rng(6)
    m = small_model(lam=0.0)
    for name in ("decoder.0.w", "decoder.1.w"):
        m.tensors[name][:] = 0.0
    _, grad = backward(m, small_batch(rng))
    grads = dict(param_tensors(m, grad))
    assert list(grads) == [name for name, _ in param_tensors(m)]
    for name, g in grads.items():
        if not name.startswith("decoder."):
            assert np.max(np.abs(g)) == 0.0, name
    # the decoder bias still moves the mean-squared error
    assert np.max(np.abs(grads["decoder.1.b"])) > 0.0


def test_lam_one_gives_zero_decoder_gradients():
    rng = np.random.default_rng(7)
    m = small_model(lam=1.0)
    _, grad = backward(m, small_batch(rng))
    grads = dict(param_tensors(m, grad))
    for name, g in grads.items():
        if name.startswith("decoder."):
            assert np.max(np.abs(g)) == 0.0, name
    assert np.max(np.abs(grads["theta"])) > 0.0


def test_adam_step_matches_reference_formula():
    m = small_model()
    m.hyper["lr"] = 0.01
    opt = init_adam(m)
    _, grad = backward(m, small_batch(np.random.default_rng(8)))
    grads = dict(param_tensors(m, grad))
    before = [arr.copy() for _, arr in param_tensors(m)]
    g_arrays = [grads[name].copy() for name, _ in param_tensors(m)]
    adam_step(m, grad, opt)
    after = [arr for _, arr in param_tensors(m)]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for x0, x1, g in zip(before, after, g_arrays):
        m_hat = ((1 - b1) * g) / (1 - b1)
        v_hat = ((1 - b2) * g * g) / (1 - b2)
        expect = x0 - 0.01 * m_hat / (np.sqrt(v_hat) + eps)
        assert np.max(np.abs(x1 - expect)) < 1e-12
    assert opt.step == 1


def test_chunked_adam_is_bitwise_the_per_tensor_update():
    # Adam's update, tensor by tensor, in adam_step's order of operations; the
    # small model spans more than one ADAM_CHUNK and ends on a partial one
    m = small_model(2)
    m.hyper["lr"] = 0.01
    assert m.params.size > ADAM_CHUNK and m.params.size % ADAM_CHUNK
    opt = init_adam(m)
    ref = [arr.copy() for _, arr in param_tensors(m)]
    ref_m, ref_v = [np.zeros_like(a) for a in ref], [np.zeros_like(a) for a in ref]
    rng = np.random.default_rng(30)
    for step in range(1, 4):
        grad = rng.standard_normal(m.params.size)
        adam_step(m, grad, opt)
        # both bias corrections folded into one step size and one scaled eps
        root_bc2 = np.sqrt(1.0 - 0.999**step)
        size, eps_t = 0.01 * root_bc2 / (1.0 - 0.9**step), 1e-8 * root_bc2
        for (_, g), p, m1, m2 in zip(param_tensors(m, grad), ref, ref_m, ref_v):
            m1 *= 0.9
            m1 += (1.0 - 0.9) * g
            m2 *= 0.999
            m2 += (1.0 - 0.999) * g * g
            p -= size * m1 / (np.sqrt(m2) + eps_t)
    for (name, now), want in zip(param_tensors(m), ref):
        assert np.array_equal(now, want), name
    assert np.array_equal(opt.m, np.concatenate([a.ravel() for a in ref_m]))
    assert np.array_equal(opt.v, np.concatenate([a.ravel() for a in ref_v]))


def test_folded_adam_follows_the_textbook_update_over_many_steps():
    # m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t), p -= lr m_hat / (sqrt(v_hat) + eps),
    # over the first 12 steps, where 1 - b2^t is 0.001..0.012; gradients down to 1e-10
    # make eps weigh as much as sqrt(v_hat), so a wrongly scaled eps shows. Each step
    # starts from zero parameters, so -params is the step's update with no rounding
    m = init_model(0, k=2, hidden_enc=2, hidden_dec=2)
    m.hyper["lr"] = 0.01
    opt = init_adam(m)
    m1, m2 = np.zeros_like(m.params), np.zeros_like(m.params)
    rng = np.random.default_rng(31)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    for t in range(1, 13):
        grad = rng.standard_normal(m.params.size) * 10.0 ** rng.uniform(-10.0, 0.0, m.params.size)
        m.params[:] = 0.0
        adam_step(m, grad, opt)
        m1 = b1 * m1 + (1 - b1) * grad
        m2 = b2 * m2 + (1 - b2) * grad * grad
        update = lr * (m1 / (1 - b1**t)) / (np.sqrt(m2 / (1 - b2**t)) + eps)
        assert np.max(np.abs(-m.params - update) / np.abs(update)) < 1e-12, t
        assert np.max(np.abs(opt.m - m1) / np.abs(m1)) < 1e-12, t
    assert opt.step == 12


def test_adam_step_refuses_a_misshapen_gradient_or_moment_before_moving_its_state():
    # it raised numpy's broadcast error with the step counted and every m scaled by b1
    m = init_model(0, k=2, hidden_enc=2, hidden_dec=2)
    opt = init_adam(m)
    opt.m[:] = 1.0
    before = m.params.copy()
    with pytest.raises(ValueError, match=rf"gradient shape \(10,\).*\({m.params.size},\)"):
        adam_step(m, np.zeros(10), opt)
    assert opt.step == 0 and np.all(opt.m == 1.0) and np.all(opt.v == 0.0)
    assert np.array_equal(m.params, before)
    # moments of another model's layout, which also failed inside numpy after moving
    other = init_adam(init_model(0, k=1, hidden_enc=2, hidden_dec=2))
    other.m[:] = 1.0
    size = other.m.size
    with pytest.raises(ValueError, match=rf"first moment shape \({size},\).*\({m.params.size},\)"):
        adam_step(m, np.zeros_like(m.params), other)
    assert other.step == 0 and np.all(other.m == 1.0)
    other = AdamState(0, np.zeros_like(m.params), np.zeros(size))
    with pytest.raises(ValueError, match=rf"second moment shape \({size},\)"):
        adam_step(m, np.zeros_like(m.params), other)
    assert other.step == 0 and np.array_equal(m.params, before)


def per_row_train_step(m, config, data, opt, rng):
    """One step of train as its loop once read: each row draws t and eps, then noises
    its own x_t and target, x0 itself being the x_prev target at t = 1."""
    t_steps = m.hyper["t_steps"]
    sched = linear_schedule(t_steps, config.beta_start, config.beta_end)
    idx = rng.choice(len(data), size=min(config.batch_size, len(data)), replace=False)
    batch = []
    for i in idx:
        x0 = data[i]
        t = int(rng.integers(1, t_steps + 1))
        eps = rng.standard_normal(INPUT_DIM)
        if config.target_mode == "eps":
            target = eps
        elif config.target_mode == "x0" or t == 1:
            target = x0
        else:
            target = forward_sample(x0, t - 1, sched, eps)
        batch.append((forward_sample(x0, t, sched, eps), t, target))
    m.hyper.update(lr=config.lr, lam=config.lam)
    loss_val, grad = backward(m, batch)
    adam_step(m, grad, opt)
    return loss_val, [t for _, t, _ in batch]


@pytest.mark.parametrize("mode", ["x_prev", "eps", "x0"])
def test_train_noises_its_batch_as_the_per_row_loop_did(mode):
    data = np.random.default_rng(32).uniform(0, 1, (10, INPUT_DIM))
    config = TrainConfig(batch_size=6, seed=4, target_mode=mode, max_steps=1)
    got, want = small_model(6), small_model(6)
    log, _, _ = train(got, config, data)
    loss_val, ts = per_row_train_step(want, config, data, init_adam(want),
                                      np.random.default_rng(config.seed))
    assert 1 in ts and len(set(ts)) > 2
    assert log[0][1] == loss_val
    assert np.array_equal(got.params, want.params)


def test_train_is_deterministic_and_lr_zero_is_identity():
    rng = np.random.default_rng(9)
    data = rng.uniform(0, 1, (12, INPUT_DIM))
    cfg = TrainConfig(epochs=1, batch_size=4, lr=1e-3, seed=3, max_steps=4)
    m1, m2 = small_model(1), small_model(1)
    log1, _, _ = train(m1, cfg, data)
    log2, _, _ = train(m2, cfg, data)
    assert [r[:2] for r in log1] == [r[:2] for r in log2]
    for (_, a), (_, b) in zip(param_tensors(m1), param_tensors(m2)):
        assert np.array_equal(a, b)

    frozen = small_model(1)
    init = [arr.copy() for _, arr in param_tensors(frozen)]
    train(frozen, TrainConfig(lr=0.0, seed=3, max_steps=2), data)
    for (_, now), was in zip(param_tensors(frozen), init):
        assert np.array_equal(now, was)


def test_train_epochs_zero_changes_nothing():
    data = np.random.default_rng(10).uniform(0, 1, (6, INPUT_DIM))
    m = small_model(2)
    init = [arr.copy() for _, arr in param_tensors(m)]
    log, _, _ = train(m, TrainConfig(epochs=0, seed=0), data)
    assert log == []
    for (_, now), was in zip(param_tensors(m), init):
        assert np.array_equal(now, was)


def test_train_log_csv_format():
    text = train_log_csv([(0, 0.5, 12.0), (1, 0.25, 11.5)])
    lines = text.strip().splitlines()
    assert lines[0] == "step,loss,wall_ms"
    assert lines[1].startswith("0,0.5,")


@pytest.mark.parametrize("lam", [2.0, -0.5, np.nan, "a", 0.0, 0.6, 1.0])
def test_lam_has_one_rule_for_config_and_loss(lam, tmp_path, monkeypatch):
    """The loss reads lam from model.hyper, which init_model fills under TrainConfig's
    rule: a bad lam is refused before anything is built (init_model(0, lam=2.0) once
    built a model whose checkpoint did not load), and every model built loads back."""
    structure = dict(k=2, t_steps=3, hidden_enc=2, hidden_dec=2, ansatz_layers=1)
    try:
        TrainConfig(lam=lam)
    except ValueError as config_err:
        def no_build(*args, **kwargs):
            raise AssertionError("init_model built a circuit")

        monkeypatch.setattr("qdiff.model.build_ansatz", no_build)
        with pytest.raises(ValueError) as init_err:
            init_model(0, lam=lam, **structure)
        assert str(init_err.value) == str(config_err)
        return
    m = init_model(0, lam=lam, **structure)
    path = tmp_path / "ck.qdc"
    path.write_bytes(checkpoint_bytes(m))
    loaded = load_checkpoint(path)["model"]
    assert loaded.hyper == m.hyper and np.array_equal(loaded.params, m.params)
    x_t, t, target = small_batch(np.random.default_rng(3), n=1, t_steps=3)[0]
    assert loss(loaded, x_t, t, target) == loss(m, x_t, t, target)


@pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, -1e-3])
def test_train_config_requires_a_finite_lr_at_least_zero(lr):
    with pytest.raises(ValueError, match="lr must be a finite number >= 0"):
        TrainConfig(lr=lr)
    assert TrainConfig(lr=0.0).lr == 0.0


@pytest.mark.parametrize("key, value", [("seed", 1.5), ("seed", -1), ("seed", True),
                                        ("lr", True), ("lam", "0.5"), ("lam", None),
                                        ("beta_start", True), ("beta_end", "0.02")])
def test_train_config_refuses_a_value_of_the_wrong_type_naming_the_key(key, value):
    # seed 1.5 or -1 and lam "0.5" failed inside numpy or Python; seed True trained on
    # seed 1 and lr True was recorded as true
    kind = "an integer >= 0" if key == "seed" else "a real number"
    match = rf"^{key} must be {kind}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=match):
        TrainConfig(**{key: value})
    if key in ("seed", "lam"):
        with pytest.raises(ValueError, match=match):
            init_model(value) if key == "seed" else init_model(0, lam=value)


def test_train_rejects_bad_dataset_and_config():
    with pytest.raises(ValueError):
        train(small_model(), TrainConfig(), np.zeros((0, INPUT_DIM)))
    with pytest.raises(ValueError):
        train(small_model(), TrainConfig(), np.zeros((4, 10)))
    with pytest.raises(ValueError):
        TrainConfig(lam=1.5)
    with pytest.raises(ValueError):
        TrainConfig(target_mode="zigzag")


@pytest.mark.parametrize("betas", [(0.5, 0.1), (0.0, 0.02), (1e-4, 1.0), (-1e-4, 0.02)])
def test_train_config_rejects_betas_linear_schedule_would(betas):
    with pytest.raises(ValueError, match="beta_start"):
        TrainConfig(beta_start=betas[0], beta_end=betas[1])
    with pytest.raises(ValueError, match="beta_start"):
        linear_schedule(5, *betas)


@pytest.mark.parametrize("make,name,value", [
    (lambda v: TrainConfig(batch_size=v), "batch_size", 2.5),
    (lambda v: TrainConfig(batch_size=v), "batch_size", True),
    (lambda v: TrainConfig(epochs=v), "epochs", 1.5),
    (lambda v: TrainConfig(max_steps=v), "max_steps", 2.5),
    (lambda v: SyntheticSpec(per_mode=v), "per_mode", 1.5),
    (lambda v: SyntheticSpec(n_modes=v), "n_modes", 2.5),
    (lambda v: SyntheticSpec(pattern_seed=v), "pattern seed", 1.0),
    (lambda v: linear_schedule(v, 1e-4, 0.02), "t_steps", 2.5),
    (lambda v: linear_schedule(v, 1e-4, 0.02), "t_steps", True),
], ids=["batch_size-2.5", "batch_size-True", "epochs-1.5", "max_steps-2.5", "per_mode-1.5",
        "n_modes-2.5", "pattern_seed-1.0", "t_steps-2.5", "t_steps-True"])
def test_counts_must_be_integers(make, name, value):
    """Each float was accepted and failed later with a TypeError; each True ran as 1."""
    with pytest.raises(ValueError, match=f"{name} must be an integer >= ., got {value!r}"):
        make(value)


def test_train_config_rejects_negative_max_steps():
    with pytest.raises(ValueError, match="max_steps"):
        TrainConfig(max_steps=-5)
    assert TrainConfig(max_steps=0).max_steps == 0


def test_checkpoint_round_trip_and_resume(tmp_path):
    rng = np.random.default_rng(11)
    data = rng.uniform(0, 1, (10, INPUT_DIM))
    path = tmp_path / "ck.qdc"

    full = small_model(4)
    log_full, _, _ = train(full, TrainConfig(seed=5, max_steps=6, batch_size=5), data)

    half = small_model(4)
    log_a, opt, state_rng = train(half, TrainConfig(seed=5, max_steps=3, batch_size=5), data)
    path.write_bytes(checkpoint_bytes(half, opt, state_rng.bit_generator.state,
                                      step=len(log_a)))
    ck = load_checkpoint(path)
    for (_, a), (_, b) in zip(param_tensors(half), param_tensors(ck["model"])):
        assert np.array_equal(a, b)

    resumed = np.random.default_rng()
    resumed.bit_generator.state = ck["rng_state"]
    log_b, _, _ = train(ck["model"], TrainConfig(seed=5, max_steps=3, batch_size=5),
                        data, opt=ck["opt"], rng=resumed, step_offset=ck["step"])
    stitched = [r[:2] for r in log_a + log_b]
    assert stitched == [r[:2] for r in log_full]
    for (_, a), (_, b) in zip(param_tensors(full), param_tensors(ck["model"])):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_corruption(tmp_path):
    m = small_model(5)
    path = tmp_path / "ck.qdc"
    path.write_bytes(checkpoint_bytes(m))
    raw = path.read_bytes()
    (tmp_path / "magic.qdc").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "magic.qdc")
    (tmp_path / "short.qdc").write_bytes(raw[:-20])
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "short.qdc")
    bad_version = raw[:4] + b"\x63\x00\x00\x00" + raw[8:]
    (tmp_path / "ver.qdc").write_bytes(bad_version)
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "ver.qdc")


def test_checkpoint_rejects_non_finite_weights(tmp_path):
    path = tmp_path / "ck.qdc"
    path.write_bytes(checkpoint_bytes(small_model(5)))
    raw = path.read_bytes()
    (tmp_path / "nan.qdc").write_bytes(raw[:-8] + struct.pack("<d", np.nan))
    with pytest.raises(ValueError, match="decoder.1.b"):
        load_checkpoint(tmp_path / "nan.qdc")


def test_checkpoint_load_draws_no_weights(tmp_path, monkeypatch):
    m = small_model(5)
    path = tmp_path / "ck.qdc"
    path.write_bytes(checkpoint_bytes(m))

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random weights")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = load_checkpoint(path)["model"]
    assert loaded.hyper == m.hyper
    for (_, a), (_, b) in zip(param_tensors(m), param_tensors(loaded)):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_incomplete_header(tmp_path):
    m = small_model(5)
    path = tmp_path / "ck.qdc"
    path.write_bytes(checkpoint_bytes(m))
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16: 16 + hlen])
    broken = [[1, 2, 3], "hyper", {"hyper": [], "shapes": [], "has_adam": False}]
    for key in ("hyper", "shapes", "has_adam", "step", "rng_state", "crc32"):
        broken.append({k: v for k, v in header.items() if k != key})
    for key in ("n_qubits", "k", "t_steps", "lr", "lam", "hidden_enc", "hidden_dec",
                "ansatz_layers", "target_mode", "beta_start", "beta_end"):
        broken.append(dict(header, hyper={k: v for k, v in header["hyper"].items()
                                          if k != key}))
    broken.append(dict(header, hyper=dict(header["hyper"], n_qubits=5)))
    for i, bad in enumerate(broken):
        (tmp_path / f"bad{i}.qdc").write_bytes(with_header(raw, bad))
        with pytest.raises(ValueError, match="corrupt checkpoint header"):
            load_checkpoint(tmp_path / f"bad{i}.qdc")
    (tmp_path / "same.qdc").write_bytes(with_header(raw, header))
    load_checkpoint(tmp_path / "same.qdc")
    seedless = dict(header, hyper={k: v for k, v in header["hyper"].items() if k != "seed"})
    (tmp_path / "seedless.qdc").write_bytes(with_header(raw, seedless))
    load_checkpoint(tmp_path / "seedless.qdc")


@pytest.fixture(scope="module")
def tiny_checkpoint():
    """Bytes of a one-step checkpoint with Adam moments and an RNG state, kept small."""
    m = init_model(0, k=2, t_steps=3, hidden_enc=2, hidden_dec=2, ansatz_layers=1)
    log, opt, rng = train(m, TrainConfig(seed=1, max_steps=1, batch_size=2),
                          np.random.default_rng(0).uniform(0, 1, (4, INPUT_DIM)))
    return checkpoint_bytes(m, opt, rng.bit_generator.state, step=len(log))


@pytest.mark.parametrize("top, hyper", [({"step": "x"}, {}), ({"step": -1}, {}),
                                        ({"adam_step": -4}, {}), ({"adam_step": 2.0}, {}),
                                        ({}, {"lam": 5}), ({}, {"lr": "fast"}),
                                        ({}, {"target_mode": "bogus"}),
                                        ({}, {"beta_start": 0.5, "beta_end": 0.1})],
                         ids=["step-str", "step-negative", "adam_step-negative",
                              "adam_step-float", "lam", "lr", "target_mode", "betas"])
def test_checkpoint_refuses_bad_counters_and_training_settings(tiny_checkpoint, tmp_path,
                                                               top, hyper):
    raw = tiny_checkpoint
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16: 16 + hlen])
    bad = dict(header, **top, hyper=dict(header["hyper"], **hyper))
    (tmp_path / "bad.qdc").write_bytes(with_header(raw, bad))
    with pytest.raises(ValueError, match="corrupt checkpoint header"):
        load_checkpoint(tmp_path / "bad.qdc")
    # a header without target_mode and the betas is refused, not read as their defaults
    old = dict(header, hyper={k: v for k, v in header["hyper"].items()
                              if k not in ("target_mode", "beta_start", "beta_end")})
    (tmp_path / "old.qdc").write_bytes(with_header(raw, old))
    with pytest.raises(ValueError, match="corrupt checkpoint header"):
        load_checkpoint(tmp_path / "old.qdc")


def test_checkpoint_refuses_an_rng_state_of_another_generator(tiny_checkpoint, tmp_path):
    raw = tiny_checkpoint
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16: 16 + hlen])
    state = header["rng_state"]
    for bad in (dict(state, bit_generator="MT19937"), "PCG64",
                dict(state, state={"state": -1, "inc": 1})):
        (tmp_path / "bad.qdc").write_bytes(with_header(raw, dict(header, rng_state=bad)))
        with pytest.raises(ValueError, match="corrupt checkpoint header"):
            load_checkpoint(tmp_path / "bad.qdc")


@pytest.mark.parametrize("hlen", [2**62, 2**64 - 1, "one past the end"])
def test_checkpoint_header_length_past_the_end_is_a_value_error(tiny_checkpoint, tmp_path,
                                                                hlen):
    raw = tiny_checkpoint
    if hlen == "one past the end":
        hlen = len(raw) - 15
    (tmp_path / "long.qdc").write_bytes(raw[:8] + struct.pack("<Q", hlen) + raw[16:])
    with pytest.raises(ValueError, match="corrupt checkpoint header: .*past the end"):
        load_checkpoint(tmp_path / "long.qdc")


def test_checkpoint_header_nested_past_the_parser_is_a_value_error(tiny_checkpoint, tmp_path):
    # json.loads recurses once per "[", so this header exhausts the recursion limit
    raw = tiny_checkpoint
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    head = b"[" * 200_000
    (tmp_path / "deep.qdc").write_bytes(raw[:8] + struct.pack("<Q", len(head)) + head
                                        + raw[16 + hlen:])
    with pytest.raises(ValueError, match="corrupt checkpoint header"):
        load_checkpoint(tmp_path / "deep.qdc")


def test_checkpoint_refuses_a_flipped_payload_bit(tmp_path):
    raw = bytearray(checkpoint_bytes(small_model(5)))
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    # the lowest mantissa bit of a weight: the value stays finite and the size right
    pos = 16 + hlen + 8 * 100
    raw[pos] ^= 1
    (tmp_path / "flip.qdc").write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="CRC-32 mismatch"):
        load_checkpoint(tmp_path / "flip.qdc")


def test_checkpoint_refuses_an_edited_header_value(tmp_path):
    # an edit inside the valid range passes every value check; only a digest sees it
    raw = checkpoint_bytes(init_model(0, k=2, hidden_enc=2, hidden_dec=2))
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    head = raw[16: 16 + hlen]
    assert head.count(b'"lr": 0.001,') == 1
    edited = head.replace(b'"lr": 0.001,', b'"lr": 0.009,')
    (tmp_path / "edited.qdc").write_bytes(raw[:16] + edited + raw[16 + hlen:])
    with pytest.raises(ValueError, match="corrupt checkpoint header: header CRC-32 mismatch"):
        load_checkpoint(tmp_path / "edited.qdc")


def test_checkpoints_of_versions_1_and_2_are_refused(tiny_checkpoint, tmp_path):
    # version 2 had the payload checksum only, version 1 neither
    raw = tiny_checkpoint
    assert struct.unpack_from("<I", raw, 4) == (3,)
    for version in (1, 2):
        (tmp_path / "old.qdc").write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}"):
            load_checkpoint(tmp_path / "old.qdc")
    # a version 3 header must carry both checksums
    header = read_header(raw)
    no_digest = {k: v for k, v in header.items() if k != "header_crc32"}
    no_crc = {k: v for k, v in header.items() if k != "crc32"}
    for bare in (with_header(raw, no_digest, digest=False), with_header(raw, no_crc)):
        (tmp_path / "bare.qdc").write_bytes(bare)
        with pytest.raises(ValueError, match="corrupt checkpoint header"):
            load_checkpoint(tmp_path / "bare.qdc")


@pytest.mark.parametrize("version", [1, 2])
def test_an_old_version_word_does_not_skip_the_payload_check(tiny_checkpoint, tmp_path,
                                                             version):
    # one flipped payload bit, then one more in the version word (3 -> 1 or 3 -> 2)
    raw = bytearray(tiny_checkpoint)
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    raw[16 + hlen + 8 * 3] ^= 1  # the lowest mantissa bit of a weight
    struct.pack_into("<I", raw, 4, version)
    (tmp_path / "flip.qdc").write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}"):
        load_checkpoint(tmp_path / "flip.qdc")


def model_attributes(m):
    """(table name, array) for each parameter array the model holds: the views of its
    name map, then each observable's pair in the bank's group view."""
    return list(m.tensors.items()) + [(f"bank.{j}.{part}", m.bank[j, p])
                                      for j in range(len(m.bank))
                                      for p, part in enumerate(("m_real", "m_imag"))]


def assert_flat_layout(m, opt=None):
    """Each table array is a view of m.params at its consecutive offset, and so is
    each array the model holds (its name map's views, in table order, and the bank's
    observables), found at the offset of its table name. The Adam moments are flat
    vectors of the same length. A rebound or copied tensor fails here."""
    params = m.params
    assert params.ndim == 1 and params.dtype == np.float64 and params.flags.c_contiguous
    base = params.__array_interface__["data"][0]
    offsets, offset = {}, 0
    for name, arr in param_tensors(m):
        assert np.shares_memory(arr, params) and arr.flags.c_contiguous, name
        assert arr.__array_interface__["data"][0] == base + 8 * offset, name
        offsets[name] = offset
        offset += arr.size
    assert offset == params.size
    assert list(m.tensors) == list(offsets)
    table = dict(param_tensors(m))
    for name, arr in model_attributes(m):
        assert np.shares_memory(arr, params), name
        assert arr.__array_interface__["data"][0] == base + 8 * offsets[name], name
        assert arr.shape == table[name].shape and arr.strides == table[name].strides, name
    if opt is not None:
        for moment in (opt.m, opt.v):
            assert moment.shape == params.shape and moment.dtype == np.float64
            assert not np.shares_memory(moment, params)


def test_each_group_is_one_contiguous_run_of_the_table():
    # the groups follow PARAM_GROUPS, each once, so a group's tensors are one slice
    # of params; the bank's is the model's (k, 2, 16, 16) array
    for m in (small_model(), init_model(0)):
        runs = [name.split(".")[0] for name, _ in param_tensors(m)]
        firsts = [g for i, g in enumerate(runs) if i == 0 or runs[i - 1] != g]
        assert firsts == list(PARAM_GROUPS)
        start = 0
        for group in PARAM_GROUPS:
            size = sum(a.size for name, a in param_tensors(m) if name.split(".")[0] == group)
            view = _group_view(m.params, m.layout, group)
            assert np.shares_memory(view, m.params) and view.size == size, group
            assert view.__array_interface__["data"][0] \
                == m.params.__array_interface__["data"][0] + 8 * start, group
            start += size
        assert start == m.params.size
        bank = _group_view(m.params, m.layout, "bank")
        assert np.shares_memory(m.bank, bank) and np.array_equal(m.bank.ravel(), bank)


def test_every_table_tensor_is_a_view_of_the_flat_buffer(tmp_path):
    data = np.random.default_rng(28).uniform(0, 1, (6, INPUT_DIM))
    m = small_model(3)
    assert_flat_layout(m)
    assert_flat_layout(init_model(0))
    log, opt, rng = train(m, TrainConfig(seed=1, max_steps=2, batch_size=3), data)
    assert_flat_layout(m, opt)
    path = tmp_path / "ck.qdc"
    path.write_bytes(checkpoint_bytes(m, opt, rng.bit_generator.state, step=len(log)))
    ck = load_checkpoint(path)
    assert_flat_layout(ck["model"], ck["opt"])
    assert np.array_equal(ck["model"].params, m.params)
    train(ck["model"], TrainConfig(seed=1, max_steps=1, batch_size=3), data,
          opt=ck["opt"], rng=rng, step_offset=ck["step"])
    assert_flat_layout(ck["model"], ck["opt"])
    # a vector laid out like params has the same slices under the same names
    for (name, arr), (same, part) in zip(param_tensors(m), param_tensors(m, m.params.copy())):
        assert same == name and np.array_equal(part, arr), name


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_checkpoint_refuses_truncated_or_mutated_bytes_with_value_error(
        tiny_checkpoint, tmp_path_factory, data):
    raw = tiny_checkpoint
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    blob = bytearray(raw[: data.draw(st.integers(0, len(raw)), label="cut")])
    # most draws land in the magic, version, length and JSON header
    where = st.one_of(st.integers(0, 16 + hlen - 1), st.integers(0, len(raw) - 1))
    for pos, byte in data.draw(st.lists(st.tuples(where, st.integers(0, 255)), max_size=4),
                               label="mutations"):
        if pos < len(blob):
            blob[pos] = byte
    path = tmp_path_factory.getbasetemp() / "fuzz.qdc"
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except ValueError:
        pass


def test_sample_trajectory_shape_and_determinism():
    m = small_model(6)
    traj = sample(m, t_steps=5, seed=12)
    assert len(traj) == 6
    assert all(step.shape == (INPUT_DIM,) for step in traj)
    # a fresh model steps in x_prev mode: the step is the network's prediction itself
    assert np.array_equal(traj[1], forward(m, traj[0], 5))
    again = sample(m, t_steps=5, seed=12)
    for a, b in zip(traj, again):
        assert np.array_equal(a, b)
    other = sample(m, t_steps=5, seed=13)
    assert not np.array_equal(traj[0], other[0])


def test_sample_other_modes_accept_schedule():
    # the mode and betas come from hyper, as train() records them
    m = small_model(7)
    for mode in ("eps", "x0"):
        m.hyper.update(target_mode=mode, beta_start=1e-4, beta_end=0.02)
        traj = sample(m, t_steps=5, seed=1)
        assert len(traj) == 6
        assert np.all(np.isfinite(traj[-1]))
        m.hyper.update(beta_start=1e-3, beta_end=0.05)
        other = sample(m, t_steps=5, seed=1)
        assert np.array_equal(traj[0], other[0])
        assert not np.array_equal(traj[-1], other[-1])


def test_sample_rejects_unknown_mode():
    m = small_model(7)
    m.hyper["target_mode"] = "zigzag"
    with pytest.raises(ValueError, match="zigzag"):
        sample(m, t_steps=5, seed=1)


def test_eps_step_is_the_ddpm_posterior_mean_on_the_recorded_schedule():
    m = small_model(8)
    m.hyper.update(target_mode="eps", beta_start=1e-3, beta_end=0.05)
    traj = sample(m, t_steps=5, seed=3)
    sched = linear_schedule(5, 1e-3, 0.05)
    ab, beta = sched.alpha_bar(5), sched.beta(5)
    want = (traj[0] - beta / np.sqrt(1.0 - ab) * forward(m, traj[0], 5)) / np.sqrt(1.0 - beta)
    assert np.allclose(traj[1], want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("mode", ["x_prev", "eps", "x0"])
def test_sample_block_rows_are_the_single_trajectories(mode):
    # layout contract: trajectory j's frames do not depend on how many run beside it
    m = small_model(9)
    m.hyper.update(target_mode=mode, beta_start=1e-4, beta_end=0.02)
    seeds = [100 + 7 * j for j in range(8)]
    single = [np.array(sample(m, 5, s)) for s in seeds]
    for n in (1, 3, 8):
        block = sample_block(m, seeds[:n])
        assert block.shape == (n, 6, INPUT_DIM)
        for j in range(n):
            assert np.array_equal(block[j], single[j]), (mode, n, j)


def test_sample_block_needs_a_seed():
    with pytest.raises(ValueError, match="at least one seed"):
        sample_block(small_model(), [])


@pytest.mark.parametrize("seeds, bad", [([1.5], 0), ([4, "a"], 1), ([2, 3, -3], 2),
                                        ([True], 0), ([5, None], 1)])
def test_sample_block_checks_each_seed_before_any_work(seeds, bad, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("sample_block ran the model")

    monkeypatch.setattr("qdiff.model.forward_trace", no_work)
    with pytest.raises(ValueError, match=rf"seed .* of trajectory {bad} is not an integer >= 0"):
        sample_block(small_model(), seeds)


def test_sample_block_takes_numpy_integer_seeds_as_their_values():
    m = small_model(9)
    want = sample_block(m, [0, 7, 2**40])
    got = sample_block(m, [np.int64(0), np.uint32(7), np.uint64(2**40)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("t_steps", [3, 6, 0])
def test_sample_refuses_a_chain_length_other_than_the_models(t_steps):
    with pytest.raises(ValueError, match=f"t_steps {t_steps} is not the model's T = 5"):
        sample(small_model(), t_steps=t_steps, seed=1)


def test_train_records_its_config_in_hyper():
    data = np.random.default_rng(10).uniform(0, 1, (6, INPUT_DIM))
    m = small_model(2)
    keys = list(m.hyper)
    cfg = TrainConfig(max_steps=1, batch_size=2, lr=0.5, lam=0.9, target_mode="eps",
                      beta_start=1e-3, beta_end=0.05)
    train(m, cfg, data)
    # train() adds no key, so a trained checkpoint's header keeps init_model's order
    assert list(m.hyper) == keys
    assert {k: m.hyper[k] for k in ("lr", "lam", "target_mode", "beta_start", "beta_end")} \
        == dict(lr=0.5, lam=0.9, target_mode="eps", beta_start=1e-3, beta_end=0.05)


# ---------------------------------------------------------------------------
# the batched model path against single rows and the circuit-level oracles

def test_forward_trace_rows_match_single_forward_calls():
    rng = np.random.default_rng(20)
    m = small_model(3)
    X = rng.standard_normal((5, INPUT_DIM))
    ts = [0, 1, 3, 5, 2]
    out, tr = forward_trace(m, X, ts)
    assert out.shape == (5, INPUT_DIM)
    assert tr["psi_out"].shape == (LATENT_DIM, 5)
    for b in range(5):
        assert np.max(np.abs(out[b] - forward(m, X[b], ts[b]))) < 1e-12
        psi = StateVector(tr["psi_out"][:, b])
        oracle = np.concatenate([ano_features(psi, m.bank),
                                 [hadamard_test(psi, m.probe, m.tensors["probe"])]])
        assert np.max(np.abs(tr["feats"][b] - oracle)) < 1e-12


@pytest.mark.parametrize("b", [1, 3, 8])
def test_forward_trace_states_match_the_gate_by_gate_run(b):
    """The ansatz's unit product on each encoded state against run_block on the block."""
    rng = np.random.default_rng(30 + b)
    m = small_model(6)
    X = rng.standard_normal((b, INPUT_DIM))
    ts = rng.integers(0, 6, b)
    _, psi_in, _, _ = _encode(m, X, ts / m.hyper["t_steps"])
    _, tr = forward_trace(m, X, ts)
    gate_by_gate = run_block(m.ansatz, psi_in.T, effective_angles(m.ansatz, m.tensors["theta"]))
    assert np.max(np.abs(tr["psi_out"] - gate_by_gate)) < 1e-12


def test_theta_is_a_gauge_of_the_bank_features():
    """With a bank on the whole register, theta -> theta' and each H_j -> R H_j R^dag,
    R = U(theta') U(theta)^dag and H_j = (M_j + M_j^dag)/2, leave every bank feature as
    it was; of the features, only the probe's sees theta."""
    rng = np.random.default_rng(34)
    m = small_model(7)
    k = len(m.bank)
    X, ts = rng.standard_normal((4, INPUT_DIM)), rng.integers(0, 6, 4)
    _, before = forward_trace(m, X, ts)
    theta = rng.uniform(0.0, 2.0 * np.pi, m.ansatz.n_params)
    r = circuit_unitary(m.ansatz, theta) @ circuit_unitary(m.ansatz, m.tensors["theta"]).conj().T
    mats = m.bank[:, 0] + 1j * m.bank[:, 1]
    moved = r @ (0.5 * (mats + mats.conj().transpose(0, 2, 1))) @ r.conj().T
    m.tensors["theta"][:] = theta
    m.bank[:, 0], m.bank[:, 1] = moved.real, moved.imag
    _, after = forward_trace(m, X, ts)
    assert np.max(np.abs(after["feats"][:, :k] - before["feats"][:, :k])) < 1e-12
    assert np.min(np.abs(after["feats"][:, k] - before["feats"][:, k])) > 1e-3


def test_backward_builds_each_circuits_units_once(monkeypatch):
    m = small_model()
    built = []

    def counting(c, params):
        built.append(c)
        return unit_daggers(c, params)

    monkeypatch.setattr("qdiff.model.unit_daggers", counting)
    backward(m, small_batch(np.random.default_rng(28), n=3))
    assert len(built) == 2
    assert {id(c) for c in built} == {id(m.ansatz), id(m.probe)}


class _NanEmptyNumpy:
    """numpy as model.py sees it, except that empty_like fills its buffer with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty_like(a, *args, **kwargs):
        return np.full_like(a, np.nan, *args, **kwargs)


@pytest.mark.parametrize("lam", [0.0, 0.25, 1.0])
def test_backward_writes_every_gradient_entry(lam, monkeypatch):
    """backward fills an uninitialised buffer: pre-filled with NaN, it gives the same bits."""
    m = small_model(lam=lam)
    batch = small_batch(np.random.default_rng(29), n=3)
    total, grad = backward(m, batch)
    monkeypatch.setattr("qdiff.model.np", _NanEmptyNumpy())
    nan_total, nan_grad = backward(m, batch)
    assert nan_total == total
    assert np.array_equal(nan_grad, grad)


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_batched_backward_is_the_mean_of_single_row_calls(lam):
    rng = np.random.default_rng(21)
    m = small_model(4, lam=lam)
    batch = small_batch(rng, n=4)
    total, grad = backward(m, batch)
    singles = [backward(m, [row]) for row in batch]
    assert total == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12, abs=0.0)
    grads = dict(param_tensors(m, grad))
    for name, g in grads.items():
        mean = np.mean([dict(param_tensors(m, s[1]))[name] for s in singles], axis=0)
        scale = max(np.max(np.abs(mean)), 1e-300)
        assert np.max(np.abs(g - mean)) <= 1e-12 * scale, name


def test_batch_losses_agree_with_backward():
    rng = np.random.default_rng(22)
    m = small_model(5, lam=0.4)
    batch = small_batch(rng, n=3)
    total, _ = backward(m, batch)
    per_row = [loss(m, x_t, t, target) for x_t, t, target in batch]
    assert total == pytest.approx(np.mean(per_row), rel=1e-12)


# ---------------------------------------------------------------------------
# boundary errors of the batched path

def test_backward_rejects_misshapen_target_naming_its_row():
    batch = small_batch(np.random.default_rng(23), n=3)
    x_t, t, target = batch[2]
    batch[2] = (x_t, t, target[:-1])
    with pytest.raises(ValueError, match=r"target.*\(255,\).*batch index 2"):
        backward(small_model(), batch)
    with pytest.raises(ValueError, match=r"target.*\(255,\)"):
        loss(small_model(), x_t, t, target[:-1])


def test_backward_names_the_tensor_of_a_non_finite_gradient(monkeypatch):
    m = small_model()

    def nan_probe_sweep(c, params, phi_out, bra_out, coeff):
        grad, pulled = adjoint_gradient(c, params, phi_out, bra_out, coeff)
        if c is m.probe:
            grad = np.full_like(grad, np.nan)
        return grad, pulled

    monkeypatch.setattr("qdiff.model.adjoint_gradient", nan_probe_sweep)
    with pytest.raises(RuntimeError, match="non-finite gradient in parameter probe$"):
        backward(m, small_batch(np.random.default_rng(27)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_backward_names_an_infinite_or_nan_probe_gradient(monkeypatch, bad):
    m = small_model()

    def poisoned_probe_sweep(c, params, phi_out, bra_out, coeff):
        grad, pulled = adjoint_gradient(c, params, phi_out, bra_out, coeff)
        if c is m.probe:
            grad[-1] = bad
        return grad, pulled

    monkeypatch.setattr("qdiff.model.adjoint_gradient", poisoned_probe_sweep)
    with pytest.raises(RuntimeError, match="non-finite gradient in parameter probe$"):
        backward(m, small_batch(np.random.default_rng(27)))


def test_a_finite_gradient_whose_sum_of_squares_overflows_is_not_reported(monkeypatch):
    # the one-pass test, grad @ grad, overflows; the scan over the tensors clears it
    m = small_model()

    def huge_probe_sweep(c, params, phi_out, bra_out, coeff):
        grad, pulled = adjoint_gradient(c, params, phi_out, bra_out, coeff)
        return (np.full_like(grad, 1e200) if c is m.probe else grad), pulled

    monkeypatch.setattr("qdiff.model.adjoint_gradient", huge_probe_sweep)
    _, grad = backward(m, small_batch(np.random.default_rng(27)))
    assert np.all(dict(param_tensors(m, grad))["probe"] == 1e200)
    with np.errstate(over="ignore"):
        assert grad @ grad == np.inf
    assert _non_finite(m, grad) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_in_the_last_tensor_is_named(tmp_path, bad):
    m = small_model(5)
    vec = np.full_like(m.params, 1e200)
    vec[-1] = bad
    assert _non_finite(m, vec) == "decoder.1.b"
    m.params[-1] = bad
    path = tmp_path / "ck.qdc"
    path.write_bytes(checkpoint_bytes(m))
    with pytest.raises(ValueError, match=r"checkpoint tensor decoder\.1\.b holds non-finite"):
        load_checkpoint(path)


def test_a_checkpoint_whose_sum_of_squares_overflows_loads(tmp_path):
    m = small_model(5)
    m.params[:] = 1e200
    opt = init_adam(m)
    opt.m[:], opt.v[:] = -1e200, 1e300
    path = tmp_path / "ck.qdc"
    path.write_bytes(checkpoint_bytes(m, opt))
    ck = load_checkpoint(path)
    assert np.all(ck["model"].params == 1e200)
    assert np.all(ck["opt"].m == -1e200) and np.all(ck["opt"].v == 1e300)


def test_backward_rejects_misshapen_input_naming_its_row():
    batch = small_batch(np.random.default_rng(24), n=2)
    x_t, t, target = batch[1]
    batch[1] = (np.zeros((16, 16)), t, target)
    with pytest.raises(ValueError, match=r"input.*\(16, 16\).*batch index 1"):
        backward(small_model(), batch)


def test_timesteps_must_be_integers_in_range():
    m = small_model()
    x_t = np.zeros(INPUT_DIM)
    target = np.zeros(INPUT_DIM)
    with pytest.raises(ValueError, match=r"timestep 1.5 of row 0 "):
        forward(m, x_t, 1.5)
    with pytest.raises(ValueError, match=r"timestep 6 .*0\.\.5"):
        forward(m, x_t, 6)
    forward(m, x_t, 0)  # the forward path accepts t = 0
    batch = [(x_t, 2, target), (x_t, 0, target)]
    with pytest.raises(ValueError, match=r"timestep 0 of row 1 .*1\.\.5"):
        backward(m, batch)
    with pytest.raises(ValueError, match=r"timestep 0 .*1\.\.5"):
        loss(m, x_t, 0, target)
    with pytest.raises(ValueError, match=r"timestep 2.5 "):
        loss(m, x_t, 2.5, target)
    # a bool read as t = 1 and ran; it is refused like any other non-integer step
    for t in (True, np.True_):
        with pytest.raises(ValueError, match=r"timestep (np\.)?True_? of row 0 .*0\.\.5"):
            forward(m, x_t, t)
    with pytest.raises(ValueError, match=r"timestep True of row 2 .*0\.\.5"):
        forward_trace(m, np.zeros((3, INPUT_DIM)), [1, 2, True])
    batch = [(x_t, 2, target), (x_t, True, target)]
    with pytest.raises(ValueError, match=r"timestep True of row 1 .*1\.\.5"):
        backward(m, batch)
    with pytest.raises(ValueError, match=r"timestep False .*1\.\.5"):
        loss(m, x_t, False, target)


def test_non_finite_inputs_are_named_without_a_numpy_warning():
    m = small_model()
    batch = small_batch(np.random.default_rng(25), n=3)
    x_t, t, target = batch[1]
    bad_x = x_t.copy()
    bad_x[7] = np.nan
    bad_target = target.copy()
    bad_target[0] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"non-finite input.*batch index 1"):
            backward(m, [batch[0], (bad_x, t, target), batch[2]])
        with pytest.raises(ValueError, match=r"non-finite target.*batch index 2"):
            backward(m, [batch[0], batch[1], (x_t, t, bad_target)])
        with pytest.raises(ValueError, match=r"non-finite input"):
            forward(m, bad_x, t)


def test_zero_latent_names_its_batch_index():
    m = small_model()
    X = np.random.default_rng(26).standard_normal((3, INPUT_DIM))
    # with a zero first layer the latent is the second layer's bias alone
    for part in ("w_real", "w_imag", "b_real", "b_imag"):
        m.tensors[f"encoder.0.{part}"][:] = 0.0
    for part in ("b_real", "b_imag"):
        m.tensors[f"encoder.1.{part}"][:] = 0.0
    with pytest.raises(ValueError, match=r"all zero.*batch index 0"):
        forward_trace(m, X, [1, 2, 3])
