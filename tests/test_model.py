"""Hybrid denoiser: forward composition, gradients, Adam, checkpoints."""
import json
import struct
import warnings

import numpy as np
import pytest

from qdiff.circuit import run_circuit
from qdiff.diffusion import linear_schedule
from qdiff.measure import ano_features, hadamard_test, hermitize, probe_hermitian_part
from qdiff.model import (
    INPUT_DIM,
    LATENT_DIM,
    PARAM_GROUPS,
    AdamState,
    TrainConfig,
    adam_step,
    backward,
    forward,
    forward_trace,
    gradient_audit,
    init_adam,
    init_model,
    leaky_relu,
    load_checkpoint,
    loss,
    loss_components,
    param_tensors,
    sample,
    save_checkpoint,
    train,
    train_log_csv,
)
from qdiff.qcore import StateVector


def small_model(seed=0):
    return init_model(seed, k=4, t_steps=5, hidden_enc=16, hidden_dec=32,
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
    assert not np.array_equal(a.theta, c.theta)


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


def test_default_model_shapes():
    m = init_model(0)
    assert m.encoder[0].w_real.shape == (64, 257)
    assert m.encoder[1].w_real.shape == (16, 64)
    assert m.theta.shape == (26,)
    assert m.bank.k == 16 and m.bank.dim == LATENT_DIM
    assert m.probe.params.shape == (13,)
    assert m.decoder[0].w.shape == (256, 16 + 1 + 256)
    assert m.decoder[1].w.shape == (256, 256)


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
    for layer in m.encoder:  # linear layers, no activation between them
        z = z @ (layer.w_real + 1j * layer.w_imag).T + (layer.b_real + 1j * layer.b_imag)
    r = np.linalg.norm(z, axis=1)
    psi_in = StateVector(z[0] / r[0])

    psi_out = run_circuit(m.ansatz, psi_in, m.theta)
    # the bank's Hermitian parts and the probe's (U + U^dag)/2, one contraction
    obs = np.stack([hermitize(o) for o in m.bank.observables] + [probe_hermitian_part(m.probe)])
    col = psi_out.amps[:, None]
    feats = np.einsum("ib,kij,jb->bk", col.conj(), obs, col).real
    d = np.concatenate([feats, x_t[None]], axis=1)
    for i, layer in enumerate(m.decoder):
        d = d @ layer.w.T + layer.b
        if i + 1 < len(m.decoder):
            d = leaky_relu(d)

    assert np.max(np.abs(out - d)) == 0.0
    assert np.max(np.abs(tr["psi_out"][:, 0] - psi_out.amps)) == 0.0
    assert np.max(np.abs(tr["feats"] - feats)) == 0.0
    # the probe feature is the ancilla Hadamard test's value
    assert abs(tr["feats"][0, -1] - hadamard_test(psi_out, m.probe)) < 1e-12


def test_forward_rejects_zero_latent():
    m = small_model()
    for layer in m.encoder:
        layer.w_real[:] = 0
        layer.w_imag[:] = 0
        layer.b_real[:] = 0
        layer.b_imag[:] = 0
    with pytest.raises(ValueError):
        forward(m, np.zeros(INPUT_DIM), 1)


def test_loss_components_blend():
    rng = np.random.default_rng(2)
    m = small_model()
    x_t = rng.standard_normal(INPUT_DIM)
    target = rng.uniform(0, 1, INPUT_DIM)
    mse0, infid0 = loss_components(m, x_t, 2, target, lam=0.0)
    assert infid0 == 0.0
    mse, infid = loss_components(m, x_t, 2, target, lam=0.5)
    assert mse == pytest.approx(mse0, abs=1e-12)
    assert 0.0 <= infid <= 1.0
    blended = loss(m, x_t, 2, target, lam=0.5)
    assert blended == pytest.approx(0.5 * mse + 0.5 * infid, abs=1e-12)


def test_gradient_audit_all_groups_pass():
    rng = np.random.default_rng(3)
    m = small_model()
    batch = small_batch(rng)
    report = gradient_audit(m, batch, lam=0.3, n_probe=6, seed=4)
    assert set(report) == set(PARAM_GROUPS)
    for group, err in report.items():
        assert err < 1e-4, (group, err)


def test_gradient_audit_catches_sign_fault():
    rng = np.random.default_rng(5)
    m = small_model()
    batch = small_batch(rng)
    report = gradient_audit(m, batch, lam=0.3, n_probe=6, seed=4,
                            fault_group="decoder")
    assert report["decoder"] > 1e-4
    with pytest.raises(ValueError):
        gradient_audit(m, batch, fault_group="nonsense")


def test_zero_decoder_with_lam_zero_kills_upstream_gradients():
    rng = np.random.default_rng(6)
    m = small_model()
    for layer in m.decoder:
        layer.w[:] = 0.0
    _, grads = backward(m, small_batch(rng), lam=0.0)
    assert list(grads) == [name for name, _ in param_tensors(m)]
    for name, g in grads.items():
        if not name.startswith("decoder."):
            assert np.max(np.abs(g)) == 0.0, name
    # the decoder bias still moves the mean-squared error
    assert np.max(np.abs(grads["decoder.1.b"])) > 0.0


def test_lam_one_gives_zero_decoder_gradients():
    rng = np.random.default_rng(7)
    m = small_model()
    _, grads = backward(m, small_batch(rng), lam=1.0)
    for name, g in grads.items():
        if name.startswith("decoder."):
            assert np.max(np.abs(g)) == 0.0, name
    assert np.max(np.abs(grads["theta"])) > 0.0


def test_adam_step_matches_reference_formula():
    m = small_model()
    opt = init_adam(m)
    _, grads = backward(m, small_batch(np.random.default_rng(8)), lam=0.25)
    before = [arr.copy() for _, arr in param_tensors(m)]
    g_arrays = [grads[name].copy() for name, _ in param_tensors(m)]
    adam_step(m, grads, opt, lr=0.01)
    after = [arr for _, arr in param_tensors(m)]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for x0, x1, g in zip(before, after, g_arrays):
        m_hat = ((1 - b1) * g) / (1 - b1)
        v_hat = ((1 - b2) * g * g) / (1 - b2)
        expect = x0 - 0.01 * m_hat / (np.sqrt(v_hat) + eps)
        assert np.max(np.abs(x1 - expect)) < 1e-12
    assert opt.step == 1


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


def test_train_rejects_bad_dataset_and_config():
    with pytest.raises(ValueError):
        train(small_model(), TrainConfig(), np.zeros((0, INPUT_DIM)))
    with pytest.raises(ValueError):
        train(small_model(), TrainConfig(), np.zeros((4, 10)))
    with pytest.raises(ValueError):
        TrainConfig(lam=1.5)
    with pytest.raises(ValueError):
        TrainConfig(target_mode="zigzag")


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
    save_checkpoint(path, half, opt, state_rng.bit_generator.state, step=len(log_a))
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
    save_checkpoint(path, m)
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
    save_checkpoint(path, small_model(5))
    raw = path.read_bytes()
    (tmp_path / "nan.qdc").write_bytes(raw[:-8] + struct.pack("<d", np.nan))
    with pytest.raises(ValueError, match="decoder.1.b"):
        load_checkpoint(tmp_path / "nan.qdc")


def test_checkpoint_load_draws_no_weights(tmp_path, monkeypatch):
    m = small_model(5)
    path = tmp_path / "ck.qdc"
    save_checkpoint(path, m)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random weights")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = load_checkpoint(path)["model"]
    assert loaded.hyper == m.hyper
    for (_, a), (_, b) in zip(param_tensors(m), param_tensors(loaded)):
        assert np.array_equal(a, b)


def _with_header(raw, header):
    """The checkpoint bytes `raw` with its JSON header replaced by `header`."""
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    head = json.dumps(header).encode()
    return raw[:8] + struct.pack("<Q", len(head)) + head + raw[16 + hlen:]


def test_checkpoint_rejects_incomplete_header(tmp_path):
    m = small_model(5)
    path = tmp_path / "ck.qdc"
    save_checkpoint(path, m)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16: 16 + hlen])
    broken = [[1, 2, 3], "hyper", {"hyper": [], "shapes": [], "has_adam": False}]
    for key in ("hyper", "shapes", "has_adam"):
        broken.append({k: v for k, v in header.items() if k != key})
    for key in ("n_qubits", "k", "t_steps", "lr", "lam", "hidden_enc", "hidden_dec",
                "ansatz_layers"):
        broken.append(dict(header, hyper={k: v for k, v in header["hyper"].items()
                                          if k != key}))
    broken.append(dict(header, hyper=dict(header["hyper"], n_qubits=5)))
    for i, bad in enumerate(broken):
        (tmp_path / f"bad{i}.qdc").write_bytes(_with_header(raw, bad))
        with pytest.raises(ValueError, match="corrupt checkpoint header"):
            load_checkpoint(tmp_path / f"bad{i}.qdc")
    (tmp_path / "same.qdc").write_bytes(_with_header(raw, header))
    load_checkpoint(tmp_path / "same.qdc")
    seedless = dict(header, hyper={k: v for k, v in header["hyper"].items() if k != "seed"})
    (tmp_path / "seedless.qdc").write_bytes(_with_header(raw, seedless))
    load_checkpoint(tmp_path / "seedless.qdc")


def test_sample_trajectory_shape_and_determinism():
    m = small_model(6)
    traj = sample(m, t_steps=5, seed=12)
    assert len(traj) == 6
    assert all(step.shape == (INPUT_DIM,) for step in traj)
    again = sample(m, t_steps=5, seed=12)
    for a, b in zip(traj, again):
        assert np.array_equal(a, b)
    other = sample(m, t_steps=5, seed=13)
    assert not np.array_equal(traj[0], other[0])


def test_sample_other_modes_accept_schedule():
    m = small_model(7)
    sched = linear_schedule(5, 1e-4, 0.02)
    for mode in ("eps", "x0"):
        traj = sample(m, t_steps=5, seed=1, mode=mode, sched=sched)
        assert len(traj) == 6
        assert np.all(np.isfinite(traj[-1]))


def test_sample_rejects_unknown_mode():
    with pytest.raises(ValueError, match="zigzag"):
        sample(small_model(7), t_steps=5, seed=1, mode="zigzag")


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
        oracle = np.concatenate([ano_features(psi, m.bank), [hadamard_test(psi, m.probe)]])
        assert np.max(np.abs(tr["feats"][b] - oracle)) < 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_batched_backward_is_the_mean_of_single_row_calls(lam):
    rng = np.random.default_rng(21)
    m = small_model(4)
    batch = small_batch(rng, n=4)
    total, grads = backward(m, batch, lam)
    singles = [backward(m, [row], lam) for row in batch]
    assert total == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12, abs=0.0)
    for name, g in grads.items():
        mean = np.mean([s[1][name] for s in singles], axis=0)
        scale = max(np.max(np.abs(mean)), 1e-300)
        assert np.max(np.abs(g - mean)) <= 1e-12 * scale, name


def test_batch_losses_agree_with_backward():
    rng = np.random.default_rng(22)
    m = small_model(5)
    batch = small_batch(rng, n=3)
    total, _ = backward(m, batch, 0.4)
    per_row = [loss(m, x_t, t, target, 0.4) for x_t, t, target in batch]
    assert total == pytest.approx(np.mean(per_row), rel=1e-12)


# ---------------------------------------------------------------------------
# boundary errors of the batched path

def test_backward_rejects_misshapen_target_naming_its_row():
    batch = small_batch(np.random.default_rng(23), n=3)
    x_t, t, target = batch[2]
    batch[2] = (x_t, t, target[:-1])
    with pytest.raises(ValueError, match=r"target.*\(255,\).*batch index 2"):
        backward(small_model(), batch, 0.25)
    with pytest.raises(ValueError, match=r"target.*\(255,\)"):
        loss(small_model(), x_t, t, target[:-1], 0.25)


def test_backward_rejects_misshapen_input_naming_its_row():
    batch = small_batch(np.random.default_rng(24), n=2)
    x_t, t, target = batch[1]
    batch[1] = (np.zeros((16, 16)), t, target)
    with pytest.raises(ValueError, match=r"input.*\(16, 16\).*batch index 1"):
        backward(small_model(), batch, 0.25)


def test_timesteps_must_be_integers_in_range():
    m = small_model()
    x_t = np.zeros(INPUT_DIM)
    target = np.zeros(INPUT_DIM)
    with pytest.raises(ValueError, match=r"timestep 1.5 .*batch index 0"):
        forward(m, x_t, 1.5)
    with pytest.raises(ValueError, match=r"timestep 6 .*0\.\.5"):
        forward(m, x_t, 6)
    forward(m, x_t, 0)  # the forward path accepts t = 0
    batch = [(x_t, 2, target), (x_t, 0, target)]
    with pytest.raises(ValueError, match=r"timestep 0 .*1\.\.5.*batch index 1"):
        backward(m, batch, 0.25)
    with pytest.raises(ValueError, match=r"timestep 0 .*1\.\.5"):
        loss(m, x_t, 0, target, 0.25)
    with pytest.raises(ValueError, match=r"timestep 2.5 "):
        loss_components(m, x_t, 2.5, target, 0.25)


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
            backward(m, [batch[0], (bad_x, t, target), batch[2]], 0.25)
        with pytest.raises(ValueError, match=r"non-finite target.*batch index 2"):
            backward(m, [batch[0], batch[1], (x_t, t, bad_target)], 0.25)
        with pytest.raises(ValueError, match=r"non-finite input"):
            forward(m, bad_x, t)


def test_zero_latent_names_its_batch_index():
    m = small_model()
    X = np.random.default_rng(26).standard_normal((3, INPUT_DIM))
    # with a zero first layer the latent is the second layer's bias alone
    for part in ("w_real", "w_imag", "b_real", "b_imag"):
        getattr(m.encoder[0], part)[:] = 0.0
    for part in ("b_real", "b_imag"):
        getattr(m.encoder[1], part)[:] = 0.0
    with pytest.raises(ValueError, match=r"all zero.*batch index 0"):
        forward_trace(m, X, [1, 2, 3])
