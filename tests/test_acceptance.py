"""Acceptance gate: ten end-to-end checks, one per release criterion.

Each test is numbered and self-contained so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion. Expected values come from
independent oracles computed inside each test, never from the code under test.
"""

import json
import time

import numpy as np

from qdiff import cli, model
from qdiff.bench import (
    entangling_capability,
    expressibility,
    frechet_gaussian,
    haar_fidelities,
    meyer_wallach,
    sample_fidelities,
)
from qdiff.circuit import (
    ParamCircuit,
    build_ansatz,
    circuit_unitary,
    cnot,
    phase,
    ry,
    rz,
    vw_block,
)
from qdiff.data import SyntheticSpec, mode_templates, nearest_mode, synth_modes
from qdiff.diffusion import NoiseSchedule, depolarize_closed, depolarize_step
from qdiff.encode import (
    encode_amplitude,
    encode_angle,
    encode_basis,
    encode_dense_angle,
    encode_phase,
)
from qdiff.measure import hadamard_test
from qdiff.qcore import DensityMatrix, StateVector, basis_state, expm_hermitian

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(v / np.linalg.norm(v))


def test_01_vw_block_synthesizes_heisenberg_interaction():
    start = time.perf_counter()
    c = ParamCircuit(2, tuple(vw_block(0, 1, (0, 1, 2))), 3)
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b, g = rng.uniform(-np.pi, np.pi, 3)
        u = circuit_unitary(c, np.array([a, b, g]))
        h = a * np.kron(X, X) + b * np.kron(Y, Y) + g * np.kron(Z, Z)
        target = expm_hermitian(h, -1.0)
        fid = abs(np.trace(u.conj().T @ target)) / 4.0
        assert fid > 1.0 - 1e-9
    assert time.perf_counter() - start < 1.0


def test_02_depolarizing_closed_form_matches_iteration():
    rng = np.random.default_rng(1)
    for _ in range(20):
        sched = NoiseSchedule(rng.uniform(0.0, 1.0, 10))
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = DensityMatrix((a @ a.conj().T) / np.trace(a @ a.conj().T))
        walker = rho
        for t in range(1, 11):
            walker = depolarize_step(walker, sched.betas[t - 1])
            closed = depolarize_closed(rho, t, sched)
            assert np.max(np.abs(walker.mat - closed.mat)) < 1e-12


def test_03_gradient_audit_every_parameter_group():
    start = time.perf_counter()
    m = model.init_model(0)
    t_steps = m.hyper["t_steps"]
    rng = np.random.default_rng(1)
    batch = [(rng.standard_normal(256), int(rng.integers(1, t_steps + 1)),
              rng.uniform(0.0, 1.0, 256)) for _ in range(2)]
    report = model.gradient_audit(m, batch, n_probe=20, seed=2)
    assert set(report) == {"encoder", "theta", "bank", "probe", "decoder"}
    for group, err in report.items():
        assert err < 1e-4, f"{group}: {err}"
    assert time.perf_counter() - start < 30.0


def test_04_hadamard_test_returns_real_overlap():
    rng = np.random.default_rng(2)
    for trial in range(100):
        n = 1 + trial % 3
        gates, refs = [], 0
        for q in range(n):
            gates += [ry(q, ref=refs), rz(q, ref=refs + 1)]
            refs += 2
        for q in range(n - 1):
            gates.append(cnot(q, q + 1))
        for q in range(n):
            gates.append(phase(q, ref=refs))
            refs += 1
        c = ParamCircuit(n, tuple(gates), refs)
        params = rng.uniform(-np.pi, np.pi, refs)
        psi = _random_state(2 ** n, rng)
        u = circuit_unitary(c, params)
        expected = float(np.real(psi.amps.conj() @ (u @ psi.amps)))
        assert abs(hadamard_test(psi, c, params) - expected) <= 1e-10


def _mw_oracle(amps):
    n = int(np.log2(len(amps)))
    tensor = amps.reshape((2,) * n)
    purities = []
    for q in range(n):
        m = np.moveaxis(tensor, q, 0).reshape(2, -1)
        rho = m @ m.conj().T
        purities.append(float(np.real(np.trace(rho @ rho))))
    return 2.0 * (1.0 - np.mean(purities))


def test_05_meyer_wallach_anchor_states():
    rng = np.random.default_rng(3)
    single = [_random_state(2, rng).amps for _ in range(3)]
    product = single[0]
    for s in single[1:]:
        product = np.kron(product, s)
    bell = np.zeros(4, dtype=complex)
    bell[0b00] = bell[0b11] = 1 / np.sqrt(2)
    ghz = np.zeros(8, dtype=complex)
    ghz[0b000] = ghz[0b111] = 1 / np.sqrt(2)
    w = np.zeros(8, dtype=complex)
    w[0b100] = w[0b010] = w[0b001] = 1 / np.sqrt(3)
    cases = [
        (basis_state(3, 5).amps, 0.0),
        (product, 0.0),
        (bell, 1.0),
        (ghz, 1.0),
        (w, 8.0 / 9.0),
    ]
    for amps, anchor in cases:
        q = meyer_wallach(StateVector(amps))
        assert abs(q - anchor) < 1e-10
        assert abs(q - _mw_oracle(amps)) < 1e-10


def test_06_expressibility_ordering_and_haar_calibration():
    start = time.perf_counter()
    psi0 = basis_state(4)
    n_pairs = 5000
    e_of = {}
    for label, circ in (("l3", build_ansatz(4, 3)),
                        ("l1", build_ansatz(4, 1)),
                        ("idle", ParamCircuit(4, (), 0))):
        fids = sample_fidelities(circ, psi0, n_pairs, seed=4)
        e_of[label] = expressibility(fids, 16)
    assert e_of["l3"] < e_of["l1"] < e_of["idle"]
    e_haar = expressibility(haar_fidelities(16, n_pairs, seed=5), 16)
    assert e_haar < 0.05
    assert time.perf_counter() - start < 120.0


def test_07_entangling_capability_separates_circuits():
    psi0 = basis_state(4)
    gates = []
    for q in range(4):
        gates += [ry(q, ref=2 * q), rz(q, ref=2 * q + 1)]
    rotations = ParamCircuit(4, tuple(gates), 8)
    assert entangling_capability(rotations, psi0, 1000, seed=6) < 1e-10
    assert entangling_capability(build_ansatz(4, 1), psi0, 1000, seed=6) > 0.5


def test_08_desk_scale_training_and_sampling():
    start = time.perf_counter()
    spec = SyntheticSpec(n_modes=2, pattern_seed=0, noise_sigma=0.05, per_mode=50)
    images = synth_modes(spec, seed=1).images
    m = model.init_model(0)
    tc = model.TrainConfig(max_steps=200, batch_size=8, lr=1e-3, seed=0)
    log, _, _ = model.train(m, tc, images)
    losses = np.array([row[1] for row in log])
    assert np.mean(losses[-20:]) <= 0.5 * np.mean(losses[:20])

    templates = mode_templates(spec)
    finals = np.array([model.sample(m, m.hyper["t_steps"], 1000 + j)[-1]
                       for j in range(50)])
    cosines = np.array([nearest_mode(img, templates)[1] for img in finals])
    assert np.mean(cosines > 0.8) >= 0.8

    noise = np.random.default_rng(7).standard_normal(finals.shape)
    assert frechet_gaussian(finals, images) < frechet_gaussian(noise, images)
    assert time.perf_counter() - start < 600.0


def test_09_encoding_suite_analytic_examples():
    start = time.perf_counter()
    s2 = 1 / np.sqrt(2)

    out = encode_basis([1, 0, 1]).amps
    expect = np.zeros(8)
    expect[0b101] = 1.0
    assert np.max(np.abs(out - expect)) < 1e-12

    out = encode_amplitude([3.0, 4.0], 1).amps
    assert np.max(np.abs(out - [0.6, 0.8])) < 1e-12
    out = encode_amplitude([1.0, 1.0, 1.0, 1.0], 2).amps
    assert np.max(np.abs(out - 0.5)) < 1e-12
    scaled = encode_amplitude([30.0, 40.0], 1).amps
    assert np.max(np.abs(scaled - [0.6, 0.8])) < 1e-12

    out = encode_angle([np.pi / 2, np.pi / 2]).amps
    assert np.max(np.abs(out - 0.5)) < 1e-12

    out = encode_phase([np.pi / 2]).amps
    assert np.max(np.abs(out - np.array([s2, 1j * s2]))) < 1e-12
    multi = encode_phase([0.3, 1.1, -0.4]).amps
    assert np.max(np.abs(np.abs(multi) - 2 ** -1.5)) < 1e-12

    out = encode_dense_angle([np.pi / 4, np.pi / 2]).amps
    assert np.max(np.abs(out - np.array([s2, 1j * s2]))) < 1e-12

    rng = np.random.default_rng(8)
    for kind_out in (encode_amplitude(rng.standard_normal(8), 3),
                     encode_angle(rng.uniform(0, np.pi, 3)),
                     encode_phase(rng.uniform(-np.pi, np.pi, 2)),
                     encode_dense_angle(rng.uniform(0, np.pi, 4))):
        assert abs(np.linalg.norm(kind_out.amps) - 1.0) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_10_cli_outputs_bitwise_deterministic(tmp_path):
    bench_args = ["--n-pairs", "500", "--mw-samples", "60",
                  "--bloch-samples", "25", "--seed", "9"]
    assert cli.main(["bench", "--out", str(tmp_path / "b1"),
                     "--threads", "1"] + bench_args) == 0
    assert cli.main(["bench", "--out", str(tmp_path / "b4"),
                     "--threads", "4"] + bench_args) == 0
    for name in ("report.json", "fidelities.csv", "bloch.csv"):
        one = (tmp_path / "b1" / name).read_bytes()
        four = (tmp_path / "b4" / name).read_bytes()
        assert one == four, name

    train_args = ["--per-mode", "5", "--max-steps", "6", "--batch-size", "4",
                  "--k", "4", "--t-steps", "5", "--hidden-enc", "8",
                  "--hidden-dec", "16", "--ansatz-layers", "1", "--seed", "9"]
    assert cli.main(["train", "--out", str(tmp_path / "t1"),
                     "--threads", "1"] + train_args) == 0
    assert cli.main(["train", "--out", str(tmp_path / "t4"),
                     "--threads", "4"] + train_args) == 0
    ck1 = (tmp_path / "t1" / "checkpoint.qdc").read_bytes()
    ck4 = (tmp_path / "t4" / "checkpoint.qdc").read_bytes()
    assert ck1 == ck4
    # wall-clock timing lives in its own trailing column; every other field
    # must agree byte for byte
    for line1, line4 in zip((tmp_path / "t1" / "log.csv").read_text().splitlines(),
                            (tmp_path / "t4" / "log.csv").read_text().splitlines()):
        assert line1.rsplit(",", 1)[0] == line4.rsplit(",", 1)[0]

    report = json.loads((tmp_path / "b1" / "report.json").read_text())
    assert report["seed"] == 9
