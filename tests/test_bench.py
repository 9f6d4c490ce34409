"""Expressibility, entangling capability, and distribution distances."""
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qdiff import bench, cli
from qdiff.bench import (
    N_BINS,
    bloch_csv,
    bloch_points,
    bloch_points_of_state,
    entangling_capability,
    expressibility,
    fidelities_csv,
    frechet_gaussian,
    haar_bin_masses,
    haar_fidelities,
    haar_pdf,
    haar_state,
    meyer_wallach,
    meyer_wallach_values,
    bloch_values,
    qubit_reductions,
    sample_fidelities,
)
from qdiff.circuit import ParamCircuit, build_ansatz, run_circuit, rx, ry, rz
from qdiff.qcore import StateVector, basis_state


def random_state(n, rng):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return StateVector(v / np.linalg.norm(v))


def test_haar_bin_masses_integrate_the_pdf():
    for dim in (2, 4, 16):
        masses = haar_bin_masses(dim)
        assert masses.shape == (N_BINS,)
        assert np.sum(masses) == pytest.approx(1.0, abs=1e-12)
        # numeric integration of the density over each bin
        edges = np.linspace(0.0, 1.0, N_BINS + 1)
        for b in range(0, N_BINS, 7):
            xs = np.linspace(edges[b], edges[b + 1], 4001)
            num = np.trapezoid([haar_pdf(x, dim) for x in xs], xs)
            assert masses[b] == pytest.approx(num, abs=1e-8)


def test_haar_state_properties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = haar_state(8, rng)
        assert abs(np.linalg.norm(s) - 1.0) < 1e-12
    fids = haar_fidelities(16, 4000, seed=1)
    assert np.all((fids >= 0) & (fids <= 1))
    # mean fidelity of Haar pairs is 1/N
    assert np.mean(fids) == pytest.approx(1 / 16, abs=0.01)


@pytest.mark.parametrize("n_pairs", [-1, 0, 2.5, True])
def test_haar_fidelities_need_an_integer_pair_count_of_at_least_one(n_pairs):
    """-1 failed inside numpy ("negative dimensions"), 0 returned an empty sample."""
    with pytest.raises(ValueError, match=r"n_pairs must be an integer >= 1"):
        haar_fidelities(16, n_pairs, seed=0)
    assert haar_fidelities(16, np.int64(1), seed=0).shape == (1,)


def test_haar_calibration_has_tiny_expressibility():
    fids = haar_fidelities(16, 3000, seed=2)
    assert expressibility(fids, 16) < 0.05


def test_idle_circuit_has_huge_expressibility():
    c = ParamCircuit(4, (), 0)
    fids = sample_fidelities(c, basis_state(4), 300, seed=3)
    assert np.all(fids == 1.0)
    assert expressibility(fids, 16) > 10.0


def test_single_qubit_fidelity_mean():
    c = ParamCircuit(1, (ry(0, ref=0), rz(0, ref=1)), 2)
    fids = sample_fidelities(c, basis_state(1), 4000, seed=4)
    assert np.mean(fids) == pytest.approx(0.5, abs=0.03)


def test_sample_fidelities_thread_determinism():
    c = build_ansatz(3, 1)
    a = sample_fidelities(c, basis_state(3), 200, seed=5, threads=1)
    b = sample_fidelities(c, basis_state(3), 200, seed=5, threads=4)
    assert np.array_equal(a, b)
    qa = entangling_capability(c, basis_state(3), 50, seed=6, threads=1)
    qb = entangling_capability(c, basis_state(3), 50, seed=6, threads=3)
    assert qa == qb


def test_meyer_wallach_anchors():
    # product state
    assert meyer_wallach(basis_state(3, 5)) == pytest.approx(0.0, abs=1e-10)
    bell = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
    assert meyer_wallach(bell) == pytest.approx(1.0, abs=1e-10)
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    assert meyer_wallach(StateVector(ghz)) == pytest.approx(1.0, abs=1e-10)
    w = np.zeros(8)
    w[1] = w[2] = w[4] = 1 / math.sqrt(3)
    assert meyer_wallach(StateVector(w)) == pytest.approx(8 / 9, abs=1e-10)


def brute_force_mw(psi):
    """Q from the definition: average single-qubit purity via explicit sums."""
    amps = psi.amps
    n = psi.n_qubits
    total = 0.0
    for keep in range(n):
        red = np.zeros((2, 2), dtype=complex)
        for i in range(2**n):
            for j in range(2**n):
                bi = [(i >> (n - 1 - q)) & 1 for q in range(n)]
                bj = [(j >> (n - 1 - q)) & 1 for q in range(n)]
                if all(bi[q] == bj[q] for q in range(n) if q != keep):
                    red[bi[keep], bj[keep]] += amps[i] * np.conj(amps[j])
        total += float(np.sum(np.abs(red) ** 2).real)
    return 2.0 * (1.0 - total / n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_meyer_wallach_matches_brute_force(n):
    rng = np.random.default_rng(30 + n)
    for _ in range(3):
        psi = random_state(n, rng)
        assert meyer_wallach(psi) == pytest.approx(brute_force_mw(psi), abs=1e-12)


def test_entangling_capability_rotations_vs_ansatz():
    gates = []
    for q in range(3):
        gates += [ry(q, ref=2 * q), rx(q, ref=2 * q + 1)]
    rot = ParamCircuit(3, tuple(gates), 6)
    assert entangling_capability(rot, basis_state(3), 100, seed=7) < 1e-10
    ans = build_ansatz(3, 1)
    assert entangling_capability(ans, basis_state(3), 100, seed=8) > 0.5


def test_bloch_points_shape_and_radius():
    c = build_ansatz(2, 1)
    pts = bloch_points(c, basis_state(2), 0, 40, seed=9)
    assert pts.shape == (40, 3)
    radii = np.linalg.norm(pts, axis=1)
    assert np.all(radii <= 1.0 + 1e-10)
    # pure single-qubit state sits on the sphere surface
    one = bloch_points_of_state(np.array([1.0, 0.0]), 0)
    assert one == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)


def test_bloch_points_interior_for_entangled_draws():
    c = build_ansatz(2, 2)
    pts = bloch_points(c, basis_state(2), 0, 60, seed=10)
    assert np.mean(np.linalg.norm(pts, axis=1)) < 0.9


def test_expressibility_bins_the_unit_interval():
    """N_BINS uniform bins on [0, 1]: 0.999 and the exact 1.0 both land in the top bin."""
    q = haar_bin_masses(16)
    p = {0: 0.25, int(0.5 * N_BINS): 0.25, N_BINS - 1: 0.5}
    expect = sum(pk * math.log(pk / q[k]) for k, pk in p.items())
    assert expressibility([0.0, 0.5, 0.999, 1.0], 16) == pytest.approx(expect, rel=1e-12)


def test_bench_report_validation_and_json(tmp_path, capsys, monkeypatch):
    """qdiff bench writes its four report keys in order with indent=2, and refuses a
    non-finite E or Qbar and a Qbar outside [0, 1] with exit 1, writing no report."""
    args = ["bench", "--n-pairs", "20", "--mw-samples", "4", "--bloch-samples", "2"]
    assert cli.main(args + ["--out", str(tmp_path / "ok"), "--seed", "7"]) == 0
    text = (tmp_path / "ok" / "report.json").read_text()
    report = json.loads(text)
    assert list(report) == ["expressibility", "entangling_capability", "n_samples", "seed"]
    assert (report["n_samples"], report["seed"]) == (20, 7)
    assert text == json.dumps(report, indent=2) + "\n"
    capsys.readouterr()
    for name, value, message in (("expressibility", float("nan"), "report fields must be finite"),
                                 ("entangling_capability", float("inf"),
                                  "report fields must be finite"),
                                 ("entangling_capability", 1.5,
                                  "entangling capability must lie in [0, 1]")):
        with monkeypatch.context() as patch:
            patch.setattr(cli.bench, name, lambda *a, **kw: value)
            out = tmp_path / f"{name}-{value}"
            assert cli.main(args + ["--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()


@pytest.mark.parametrize("n", [8, 12])
def test_idle_expressibility_survives_an_underflowing_haar_mass(n):
    """Every idle fidelity is 1, so E = -log q_top = (2^n - 1) ln N_BINS, although the top
    bin's Haar mass (1/N_BINS)^(2^n - 1) rounds to 0 from n = 8 on."""
    c = ParamCircuit(n, (), 0)
    fids = sample_fidelities(c, basis_state(n), 4, seed=0)
    assert haar_bin_masses(2**n)[-1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expressibility(fids, 2**n)
    assert got == pytest.approx((2**n - 1) * math.log(N_BINS), rel=1e-9)


def test_bench_idle_circuit_at_eight_qubits_exits_0(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["bench", "--out", str(tmp_path), "--circuit", "idle", "--n-qubits", "8",
                         "--n-pairs", "10", "--mw-samples", "2", "--bloch-samples", "2"])
    assert code == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["expressibility"] == pytest.approx(255 * math.log(N_BINS), rel=1e-9)


def test_frechet_identical_sets_is_zero():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((50, 6))
    assert frechet_gaussian(x, x) < 1e-6


def test_frechet_pure_mean_shift():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((80, 5))
    shift = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    got = frechet_gaussian(x, x + shift)
    assert got == pytest.approx(float(shift @ shift), abs=1e-6)


def test_frechet_diagonal_closed_form():
    # two sets with diagonal sample covariance in the same eigenbasis:
    # distance = |mu_a - mu_b|^2 + sum_i (sqrt(la_i) - sqrt(lb_i))^2
    def axis_set(scales, mu):
        d = len(scales)
        pts = []
        for i, s in enumerate(scales):
            e = np.zeros(d)
            e[i] = s
            pts += [mu + e, mu - e]
        return np.array(pts)

    a_sc = np.array([1.0, 2.0, 0.5])
    b_sc = np.array([0.3, 1.5, 2.5])
    mu_a = np.zeros(3)
    mu_b = np.array([0.4, -0.2, 1.0])
    a, b = axis_set(a_sc, mu_a), axis_set(b_sc, mu_b)
    la = np.diag(np.cov(a, rowvar=False)) + 1e-6
    lb = np.diag(np.cov(b, rowvar=False)) + 1e-6
    expect = float((mu_a - mu_b) @ (mu_a - mu_b) + np.sum((np.sqrt(la) - np.sqrt(lb)) ** 2))
    assert frechet_gaussian(a, b) == pytest.approx(expect, abs=1e-9)


def test_frechet_grows_with_noise_mismatch():
    rng = np.random.default_rng(13)
    real = rng.standard_normal((100, 4)) * 0.1
    near = rng.standard_normal((100, 4)) * 0.1
    far = rng.standard_normal((100, 4)) * 3.0
    assert frechet_gaussian(near, real) < frechet_gaussian(far, real)


@pytest.mark.parametrize("name,bad", [("set_a", np.nan), ("set_b", np.inf), ("set_b", -np.inf)])
def test_frechet_rejects_non_finite_samples(name, bad):
    rng = np.random.default_rng(14)
    sets = {"set_a": rng.standard_normal((6, 3)), "set_b": rng.standard_normal((5, 3))}
    sets[name][2, 1] = sets[name][4, 0] = bad
    with pytest.raises(ValueError, match=f"{name} row 2 is not finite"):
        frechet_gaussian(sets["set_a"], sets["set_b"])


def test_csv_round_trips():
    rng = np.random.default_rng(14)
    fids = rng.uniform(0, 1, 17)
    text = fidelities_csv(fids)
    lines = text.strip().splitlines()
    assert lines[0] == "fidelity"
    back = np.array([float(v) for v in lines[1:]])
    assert np.array_equal(back, fids)

    pts = rng.standard_normal((9, 3))
    lines = bloch_csv(pts).strip().splitlines()
    assert lines[0] == "x,y,z"
    back = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(back, pts)


def test_descriptors_reject_a_state_of_another_qubit_count():
    c, psi0 = build_ansatz(4, 1), basis_state(3)
    for run in (lambda: sample_fidelities(c, psi0, 4, seed=1),
                lambda: entangling_capability(c, psi0, 4, seed=1),
                lambda: bloch_points(c, psi0, 0, 4, seed=1)):
        with pytest.raises(ValueError, match="state has 3 qubits, circuit 4"):
            run()
    with pytest.raises(ValueError, match="qubit 4 out of range"):
        bloch_points(c, basis_state(4), 4, 4, seed=1)


@pytest.mark.parametrize("name,call", [
    ("n_pairs", lambda c, v: sample_fidelities(c, basis_state(2), v, 0)),
    ("n_samples", lambda c, v: entangling_capability(c, basis_state(2), v, 0)),
    ("n_samples", lambda c, v: bloch_points(c, basis_state(2), 0, v, 0)),
    ("dim", lambda c, v: haar_fidelities(v, 4, 0)),
], ids=["sample_fidelities", "entangling_capability", "bloch_points", "haar_fidelities"])
@pytest.mark.parametrize("value", [2.5, True, 4.0])
def test_sample_counts_are_integers_checked_before_any_draw(monkeypatch, name, call, value):
    """2.5 and 4.0 failed inside numpy with a TypeError, and True ran as 1."""
    calls = []
    monkeypatch.setattr(bench, "run_block", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=rf"{name} must be an integer >= \d, got {value!r}"):
        call(build_ansatz(2, 1), value)
    assert calls == []


def test_bloch_points_checks_the_qubit_before_simulating(monkeypatch):
    calls = []

    def counting_run_block(*args):
        calls.append(args)
        return run_block(*args)

    run_block = bench.run_block
    monkeypatch.setattr(bench, "run_block", counting_run_block)
    c = build_ansatz(4, 1)
    for qubit in (4, -1):
        with pytest.raises(ValueError, match=f"qubit {qubit} out of range"):
            bloch_points(c, basis_state(4), qubit, 4, seed=1)
    assert calls == []
    bloch_points(c, basis_state(4), 3, 4, seed=1)
    assert len(calls) == 1


@pytest.mark.parametrize("fids,bad", [([float("nan"), 0.5], "nan at index 0"),
                                      ([0.25, 1.5, 0.5], "1.5 at index 1"),
                                      ([0.5, -0.125], "-0.125 at index 1"),
                                      ([0.5, float("inf")], "inf at index 1")])
def test_expressibility_rejects_fidelities_outside_the_unit_interval(fids, bad):
    with pytest.raises(ValueError, match=f"fidelity {bad} is not in"):
        expressibility(fids, 16)


def test_sample_fidelities_peak_stays_within_three_blocks():
    """At n = 10 the transient peak of sample_fidelities stays within three
    times BLOCK_AMPS complex entries: one block of states with its per-draw
    rotation matrices, run_block's second work block and scratch array, and
    the pair reduction (2.85x measured)."""
    c, psi0 = build_ansatz(10, 1), basis_state(10)
    sample_fidelities(c, psi0, 2, 0)
    tracemalloc.start()
    try:
        sample_fidelities(c, psi0, 300, 0)  # three blocks of at most 111 pairs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * bench.BLOCK_AMPS * np.dtype(complex).itemsize


@pytest.mark.parametrize("n_dim", [1, 0, -3, 16.5])
def test_expressibility_needs_a_hilbert_dimension_of_two(n_dim):
    with pytest.raises(ValueError, match="n_dim must be an integer >= 2"):
        expressibility([0.25, 0.5], n_dim)
    with pytest.raises(ValueError, match="n_dim must be an integer >= 2"):
        haar_bin_masses(n_dim)


@pytest.mark.parametrize("n,layers", [(2, 2), (3, 1), (4, 2), (5, 1)])
def test_block_descriptors_match_per_state_oracles(n, layers):
    """Fidelities, Meyer-Wallach and Bloch values of a block against one
    simulation per draw with np.vdot, meyer_wallach and bloch_points_of_state."""
    c, psi0 = build_ansatz(n, layers), basis_state(n)
    pairs = np.random.default_rng(40 + n).uniform(0.0, 2.0 * np.pi, size=(30, 2, c.n_params))
    oracle = [abs(np.vdot(run_circuit(c, psi0, a).amps, run_circuit(c, psi0, b).amps)) ** 2
              for a, b in pairs]
    assert np.max(np.abs(sample_fidelities(c, psi0, 30, seed=40 + n) - oracle)) < 1e-12

    draws = np.random.default_rng(50 + n).uniform(0.0, 2.0 * np.pi, size=(30, c.n_params))
    states = [run_circuit(c, psi0, p) for p in draws]
    assert entangling_capability(c, psi0, 30, seed=50 + n) == pytest.approx(
        np.mean([meyer_wallach(s) for s in states]), abs=1e-12)
    pts = bloch_points(c, psi0, n - 1, 30, seed=50 + n)
    oracle = np.array([bloch_points_of_state(s.amps, n - 1) for s in states])
    assert np.max(np.abs(pts - oracle)) < 1e-12

    rng = np.random.default_rng(60 + n)
    states += [random_state(n, rng) for _ in range(10)] + [basis_state(n, 1)]
    rhos = qubit_reductions(np.stack([s.amps for s in states], axis=1))
    assert rhos.shape == (len(states), n, 2, 2)
    qs = meyer_wallach_values(rhos)
    for j, s in enumerate(states):
        assert abs(qs[j] - meyer_wallach(s)) < 1e-12
        for k in range(n):
            assert np.max(np.abs(bloch_values(rhos, k)[j] - bloch_points_of_state(s.amps, k))) < 1e-12
    with pytest.raises(ValueError, match="qubit 5 out of range"):
        bloch_values(rhos, 5)


def test_block_layout_pins_the_results(monkeypatch, tmp_path):
    """A draw's value does not depend on how many draws share its block, and
    a block's amplitudes and per-draw rotation matrices fit in BLOCK_AMPS
    entries."""
    c, psi0, s = build_ansatz(4, 2), basis_state(4), 21
    fids = sample_fidelities(c, psi0, 125, s)
    pts = bloch_points(c, psi0, 1, 125, s)
    qbar = entangling_capability(c, psi0, 125, s)
    assert np.array_equal(sample_fidelities(c, psi0, 40, s), fids[:40])
    assert np.array_equal(bloch_points(c, psi0, 1, 40, s), pts[:40])

    widths = []

    def recording_run_block(circ, block, angles):
        widths.append(block.shape[1])
        return run_block(circ, block, angles)

    run_block, budget = bench.run_block, bench.BLOCK_AMPS
    monkeypatch.setattr(bench, "run_block", recording_run_block)
    monkeypatch.setattr(bench, "BLOCK_AMPS", 3 * (16 + 4 * 26))  # 26 bound rotations
    assert np.array_equal(sample_fidelities(c, psi0, 125, s), fids)
    assert widths == [2] * 125  # one pair per block
    widths.clear()
    assert np.array_equal(bloch_points(c, psi0, 1, 125, s), pts)
    assert entangling_capability(c, psi0, 125, s) == qbar
    assert widths == 2 * ([3] * 41 + [2])

    # qdiff bench at its default sizes: 5000 pairs, 1000 + 200 single draws
    widths.clear()
    monkeypatch.setattr(bench, "BLOCK_AMPS", budget)
    assert cli.main(["bench", "--out", str(tmp_path)]) == 0
    n_bound = sum(g.param_ref is not None for g in build_ansatz(4, 1).gates)
    assert sum(widths) == 2 * 5000 + 1000 + 200 and len(widths) > 3
    assert all(w * (16 + 4 * n_bound) <= budget for w in widths)
