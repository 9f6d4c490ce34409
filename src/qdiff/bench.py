"""Circuit-quality descriptors and a pixel-space generation metric.

Expressibility bins a circuit's sampled state-overlap fidelities, one array,
into N_BINS uniform bins on [0, 1] and takes the KL divergence of that
histogram from the Haar fidelity law P(F) = (N-1)(1-F)^(N-2), integrated
over each bin. Entangling capability averages the Meyer-Wallach measure over
uniformly drawn parameters. The Frechet distance between Gaussian fits of
two sample sets stands in for feature-space FID at desk scale.

Every parameter draw is one column of a (2^n, N) block that one run_block
call simulates, with per-column angles; the per-state meyer_wallach and
bloch_points_of_state stay as the definitions the block reductions are
tested against. Sample counts and Hilbert dimensions are integers, checked
before any draw.
"""
from __future__ import annotations

import numpy as np

from .circuit import ParamCircuit, effective_angles, run_block
from .circuit import run_with_angles  # unused here; perfbench/spans.py's tracer wraps this name
from .qcore import (DensityMatrix, PAULI_X, PAULI_Y, PAULI_Z, StateVector, _check_int,
                    partial_trace, purity, sqrtm_psd)

N_BINS = 75
FRECHET_EPS = 1e-6
# Complex entries per simulated block (4 MB of complex128): a column holds
# its 2^n amplitudes and a 2x2 matrix per rotation bound to a parameter,
# since run_block builds every such rotation's (B, 2, 2) stack at once (a
# fixed-angle rotation has one 2x2 matrix for all columns). A per-draw
# rotation costs each column 2 complex multiplies and 1 add per amplitude,
# elementwise, with no call of its own; an RZ or PHASE costs it 1 multiply.
# The second product fills the whole scratch array, so run_block's second
# work block and that scratch array bring the peak to about 3 x BLOCK_AMPS
# entries, which tests/test_bench.py holds at n = 10. The draws are split
# into blocks of whole rows, so memory stays flat in the qubit count and the
# depth. Columns are independent, so the split changes no result.
BLOCK_AMPS = 2**18


def haar_pdf(f: float, n_dim: int) -> float:
    """Haar fidelity density (N-1)(1-F)^(N-2) on [0, 1]."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity {f} outside [0, 1]")
    _check_int("n_dim", n_dim, 2)
    return float((n_dim - 1) * (1.0 - f) ** (n_dim - 2))


def haar_bin_masses(n_dim: int) -> np.ndarray:
    """Exact Haar probability mass of each of the N_BINS uniform bins on [0, 1].

    The integral of the density over [lo, hi] is (1-lo)^(N-1) - (1-hi)^(N-1);
    integrating beats evaluating the pdf at bin centers, which is biased
    where the density decays fast.
    """
    _check_int("n_dim", n_dim, 2)
    edges = np.linspace(0.0, 1.0, N_BINS + 1)
    upper = (1.0 - edges) ** (n_dim - 1)
    return upper[:-1] - upper[1:]


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Exact Haar-random pure state: normalized complex Gaussian vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_fidelities(dim: int, n_pairs: int, seed: int) -> np.ndarray:
    """Calibration samples |<a|b>|^2 for exact-Haar pairs of dimension dim >= 2."""
    _check_int("dim", dim, 2)
    _check_int("n_pairs", n_pairs, 1)
    rng = np.random.default_rng(seed)
    out = np.empty(n_pairs)
    for i in range(n_pairs):
        a = haar_state(dim, rng)
        b = haar_state(dim, rng)
        out[i] = min(abs(np.vdot(a, b)) ** 2, 1.0)
    return out


def _reduce_final_states(c: ParamCircuit, psi0: StateVector, draws: np.ndarray, reduce):
    """reduce of the circuit on psi0 at every draw of an (N, k, n_params) array.

    The draws run as one (2^n, m * k) block per m consecutive rows, draw
    (i, j) of those rows in column i * k + j; a block holds at most
    BLOCK_AMPS complex entries, amplitudes and per-draw rotation matrices,
    or one row. reduce maps a block to one value per draw (or pair), and
    the values of all blocks are concatenated; only one block is alive at a
    time.
    """
    if psi0.n_qubits != c.n_qubits:
        raise ValueError(f"state has {psi0.n_qubits} qubits, circuit {c.n_qubits}")
    n_rows, k = draws.shape[:2]
    step = max(1, BLOCK_AMPS // (k * (psi0.dim + 4 * len(c.table.bound))))
    parts = []
    for lo in range(0, n_rows, step):
        rows = draws[lo:lo + step]
        flat = rows.reshape(len(rows) * k, c.n_params)
        # no reference kept here, so run_block frees the input after its first step
        parts.append(reduce(run_block(c, np.repeat(psi0.amps[:, None], len(flat), axis=1),
                                      effective_angles(c, flat))))
    return np.concatenate(parts)


def sample_fidelities(
    c: ParamCircuit, psi0: StateVector, n_pairs: int, seed: int, threads: int = 1
) -> np.ndarray:
    """|<psi_theta|psi_phi>|^2 for i.i.d. uniform parameter pairs in [0, 2pi).

    All random draws happen up front in one stream. threads changes neither
    the results nor the work done: the CLI never passes it, and only the
    benchmark's workload does (threads=1).
    """
    _check_int("n_pairs", n_pairs, 1)
    rng = np.random.default_rng(seed)
    params = rng.uniform(0.0, 2.0 * np.pi, size=(n_pairs, 2, c.n_params))
    # column-wise vdot of each pair's two states, adjacent columns of a block
    overlaps = _reduce_final_states(
        c, psi0, params, lambda out: np.einsum("ij,ij->j", out[:, 0::2].conj(), out[:, 1::2]))
    return np.minimum(np.abs(overlaps) ** 2, 1.0)


def expressibility(fids, n_dim: int) -> float:
    """KL divergence of the binned fidelity sample against the Haar masses.

    A bin whose Haar mass underflows to 0 (the top bins from N = 2^8 on) takes its
    log-mass from the closed form, (N-1) log(1-lo) + log1p(-((1-hi)/(1-lo))^(N-1));
    every other bin's term is p log(p/q).
    """
    _check_int("n_dim", n_dim, 2)
    fids = np.asarray(fids, dtype=float)
    if len(fids) == 0:
        raise ValueError("expressibility needs at least one fidelity sample")
    bad = ~((fids >= 0.0) & (fids <= 1.0))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"fidelity {float(fids[i])!r} at index {i} is not in [0, 1]")
    p = np.histogram(fids, bins=N_BINS, range=(0.0, 1.0))[0] / len(fids)
    q = haar_bin_masses(n_dim)
    bins = np.flatnonzero(p > 0)
    p, q = p[bins], q[bins]
    log_ratio = np.empty(len(bins))
    ok = q > 0.0
    log_ratio[ok] = np.log(p[ok] / q[ok])
    tail = 1.0 - np.linspace(0.0, 1.0, N_BINS + 1)  # 1 - each bin edge
    a, b = tail[bins[~ok]], tail[bins[~ok] + 1]  # 1 - lo and 1 - hi of each underflowed bin
    log_ratio[~ok] = np.log(p[~ok]) - ((n_dim - 1) * np.log(a) + np.log1p(-(b / a) ** (n_dim - 1)))
    return float(np.sum(p * log_ratio))


def meyer_wallach(psi: StateVector) -> float:
    """Q = (4/n) sum_k (1 - Tr rho_k^2)/2 over single-qubit reductions."""
    n = psi.n_qubits
    if n < 2:
        raise ValueError("entanglement measure needs at least 2 qubits")
    rho = DensityMatrix(np.outer(psi.amps, psi.amps.conj()))
    total = sum(1.0 - purity(partial_trace(rho, k)) for k in range(n))
    return float(min(max(2.0 * total / n, 0.0), 1.0))


def qubit_reductions(block: np.ndarray) -> np.ndarray:
    """Every column's n single-qubit reduced density matrices, (B, n, 2, 2).

    block is (2^n, B), qubit 0 the most significant bit, as in partial_trace:
    rho_k = M M^dag with M the column's amplitudes as (qubit k, other wires).
    """
    dim, b = block.shape
    n = dim.bit_length() - 1
    t = block.reshape((2,) * n + (b,))
    out = np.empty((b, n, 2, 2), dtype=complex)
    for k in range(n):
        m = np.ascontiguousarray(np.moveaxis(t, (n, k), (0, 1)).reshape(b, 2, -1))
        out[:, k] = m @ m.conj().transpose(0, 2, 1)
    return out


def meyer_wallach_values(rhos: np.ndarray) -> np.ndarray:
    """meyer_wallach of every column, from its qubit_reductions."""
    n = rhos.shape[1]
    if n < 2:
        raise ValueError("entanglement measure needs at least 2 qubits")
    purities = np.sum(np.abs(rhos) ** 2, axis=(2, 3))
    return np.clip(2.0 * np.sum(1.0 - purities, axis=1) / n, 0.0, 1.0)


def bloch_values(rhos: np.ndarray, qubit: int) -> np.ndarray:
    """bloch_points_of_state of every column, one (x, y, z) row each."""
    if not 0 <= qubit < rhos.shape[1]:
        raise ValueError(f"qubit {qubit} out of range")
    rho = rhos[:, qubit]
    return np.stack([np.einsum("bij,ji->b", rho, p).real for p in (PAULI_X, PAULI_Y, PAULI_Z)],
                    axis=1)


def entangling_capability(
    c: ParamCircuit, psi0: StateVector, n_samples: int, seed: int, threads: int = 1
) -> float:
    """Mean Meyer-Wallach Q over uniform [0, 2pi) parameter draws.

    threads changes neither the result nor the work done: the CLI never
    passes it, and only the benchmark's workload does (threads=1).
    """
    _check_int("n_samples", n_samples, 1)
    rng = np.random.default_rng(seed)
    params = rng.uniform(0.0, 2.0 * np.pi, size=(n_samples, c.n_params))
    qs = _reduce_final_states(c, psi0, params[:, None],
                              lambda out: meyer_wallach_values(qubit_reductions(out)))
    return float(np.mean(qs))


def bloch_points_of_state(amps, qubit: int) -> list:
    """(x, y, z) Bloch coordinates of one qubit's reduced state."""
    amps = np.asarray(amps, dtype=complex)
    rho = partial_trace(DensityMatrix(np.outer(amps, amps.conj())), qubit)
    return [
        float(np.trace(rho.mat @ PAULI_X).real),
        float(np.trace(rho.mat @ PAULI_Y).real),
        float(np.trace(rho.mat @ PAULI_Z).real),
    ]


def bloch_points(
    c: ParamCircuit, psi0: StateVector, qubit: int, n_samples: int, seed: int, threads: int = 1
) -> np.ndarray:
    """Bloch coordinates of one qubit, one row per parameter draw.

    threads changes neither the result nor the work done: the CLI never
    passes it, and only the benchmark's workload does (threads=1).
    """
    _check_int("n_samples", n_samples, 1)
    if not 0 <= qubit < c.n_qubits:  # before any draw is simulated
        raise ValueError(f"qubit {qubit} out of range")
    rng = np.random.default_rng(seed)
    params = rng.uniform(0.0, 2.0 * np.pi, size=(n_samples, c.n_params))
    return _reduce_final_states(c, psi0, params[:, None],
                                lambda out: bloch_values(qubit_reductions(out), qubit))


def frechet_gaussian(set_a, set_b) -> float:
    """Frechet distance between Gaussian fits of two sample sets.

    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a^1/2 S_b S_a^1/2)^1/2), with
    a small diagonal ridge on both covariances so degenerate sample sets
    stay well-posed.
    """
    a = np.asarray(set_a, dtype=float)
    b = np.asarray(set_b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("need two 2-d sample sets with equal feature dims")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValueError("need at least two samples per set")
    for name, x in (("set_a", a), ("set_b", b)):
        bad = ~np.all(np.isfinite(x), axis=1)
        if np.any(bad):
            raise ValueError(f"{name} row {int(np.argmax(bad))} is not finite")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    dim = a.shape[1]
    ridge = FRECHET_EPS * np.eye(dim)
    cov_a = np.atleast_2d(np.cov(a, rowvar=False)) + ridge
    cov_b = np.atleast_2d(np.cov(b, rowvar=False)) + ridge
    root_a = sqrtm_psd(cov_a)
    cross = sqrtm_psd(root_a @ cov_b @ root_a)
    diff = mu_a - mu_b
    val = float(diff @ diff + np.trace(cov_a + cov_b - 2.0 * cross).real)
    return max(val, 0.0)


def fidelities_csv(fids) -> str:
    lines = ["fidelity"] + [repr(float(f)) for f in np.asarray(fids, dtype=float)]
    return "\n".join(lines) + "\n"


def bloch_csv(points) -> str:
    lines = ["x,y,z"]
    for x, y, z in np.asarray(points, dtype=float):
        lines.append(f"{float(x)!r},{float(y)!r},{float(z)!r}")
    return "\n".join(lines) + "\n"
