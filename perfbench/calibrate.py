"""Fixed reference work that tracks how fast the machine runs at the moment.

On a shared virtual machine the speed of one core drifts with the load of
other tenants: on the 2-vCPU VM this benchmark was written on, the same
`sample` op took 25 ms in one minute and 46 ms a few minutes later, with no
steal time reported. run.py divides every measured time by this kernel's
time, measured in the same process between ops, and multiplies by
REFERENCE_S, so the reported times are in milliseconds at one fixed machine
speed. The kernel mixes the three kinds of work a qdiff op does: small-array
numpy calls on a 16-amplitude state, matrix-vector products of the
encoder's and decoder's sizes, and plain interpreter work. It depends on
numpy alone, never on qdiff, so no change to qdiff can move it.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference machine state (seconds).
REFERENCE_S = 3.5e-3

_rng = np.random.default_rng(12345)
_GATES = [np.linalg.qr(_rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2)))[0]
          for _ in range(8)]
_W_ENC = _rng.standard_normal((64, 257)) + 1j * _rng.standard_normal((64, 257))
_X_ENC = _rng.standard_normal(257) + 0j
_W_DEC = _rng.standard_normal((256, 273))
_X_DEC = _rng.standard_normal(273)


def _kernel() -> None:
    v = np.zeros(16, dtype=complex)
    v[0] = 1.0
    for r in range(20):
        for q in range(4):
            t = np.moveaxis(v.reshape([2] * 4), q, 0).reshape(2, -1)
            t = _GATES[(r + q) % 8] @ t
            v = np.moveaxis(t.reshape([2] * 4), 0, q).reshape(-1)
    for _ in range(20):
        _W_ENC @ _X_ENC
        h = _W_DEC @ _X_DEC
        np.where(h > 0, h, 0.01 * h)
    d = {}
    for i in range(3000):
        d[i % 97] = (i, float(i) * 0.5)


def calibrate(repeats: int = 1) -> float:
    """Median seconds of `repeats` kernel passes."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
