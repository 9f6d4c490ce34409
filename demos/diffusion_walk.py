"""Forward diffusion, two ways.

Classical: Gaussian noising of an image under a linear beta schedule.
Quantum: depolarizing channel pulling a Bell state toward the maximally
mixed state, with the closed form checked against step-by-step iteration.
"""

import numpy as np

from qdiff.data import SyntheticSpec, mode_templates
from qdiff.diffusion import (
    depolarize_closed,
    depolarize_step,
    forward_sample,
    linear_schedule,
)
from qdiff.qcore import DensityMatrix, StateVector, purity


def main():
    sched = linear_schedule(10, 1e-4, 0.02)
    print("=== linear beta schedule, T=10 ===")
    print("t    beta      alpha_bar  sqrt(1-ab)")
    for t in range(1, 11):
        ab = sched.alpha_bar(t)
        print(f"{t:<4d} {sched.betas[t - 1]:.6f}  {ab:.6f}   {np.sqrt(1 - ab):.6f}")

    print("\n=== noising one synthetic image ===")
    img = mode_templates(SyntheticSpec())[0]
    rng = np.random.default_rng(0)
    for t in (1, 5, 10):
        eps = rng.standard_normal(img.size)
        x_t = forward_sample(img, t, sched, eps)
        drift = np.linalg.norm(x_t - img) / np.linalg.norm(img)
        print(f"t={t:<3d} relative distortion {drift:.4f}")

    print("\n=== depolarizing a Bell state ===")
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = DensityMatrix(np.outer(bell, bell.conj()))
    print("t    alpha(t)   purity")
    for t in (1, 3, 5, 10):
        rho_t = depolarize_closed(rho, t, sched)
        print(f"{t:<4d} {sched.alpha_bar(t):.6f}   {purity(rho_t):.6f}")
    print("(purity 0.25 would be the fully mixed 2-qubit state)")

    print("\n=== closed form vs iterating the channel ===")
    walker = rho
    worst = 0.0
    for t in range(1, 11):
        walker = depolarize_step(walker, sched.betas[t - 1])
        closed = depolarize_closed(rho, t, sched)
        worst = max(worst, np.max(np.abs(walker.mat - closed.mat)))
    print(f"max entry difference over all t: {worst:.2e}")

    # long-run limit: crank the channel far past T and watch it forget
    long_sched = linear_schedule(200, 1e-4, 0.05)
    end = depolarize_closed(rho, 200, long_sched)
    print(f"\nafter 200 aggressive steps, purity = {purity(end):.6f}")

    # the same evolution applied to an already-mixed state is a fixed point
    mixed = DensityMatrix(np.eye(4) / 4)
    out = depolarize_closed(mixed, 200, long_sched)
    print(f"maximally mixed input stays put: {np.max(np.abs(out.mat - mixed.mat)):.2e}")

    psi = StateVector(bell)
    print(f"\nfor reference, the pure Bell state has purity {purity(DensityMatrix(np.outer(psi.amps, psi.amps.conj()))):.1f}")


if __name__ == "__main__":
    main()
