"""Classical Gaussian diffusion and its quantum depolarizing counterpart.

The classical side is a beta schedule with its running products alpha-bar_t,
and forward_sample returns the closed-form noised array x_t itself; the
quantum side replaces Gaussian noising with per-step depolarizing channels
on the same schedule, step s mixing with probability p_s = beta_s. Both are
running products of (1 - rate), so the t-fold channel keeps the share
alpha-bar_t of the state and mixes in the rest. Timesteps are 1-based: t runs over 1..T.
forward_sample noises one array at one t, or a (B, D) block with one t per row
(a training batch in one call), each row's bits those of its own call. The
model's forward (t in 0..T) and loss (1..T) check their timesteps with check_timesteps too.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import DensityMatrix, _check_int, _is_int


def _check_timestep(t, t_min: int, t_max: int, where: str = "") -> None:
    """Timesteps are integers in t_min..t_max; a bool or a float such as 1.5 is refused."""
    if not _is_int(t) or not t_min <= t <= t_max:
        raise ValueError(f"timestep {t!r}{where} is not an integer in {t_min}..{t_max}")


def check_timesteps(ts, n_rows: int, t_min: int, t_max: int) -> np.ndarray:
    """ts as an int array of n_rows timesteps, each checked by _check_timestep naming its row."""
    if np.shape(ts) != (n_rows,):
        raise ValueError(f"expected {n_rows} timesteps, got shape {np.shape(ts)}")
    for row, t in enumerate(ts):
        _check_timestep(t, t_min, t_max, f" of row {row}")
    return np.asarray(ts, dtype=int)


@dataclass(frozen=True)
class NoiseSchedule:
    """Variance schedule beta_t with derived alpha_bar_t = prod(1 - beta_s)."""

    betas: np.ndarray
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        if betas.ndim != 1 or len(betas) < 1:
            raise ValueError("betas must be a non-empty 1-d vector")
        if not np.all((betas > 0) & (betas < 1)):  # a NaN fails both comparisons
            raise ValueError("every beta_t must be a finite number in (0, 1)")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", np.cumprod(1.0 - betas))

    @property
    def t_max(self) -> int:
        return len(self.betas)

    def beta(self, t: int) -> float:
        _check_timestep(t, 1, self.t_max)
        return float(self.betas[t - 1])

    def alpha_bar(self, t: int) -> float:
        _check_timestep(t, 1, self.t_max)
        return float(self.alpha_bars[t - 1])


def linear_schedule(t_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Linearly spaced betas, endpoints inclusive (the standard default)."""
    _check_int("t_steps", t_steps, 1)
    if not 0 < beta_start <= beta_end < 1:
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    return NoiseSchedule(np.linspace(beta_start, beta_end, t_steps))


def forward_sample(x0, t, sched: NoiseSchedule, eps) -> np.ndarray:
    """Closed-form forward jump, returning x_t = sqrt(ab_t) x0 + sqrt(1 - ab_t) eps.

    t is one timestep, or a (B,) block of them for a (B, D) x0, row b jumping to
    t[b]; each row then has the bits of the one-timestep call on it.
    """
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if eps.shape != x0.shape:
        raise ValueError(f"eps shape {eps.shape} != x0 shape {x0.shape}")
    if np.ndim(t) == 0:
        ab = sched.alpha_bar(t)
    else:
        if x0.ndim != 2 or np.shape(t) != (len(x0),):
            raise ValueError(f"a block of timesteps needs one per row of a (B, D) x0: got "
                             f"shape {np.shape(t)} for x0 of shape {x0.shape}")
        ab = sched.alpha_bars[check_timesteps(t, len(x0), 1, sched.t_max) - 1][:, None]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def depolarize_step(rho: DensityMatrix, p: float) -> DensityMatrix:
    """One application of the depolarizing channel: (1-p) rho + p I/d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    d = rho.dim
    return DensityMatrix((1.0 - p) * rho.mat + p * np.eye(d) / d)


def depolarize_closed(rho0: DensityMatrix, t: int, sched: NoiseSchedule) -> DensityMatrix:
    """t-fold depolarizing with p_s = beta_s in closed form: ab_t rho0 + (1 - ab_t) I/d."""
    a = sched.alpha_bar(t)
    d = rho0.dim
    return DensityMatrix(a * rho0.mat + (1.0 - a) * np.eye(d) / d)
