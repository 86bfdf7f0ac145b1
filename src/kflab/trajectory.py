"""Uniformly sampled space-time trajectories and the modulation transform.

A trajectory holds phase-space slices on a symmetric window [-T, T].
The modulation variable tau' = tau + n.v is resolved by a demodulated
time-DFT: each (n, v) line is moved to the interaction frame (multiply
by exp(+i t n.v)) before the DFT, so the free evolution sits exactly at
tau' = 0 and the Nyquist limit depends only on the window sampling, not
on the size of n.v.  Samples carry square-root trapezoid weights so the
discrete Parseval identity reproduces the trapezoid time integral.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec, PhaseField
from .propagator import _free_flow

__all__ = [
    "Trajectory",
    "make_trajectory",
    "sample_free_evolution",
    "duhamel_integral",
    "time_dft",
    "time_idft",
    "max_bracket",
]


@dataclass
class Trajectory:
    """Uniform time samples of a phase-space field on [-t_half, t_half].

    ``data[j]`` is the slice at ``times[j]``; ``cutoff`` records which
    time cutoff has been applied ("none", "psi", or "psi_T").
    """

    grid: GridSpec
    t_half: float
    data: np.ndarray
    cutoff: str = "none"

    def __post_init__(self):
        if self.data.ndim != 2 * self.grid.d + 1:
            raise ValueError("data must be (samples,) + grid shape")
        if self.data.shape[1:] != self.grid.shape:
            raise ValueError("slice shape does not match grid")
        if self.data.shape[0] < 2:
            raise ValueError("need at least 2 time samples")
        if self.t_half <= 0:
            raise ValueError("t_half must be positive")
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def dt(self) -> float:
        return 2.0 * self.t_half / (self.n_samples - 1)

    @property
    def times(self) -> np.ndarray:
        return -self.t_half + self.dt * np.arange(self.n_samples)

    def slice_field(self, j: int) -> PhaseField:
        return PhaseField(self.grid, self.data[j])

    def copy(self) -> "Trajectory":
        return replace(self, data=self.data.copy())

    def sup_l2(self) -> float:
        """sup over samples of the slice l2_n L2_v norm."""
        dvd = self.grid.dv**self.grid.d
        axes = tuple(range(1, 2 * self.grid.d + 1))
        return float(np.sqrt(dvd * np.max(np.sum(np.abs(self.data) ** 2, axis=axes))))


def make_trajectory(grid: GridSpec, t_half: float, n_samples: int) -> Trajectory:
    """Zero trajectory of n_samples on [-t_half, t_half]."""
    data = np.zeros((n_samples,) + grid.shape, dtype=np.complex128)
    return Trajectory(grid, float(t_half), data)


def sample_free_evolution(phi: PhaseField, t_half: float, n_samples: int) -> Trajectory:
    """Trajectory of the free flow S(t) phi on the window."""
    traj = make_trajectory(phi.grid, t_half, n_samples)
    _free_flow(phi.data, phi.grid, traj.times, out=traj.data)
    return traj


def _trapz_weights(n: int, dt: float) -> np.ndarray:
    """Trapezoid weights of n samples spaced dt."""
    w = np.full(n, dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _tau_grid(n: int, dt: float) -> np.ndarray:
    """The tau-grid of the time-DFT of n samples spaced dt, FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=dt)


def time_dft(traj: Trajectory) -> tuple:
    """Demodulated weighted time-DFT.

    Returns (tau, U): tau is the modulation grid tau' = tau + n.v in FFT
    order, U has shape (n_samples,) + grid.shape.  Parseval:
    sum_k |U_k|^2 = trapezoid integral of |u(t)|^2 dt per (n, v).
    """
    g = traj.grid
    w = np.sqrt(_trapz_weights(traj.n_samples, traj.dt))
    ext = (...,) + (None,) * (2 * g.d)
    u = w[ext] * _free_flow(traj.data, g, -traj.times)
    big = np.fft.fft(u, axis=0) / np.sqrt(traj.n_samples)
    return _tau_grid(traj.n_samples, traj.dt), big


def time_idft(traj: Trajectory, coeffs: np.ndarray) -> Trajectory:
    """Exact inverse of time_dft, returning a trajectory with the same
    window and cutoff record."""
    g = traj.grid
    u = np.fft.ifft(coeffs, axis=0) * np.sqrt(traj.n_samples)
    w = np.sqrt(_trapz_weights(traj.n_samples, traj.dt))
    ext = (...,) + (None,) * (2 * g.d)
    u /= w[ext]
    return replace(traj, data=_free_flow(u, g, traj.times, out=u))


def duhamel_integral(forcing: Trajectory) -> Trajectory:
    """int_0^t S(t - t') F(t') dt' on the sample grid.

    Computed in the interaction frame: G(t) = S(-t) F(t), then a
    cumulative trapezoid from the central sample (t = 0 must be on the
    grid, so the sample count must be odd), then S(t) out front, both
    flows by _free_flow and the trapezoid as a cumsum of the half-sums,
    in one working array.  No time cutoff is applied here; callers
    multiply by psi as needed.
    """
    if forcing.n_samples % 2 == 0:
        raise ValueError("need an odd sample count (t = 0 on the grid)")
    g = forcing.grid
    cum = _free_flow(forcing.data, g, -forcing.times)
    half = forcing.dt * (cum[1:] + cum[:-1]) / 2.0
    cum[0] = 0.0
    np.cumsum(half, axis=0, out=cum[1:])
    cum -= cum[forcing.n_samples // 2].copy()
    return Trajectory(g, forcing.t_half, _free_flow(cum, g, forcing.times, out=cum))


def max_bracket(traj: Trajectory) -> float:
    """Largest resolvable bracket <tau'> on the trajectory's tau-grid."""
    tau_max = np.pi / traj.dt
    return float(np.hypot(1.0, tau_max))
