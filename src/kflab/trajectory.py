"""Uniformly sampled space-time trajectories and the modulation transform.

A trajectory holds phase-space slices on a symmetric window [-T, T].
The modulation variable tau' = tau + n.v is resolved by a demodulated
time-DFT: each (n, v) line is moved to the interaction frame (multiply
by exp(+i t n.v)) before the DFT, so the free evolution sits exactly at
tau' = 0 and the Nyquist limit depends only on the window sampling, not
on the size of n.v.  Samples carry square-root trapezoid weights so the
discrete Parseval identity reproduces the trapezoid time integral.  The
Duhamel integral is a different quadrature: a fourth-order 4-point rule
on the interaction-frame forcing (duhamel_integral).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    ``data[j]`` is the slice at ``times[j]``.  Whether a time cutoff has
    been applied is read from the data (norms.xsb_norm), not recorded.
    """

    grid: GridSpec
    t_half: float
    data: np.ndarray

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

    def within(self, t_limit: float) -> np.ndarray:
        """Indices of the samples with |t| <= t_limit (to rounding): the
        window of an L2_T or sup_T norm; t_limit = t_half keeps them all."""
        return np.flatnonzero(np.abs(self.times) <= t_limit + 1e-12)

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


def _trapz_l2(sq_norms, dt: float) -> float:
    """sqrt of the trapezoid time integral of per-slice squared norms
    spaced dt, the weights taken over that run of slices (an L2_T norm
    over Trajectory.within(T)).  A running float sum in sample order,
    which the reported digits depend on."""
    total = 0.0
    for w, q in zip(_trapz_weights(len(sq_norms), dt), sq_norms):
        total += w * q
    return float(np.sqrt(total))


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
    # one window-sized array, weighted, transformed and scaled in place
    u = _free_flow(traj.data, g, -traj.times)
    u *= w[ext]
    np.fft.fft(u, axis=0, out=u)
    u /= np.sqrt(traj.n_samples)
    return _tau_grid(traj.n_samples, traj.dt), u


def time_idft(traj: Trajectory, coeffs: np.ndarray) -> Trajectory:
    """Exact inverse of time_dft, on the same window."""
    g = traj.grid
    u = np.fft.ifft(coeffs, axis=0) * np.sqrt(traj.n_samples)
    w = np.sqrt(_trapz_weights(traj.n_samples, traj.dt))
    ext = (...,) + (None,) * (2 * g.d)
    u /= w[ext]
    return Trajectory(g, traj.t_half, _free_flow(u, g, traj.times, out=u))


def duhamel_integral(forcing: Trajectory) -> Trajectory:
    """int_0^t S(t - t') F(t') dt' on the sample grid.

    Computed in the interaction frame: G(t) = S(-t) F(t), integrated
    interval by interval with the cubic through four neighbouring
    samples, dt/24 (-G_{j-1} + 13 G_j + 13 G_{j+1} - G_{j+2}) on
    [t_j, t_{j+1}], and the one-sided dt/24 (9, 19, -5, 1) on the
    window's first and last intervals (a fourth-order Gregory-type rule;
    Linz, Analytical and Numerical Methods for Volterra Equations, SIAM
    1985).  The interval sums are accumulated and anchored at the
    central sample (t = 0 must be on the grid, so the sample count must
    be odd and, for four points, at least 5), then S(t) goes out front.
    Both flows are by _free_flow; the rule holds one window-sized
    increment array.  No time cutoff is applied here; callers multiply
    by psi as needed.
    """
    n = forcing.n_samples
    if n % 2 == 0 or n < 5:
        raise ValueError(
            f"the 4-point Duhamel rule needs an odd n_samples >= 5 (t = 0 on the grid), got {n}"
        )
    g = forcing.grid
    cum = _free_flow(forcing.data, g, -forcing.times)
    # inc[j] is the integral over [t_j, t_{j+1}], in units of dt/24
    inc = cum[1:] + cum[:-1]
    inc[1:-1] *= 13.0
    inc[1:-1] -= cum[:-3]
    inc[1:-1] -= cum[3:]
    inc[0] = 9.0 * cum[0] + 19.0 * cum[1] - 5.0 * cum[2] + cum[3]
    inc[-1] = 9.0 * cum[-1] + 19.0 * cum[-2] - 5.0 * cum[-3] + cum[-4]
    inc *= forcing.dt / 24.0
    cum[0] = 0.0
    np.cumsum(inc, axis=0, out=cum[1:])
    cum -= cum[n // 2].copy()
    return Trajectory(g, forcing.t_half, _free_flow(cum, g, forcing.times, out=cum))


def max_bracket(traj: Trajectory) -> float:
    """Largest resolvable bracket <tau'> on the trajectory's tau-grid."""
    tau_max = np.pi / traj.dt
    return float(np.hypot(1.0, tau_max))
