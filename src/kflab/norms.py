"""Discrete function-space norms.

Field norms are taken on the mixed representation fhat(n, v): the
velocity-weighted Sobolev norm sums <n>^2s <v>^2r |fhat|^2 dv^d, which
is the xi-side Sobolev norm up to the fixed Plancherel constant
(2 pi)^(d/2) recorded on the constants sheet; all reported quantities
are ratios of such norms, so the constant cancels.  Space-time Lebesgue
norms are honest quadratures over (t, x, xi) and keep their constants;
the quartic xi-integral is evaluated exactly (velocity-padded FFT), the
time integral is trapezoidal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PhaseField
from .lp import bump_psi
from .trajectory import Trajectory, _tau_grid, _trapz_weights, time_dft

__all__ = [
    "NormParams",
    "default_params",
    "bracket",
    "sobolev_norm",
    "l2_spacetime_norm",
    "apply_time_cutoff",
    "xsb_norm",
    "time_profile_hb",
    "psi_window_hb",
]


@dataclass(frozen=True)
class NormParams:
    """Regularity exponents: s in x, r in xi (= velocity weight), b in
    modulation.  The well-posedness regime is s > d/2 - 1/4, r > d/2;
    '1/2+' is pinned to b = 0.55 by default."""

    s: float
    r: float
    b: float = 0.55


def default_params(d: int, slack: float = 0.05) -> NormParams:
    return NormParams(s=d / 2.0 - 0.25 + slack, r=d / 2.0 + slack, b=0.55)


def bracket(z: np.ndarray) -> np.ndarray:
    """Japanese bracket <z> = (1 + |z|^2)^(1/2) for scalar arrays."""
    return np.hypot(1.0, z)


def _sobolev_weight(grid, s: float, r: float) -> np.ndarray:
    n_abs = np.linalg.norm(
        grid.mode_vectors().astype(float), axis=1
    ).reshape(grid.mode_counts)
    v_abs = np.linalg.norm(grid.v_vectors(), axis=1).reshape(
        (grid.v_points,) * grid.d
    )
    wn = bracket(n_abs) ** (2.0 * s)
    wv = bracket(v_abs) ** (2.0 * r)
    return wn.reshape(wn.shape + (1,) * grid.d) * wv.reshape((1,) * grid.d + wv.shape)


def sobolev_norm(fld: PhaseField, s: float, r: float) -> float:
    """(sum_n dv^d sum_v <n>^2s <v>^2r |fhat(n,v)|^2)^(1/2)."""
    g = fld.grid
    w = _sobolev_weight(g, s, r)
    return float(np.sqrt(g.dv**g.d * np.sum(w * np.abs(fld.data) ** 2)))


def _slice_l4_xi_4(fld_data: np.ndarray, grid) -> float:
    """sum over x-nodes of the exact integral of |ftil(x, .)|^4 over the
    xi-torus, from x-space values fld_data (x.., v..).

    The quartic trig polynomial has bandwidth < 2 v_points per axis, so
    the rectangle rule on the 2x-refined xi-grid (velocity-zero-padded
    FFT) integrates it exactly.  Runs in the dtype of the input, which
    lab._free_l4_norm takes from its data: complex64 input stays single
    precision, the scan's speed; the quartic sum accumulates in float64.
    Works one row at a time, a row being fixed indices on every x-axis
    but the last, and pads one axis per FFT, so temporaries are the size
    of one padded row (n_modes * (2 v_points)^d values) in any d.
    """
    from scipy import fft as sfft

    d, p = grid.d, grid.v_points
    dtype = np.complex64 if fld_data.dtype == np.complex64 else np.complex128
    rows = fld_data.reshape((-1,) + fld_data.shape[d - 1 :])
    mag2 = np.empty(rows.shape[1:2] + (2 * p,) * d, dtype=np.finfo(dtype).dtype)
    im2 = np.empty_like(mag2)
    flat = mag2.ravel()
    total = 0.0
    for row in rows:
        big = row.astype(dtype, copy=False)
        for ax in reversed(range(1, d + 1)):
            big = sfft.fft(big, n=2 * p, axis=ax)
        np.multiply(big.real, big.real, out=mag2)
        np.multiply(big.imag, big.imag, out=im2)
        mag2 += im2
        # einsum's dot product, not BLAS ddot: threaded ddot stalls when
        # another process holds the second core
        total += float(np.einsum("i,i->", flat, flat, dtype=np.float64))
    refined_dxi = grid.dxi / 2.0
    return float(refined_dxi**d * grid.dv ** (4 * d) * total)


def l2_spacetime_norm(traj: Trajectory) -> float:
    """L2 norm over (t, x, xi): trapezoid in t, and by Plancherel the
    (2 pi)^d-scaled l2_n L2_v norm per slice (equals the time-integrated
    L2_{x,xi} norm exactly)."""
    g = traj.grid
    tw = _trapz_weights(traj.n_samples, traj.dt)
    axes = tuple(range(1, 2 * g.d + 1))
    sl2 = g.dv**g.d * np.sum(np.abs(traj.data) ** 2, axis=axes)
    return float(np.sqrt(np.sum(tw * (2.0 * np.pi) ** (2 * g.d) * sl2)))


def apply_time_cutoff(traj: Trajectory, kind: str, t_inner: float = 1.0) -> Trajectory:
    """Multiply slices by psi(t) (kind 'psi') or psi(t / t_inner)
    (kind 'psi_T'); a cutoff may be applied only once."""
    if traj.cutoff != "none":
        raise ValueError(f"cutoff already applied ({traj.cutoff})")
    if kind not in ("psi", "psi_T"):
        raise ValueError(f"unknown cutoff kind {kind!r}")
    scale = float(t_inner) if kind == "psi_T" else 1.0
    if scale <= 0:
        raise ValueError("cutoff width must be positive")
    prof = bump_psi(traj.times / scale)
    ext = (...,) + (None,) * (2 * traj.grid.d)
    out = traj.copy()
    out.data = traj.data * prof[ext]
    out.cutoff = kind
    return out


def xsb_norm(traj: Trajectory, params: NormParams) -> float:
    """Restriction norm: <tau + n.v>^b <n>^s <v>^r weights on the
    demodulated time-DFT, summed in l2_n L2_{tau,v}.

    Requires a time cutoff on the trajectory (the continuum norm needs
    decay in t).
    """
    if traj.cutoff == "none":
        raise ValueError("apply a time cutoff before taking the restriction norm")
    g = traj.grid
    tau, coeffs = time_dft(traj)
    wt = bracket(tau) ** (2.0 * params.b)
    w = _sobolev_weight(g, params.s, params.r)
    ext = (...,) + (None,) * (2 * g.d)
    total = np.sum(wt[ext] * w[None] * np.abs(coeffs) ** 2)
    return float(np.sqrt(g.dv**g.d * total))


def time_profile_hb(
    values: np.ndarray, t_half: float, b: float, homogeneous: bool = False
) -> float:
    """Discrete H^b (or homogeneous Hdot^b) norm of a sampled time
    profile, with the same square-root trapezoid DFT convention as the
    trajectory transform (so conjugation identities hold exactly)."""
    values = np.asarray(values, dtype=np.complex128)
    n = len(values)
    dt = 2.0 * t_half / (n - 1)
    w = np.sqrt(_trapz_weights(n, dt))
    coeffs = np.fft.fft(w * values) / np.sqrt(n)
    tau = _tau_grid(n, dt)
    weight = np.abs(tau) ** (2.0 * b) if homogeneous else bracket(tau) ** (2.0 * b)
    return float(np.sqrt(np.sum(weight * np.abs(coeffs) ** 2)))


def psi_window_hb(
    t_half: float, n_samples: int, b: float, delta: float = 1.0, homogeneous: bool = False
) -> float:
    """H^b norm of the rescaled cutoff psi(t/delta) on the window,
    computed by an independent 1D DFT (oracle for the conjugation
    identity and the two-power delta-scaling)."""
    t = -t_half + (2.0 * t_half / (n_samples - 1)) * np.arange(n_samples)
    return time_profile_hb(bump_psi(t / delta), t_half, b, homogeneous=homogeneous)
