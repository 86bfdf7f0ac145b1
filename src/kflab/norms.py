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

import os
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


def default_params(d: int) -> NormParams:
    slack = 0.05  # above the well-posedness thresholds s = d/2 - 1/4, r = d/2
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


# a padded row of fewer values is reduced on one thread: below this the
# second worker costs more than it saves
_SPLIT_VALUES = 2**15
_POOL = None  # the second L4 worker, created on first use


def _l4_workers() -> int:
    """Threads for the L4 kernels: two where the process may run on two
    cores or more, else one."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _slice_workers(grid) -> int:
    """Threads _slice_l4_xi_4 splits a slice's rows between on grid."""
    row = grid.mode_counts[-1] * (2 * grid.v_points) ** grid.d
    return _l4_workers() if row >= _SPLIT_VALUES else 1


def _slice_l4_xi_4(fld_data: np.ndarray, grid) -> float:
    """sum over x-nodes of the exact integral of |ftil(x, .)|^4 over the
    xi-torus, from x-space values fld_data (x.., v..).

    The quartic trig polynomial has bandwidth < 2 v_points per axis, so
    the rectangle rule on the 2x-refined xi-grid (velocity-zero-padded
    FFT) integrates it exactly.  Runs in the dtype of the input, which
    lab._free_l4_norm takes from its data: complex64 input stays single
    precision, the scan's speed; the quartic sum accumulates in float64.
    Works one row at a time, a row being fixed indices on every x-axis
    but the last.  Rows of _SPLIT_VALUES padded values or more are split
    between _slice_workers threads, row i to worker i mod 2.  Each
    worker owns one padded row (n_modes * (2 v_points)^d values) and a
    |z|^2 scratch, half the row's bytes on one thread and a sixteenth
    with two, so the working set is one padded row per worker, at most
    two (2.125 rows with the scratch), in any d.  Each row's float64
    total is kept and the totals are added in row order, so the result
    does not depend on the split.

    Each row goes into the leading P^d block of a zeroed padded buffer,
    and the v-axes are transformed in place, last axis first, each over
    the extent that is not yet all zero: the axis about to be transformed
    gets its pad region re-zeroed, the later axes are full, the earlier
    ones still hold only their first P entries.  |z|^2 is then formed in
    the buffer's own bytes: re and im are squared in place, and each
    block of planes' re^2 + im^2 is widened to float64 into the front of
    the buffer (complex64: each value's own 8 bytes), where einsum reads
    it as one contiguous array.
    """
    from scipy import fft as sfft

    d, p = grid.d, grid.v_points
    dtype = np.complex64 if fld_data.dtype == np.complex64 else np.complex128
    rows = fld_data.reshape((-1,) + fld_data.shape[d - 1 :])
    lead = (slice(None),) + (slice(0, p),) * d
    sums = np.empty(len(rows))
    workers = _slice_workers(grid)

    def reduce_rows(first: int) -> None:
        buf = np.zeros(rows.shape[1:2] + (2 * p,) * d, dtype=dtype)
        parts = buf.view(np.finfo(dtype).dtype)  # re, im interleaved
        flat = buf.view(np.float64).reshape(-1)[: buf.size]
        mag2 = flat.reshape(buf.shape)
        # re^2 + im^2 scratch, in planes: the whole row on one thread (half
        # the row's bytes), an eighth of it when two workers share the
        # two-row budget
        block = len(buf) if workers == 1 else -(-len(buf) // 8)
        sq = np.empty((block,) + buf.shape[1:], dtype=parts.dtype)
        for i in range(first, len(rows), workers):
            buf[lead] = rows[i]
            for ax in reversed(range(1, d + 1)):
                buf[lead[:ax] + (slice(p, None),)] = 0
                view = buf[lead[:ax]]
                out = sfft.fft(view, axis=ax, overwrite_x=True)
                # overwrite_x permits, but does not promise, an in-place result
                if not np.shares_memory(out, view):
                    view[...] = out
            np.multiply(parts, parts, out=parts)
            # mag2's planes [k, k + block) lie in buf's planes < k + block,
            # which are already summed
            for k in range(0, len(buf), block):
                pairs = parts[k : k + block]
                np.add(pairs[..., 0::2], pairs[..., 1::2], out=sq[: len(pairs)])
                mag2[k : k + block] = sq[: len(pairs)]
            # einsum's dot product, not BLAS ddot: threaded ddot stalls when
            # another process holds the second core
            sums[i] = np.einsum("i,i->", flat, flat, dtype=np.float64)

    if workers == 1:
        reduce_rows(0)
    else:
        global _POOL
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max_workers=1)
        job = _POOL.submit(reduce_rows, 1)
        try:
            reduce_rows(0)
        finally:
            job.result()
    total = 0.0
    for s in sums.tolist():  # in row order, as one thread adds them
        total += s
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


def apply_time_cutoff(traj: Trajectory, width: float) -> Trajectory:
    """Multiply slices by psi(t / width): 1 on |t| <= width, exactly 0
    from |t| >= 2 width on."""
    if not width > 0:
        raise ValueError("cutoff width must be positive")
    prof = bump_psi(traj.times / width)
    ext = (...,) + (None,) * (2 * traj.grid.d)
    return Trajectory(traj.grid, traj.t_half, traj.data * prof[ext])


def xsb_norm(traj: Trajectory, params: NormParams) -> float:
    """Restriction norm: <tau + n.v>^b <n>^s <v>^r weights on the
    demodulated time-DFT, summed in l2_n L2_{tau,v}.

    Requires a time cutoff supported inside the window: first and last
    slices exactly zero, so the time-DFT's periodic extension has no
    jump at the window's ends.
    """
    if traj.data[0].any() or traj.data[-1].any():
        raise ValueError("the restriction norm needs a time cutoff that vanishes at the "
                         "window's ends: its first and last slices must be exactly zero, "
                         "or the time-DFT's periodic extension jumps there")
    g = traj.grid
    tau, coeffs = time_dft(traj)
    # the bits of wt[ext] * w[None] * np.abs(coeffs) ** 2, in |coeffs|'s array
    mag2 = np.abs(coeffs)
    del coeffs
    np.square(mag2, out=mag2)
    wt = bracket(tau) ** (2.0 * params.b)
    w = _sobolev_weight(g, params.s, params.r)
    ext = (...,) + (None,) * (2 * g.d)
    np.multiply(wt[ext] * w[None], mag2, out=mag2)
    return float(np.sqrt(g.dv**g.d * np.sum(mag2)))


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
