"""Dyadic frequency calculus: sharp x-shells and blocks, smooth radial
velocity cutoffs, and modulation projectors on trajectories.

The x-side projectors are sharp indicators on the integer mode lattice
(exact partitions).  The v-side cutoff is the standard smooth dyadic
bump; it is a multiplier, not a projector.  Modulation projectors act
through the demodulated time-DFT of :mod:`kflab.trajectory`, where the
dyadic shells in <tau + n.v> form an exact partition.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, PhaseField
from .trajectory import Trajectory, max_bracket, time_dft, time_idft

__all__ = [
    "bump",
    "bump_psi",
    "project_x_shell",
    "project_x_block",
    "project_v_dyadic",
    "v_multiplier",
    "project_modulation",
]


def _h(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s, dtype=float)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def bump(rho) -> np.ndarray:
    """Smooth radial profile: 1 on [0, 1], 0 on [2, inf), C-infinity
    quotient bridge h(2-rho)/(h(2-rho)+h(rho-1)) in between."""
    rho = np.abs(np.asarray(rho, dtype=float))
    up = _h(2.0 - rho)
    down = _h(rho - 1.0)
    with np.errstate(invalid="ignore"):
        out = np.where(rho <= 1.0, 1.0, np.where(rho >= 2.0, 0.0, up / (up + down)))
    return out


def bump_psi(t) -> np.ndarray:
    """Even time cutoff: 1 on [-1, 1], supported in (-2, 2)."""
    return bump(t)


def _in_cube(modes: np.ndarray, center, half: float) -> np.ndarray:
    """Indicator of the half-open cube center + (-half, half]^d."""
    rel = modes - np.asarray(center)
    return np.all((rel > -half) & (rel <= half), axis=-1)


def _shell_mask(grid: GridSpec, N: int) -> np.ndarray:
    """Indicator of the x-shell N over the stored modes, shape
    grid.mode_counts; N must be dyadic and within the mode range."""
    _check_dyadic(N)
    if N > grid.n_modes // 2:
        raise ValueError(f"shell N={N} exceeds the mode range")
    modes = grid.mode_vectors().reshape(grid.mode_counts + (grid.d,))
    outer = _in_cube(modes, 0, N)
    if N == 1:
        # the excluded set is taken empty at integer points, so the
        # lowest shell keeps n = 0 and the shells partition Z^d exactly
        return outer
    return outer & ~_in_cube(modes, 0, N // 2)


def _check_dyadic(N: int) -> None:
    if N < 1 or (N & (N - 1)):
        raise ValueError(f"scale must be a power of two >= 1, got {N}")


def _apply_n_mask(fld: PhaseField, mask: np.ndarray) -> PhaseField:
    ext = mask.reshape(mask.shape + (1,) * fld.grid.d)
    return PhaseField(fld.grid, fld.data * ext)


def project_x_shell(fld: PhaseField, N: int) -> PhaseField:
    """Sharp dyadic shell (-N, N]^d minus (-N/2, N/2]^d on the n-index
    (the N = 1 shell is the whole cube (-1, 1]^d, including n = 0)."""
    return _apply_n_mask(fld, _shell_mask(fld.grid, N))


def project_x_block(fld: PhaseField, a, N: int) -> PhaseField:
    """Sharp indicator of the shifted cube a + (-N, N]^d on the n-index."""
    _check_dyadic(N)
    g = fld.grid
    modes = g.mode_vectors().reshape(g.mode_counts + (g.d,))
    a = np.asarray(a, dtype=np.int64)
    if a.shape != (g.d,):
        raise ValueError(f"block center must have {g.d} integer components")
    return _apply_n_mask(fld, _in_cube(modes, a, N))


def v_multiplier(grid: GridSpec, M: int) -> np.ndarray:
    """The dyadic velocity bump phi_M(v) = phi(|v|/M) - phi(2|v|/M) on
    the v-grid, shape (v_points,)*d."""
    _check_dyadic(M)
    vv = grid.v_vectors()
    rho = np.linalg.norm(vv, axis=1).reshape((grid.v_points,) * grid.d)
    return bump(rho / M) - bump(2.0 * rho / M)


def project_v_dyadic(fld: PhaseField, M: int) -> PhaseField:
    """Smooth radial velocity localization to |v| ~ M (support M/2 <= |v| <= 2M).

    Diagonal in the physical v-index; not idempotent (smooth cutoff).
    """
    g = fld.grid
    mult = v_multiplier(g, M)
    return PhaseField(g, fld.data * mult.reshape((1,) * g.d + mult.shape))


def modulation_mask(tau: np.ndarray, K: int) -> np.ndarray:
    """Indicator of the dyadic bracket shell K/2 < <tau'> <= K (K = 1
    keeps <tau'> <= 1, i.e. exactly tau' = 0 on a DFT grid)."""
    _check_dyadic(K)
    br = np.hypot(1.0, tau)
    if K == 1:
        return br <= 1.0
    return (br > K / 2.0) & (br <= K)


def project_modulation(traj: Trajectory, K: int) -> Trajectory:
    """Sharp modulation projector Q_K: keep K/2 < <tau + n.v> <= K.

    Idempotent and exactly partitioning over dyadic K by construction
    (conjugated indicator on the demodulated time-DFT grid).
    """
    _check_dyadic(K)
    if K > 1 and K / 2.0 >= max_bracket(traj):
        raise ValueError(
            f"modulation scale K={K} not resolvable: max bracket "
            f"{max_bracket(traj):.3g} (increase time samples)"
        )
    tau, coeffs = time_dft(traj)
    mask = modulation_mask(tau, K)
    ext = (...,) + (None,) * (2 * traj.grid.d)
    return time_idft(traj, coeffs * mask[ext])
