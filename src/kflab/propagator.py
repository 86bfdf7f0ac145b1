"""Exact free evolution: the transport semigroup, diagonal in (n, v).

``evolve(field, t)`` multiplies each entry by ``exp(-i t n.v)``; this is
the discrete free solution ``f(t, x, v) = f0(x - t v, v)`` with no
discretization error beyond rounding.  Phases are always formed from the
exact product ``t * (n.v)``, never accumulated step to step.
:func:`_free_phase` is the one place the phase is built; the solver and
the trajectory transforms call it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import GridSpec, PhaseField

__all__ = ["free_evolve"]


@lru_cache(maxsize=8)
def _nv_dot(grid: GridSpec) -> np.ndarray:
    """The tensor n.v over the full (n, v) index set, shape == grid shape."""
    out = np.zeros(grid.shape)
    for i in range(grid.d):
        n_shape = [1] * (2 * grid.d)
        n_shape[i] = grid.n_modes
        v_shape = [1] * (2 * grid.d)
        v_shape[grid.d + i] = grid.v_points
        out = out + grid.modes_1d.reshape(n_shape) * grid.v_1d.reshape(v_shape)
    return out


def _free_phase(grid: GridSpec, t) -> np.ndarray:
    """exp(-i t n.v): shape grid.shape for a scalar t, (len(t),) +
    grid.shape for a 1D array of times.  exp(+i t n.v) is
    ``_free_phase(grid, -t)``."""
    ext = (...,) + (None,) * (2 * grid.d)
    return np.exp(-1j * np.asarray(t)[ext] * _nv_dot(grid))


def free_evolve(fld: PhaseField, t: float) -> PhaseField:
    """Apply the free propagator for time t (exact, unitary)."""
    return PhaseField(fld.grid, fld.data * _free_phase(fld.grid, float(t)))
