"""Exact free evolution: the transport semigroup, diagonal in (n, v).

``evolve(field, t)`` multiplies each entry by ``exp(-i t n.v)``; this is
the discrete free solution ``f(t, x, v) = f0(x - t v, v)`` with no
discretization error beyond rounding.  :func:`_free_flow` is the one
place the flow is applied: exp(-i t n.v) = prod_a exp(-i t n_a v_a), so
it multiplies an (n_modes, v_points) table exp(-i t n_a v_a), formed from
the exact products, into the data along each axis in turn, and no
full-grid phase is ever built.  The tables read the grid's per-axis mode
counts: an axis of count 1 stores n_a = 0 alone, whose table is all
ones, so the flow skips it and x_a-invariant data pay for the axes they
vary along only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import GridSpec, PhaseField

__all__ = ["free_evolve"]


@lru_cache(maxsize=8)
def _nv_dot(grid: GridSpec) -> np.ndarray:
    """Dense n.v over the full (n, v) grid: the tests' reference phase."""
    out = np.zeros(grid.shape)
    for i, modes in enumerate(grid.axis_modes):
        n_shape = [1] * (2 * grid.d)
        n_shape[i] = modes.size
        v_shape = [1] * (2 * grid.d)
        v_shape[grid.d + i] = grid.v_points
        out = out + modes.reshape(n_shape) * grid.v_1d.reshape(v_shape)
    return out


def _free_flow(data: np.ndarray, grid: GridSpec, t, out=None) -> np.ndarray:
    """data * exp(-i t n.v) in data's dtype, written to ``out`` if given
    (``out`` may be ``data``).  For a scalar t, data has grid.shape; for
    a 1D array of times the result is (len(t),) + grid.shape, and data
    is one slice or one slice per time.  exp(+i t n.v) is t -> -t."""
    t = np.asarray(t, dtype=float)
    d = grid.d
    # an axis of count 1 holds n_a = 0 alone, whose table is all ones; the
    # others hold the same (n_modes, v_points) nodes, so one table serves
    flowing = [a for a, c in enumerate(grid.mode_counts) if c > 1]
    if not flowing:
        ones = np.ones(t.shape + (1,) * (2 * d), dtype=data.dtype)
        return np.multiply(data, ones, out=out)
    nv_1d = np.outer(grid.modes_1d, grid.v_1d)
    table = np.exp(-1j * (t[..., None, None] * nv_1d)).astype(data.dtype)
    for i, a in enumerate(flowing):
        shape = list(t.shape) + [1] * (2 * d)
        shape[t.ndim + a], shape[t.ndim + d + a] = grid.n_modes, grid.v_points
        out = np.multiply(data if i == 0 else out, table.reshape(shape), out=out)
    return out


def free_evolve(fld: PhaseField, t: float) -> PhaseField:
    """Apply the free propagator for time t (exact, unitary)."""
    return PhaseField(fld.grid, _free_flow(fld.data, fld.grid, float(t)))
