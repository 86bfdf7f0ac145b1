"""Exact free evolution: the transport semigroup, diagonal in (n, v).

``evolve(field, t)`` multiplies each entry by ``exp(-i t n.v)``; this is
the discrete free solution ``f(t, x, v) = f0(x - t v, v)`` with no
discretization error beyond rounding.  Phases are always formed from the
exact product ``t * (n.v)``, never accumulated step to step.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import GridSpec, PhaseField

__all__ = ["free_evolve"]


@lru_cache(maxsize=8)
def _nv_dot(grid: GridSpec) -> np.ndarray:
    return grid.nv_dot()


def free_evolve(fld: PhaseField, t: float) -> PhaseField:
    """Apply the free propagator for time t (exact, unitary)."""
    phase = np.exp(-1j * float(t) * _nv_dot(fld.grid))
    return PhaseField(fld.grid, fld.data * phase)
