"""Constant-kernel collision operator.

Production path works spectrally in the velocity-dual variable: the gain
term is a sphere-quadrature sum of ``ftil(xi_plus) * gtil(xi_minus)``
with ``xi_pm = (xi +- |xi| omega)/2``, the loss term is
``area * ftil(xi) * gtil(0)``.  The slow reference path integrates the
physical-space scattering formula directly on the velocity grid with
multilinear interpolation and zero extension.

Everything is evaluated per x-node; quadratic products in x are
dealiased by zero-padded synthesis (3/2 rule), on by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .conventions import sphere_area
from .grid import (
    GridSpec,
    PhaseField,
    _check_same_grid,
    _xi_to_v_inplace,
    xi_phase_matrix,
)

__all__ = [
    "SphereQuadrature",
    "sphere_quadrature",
    "gain_bobylev",
    "loss_bobylev",
    "gain_direct_oracle",
    "collide",
    "collide_trajectory",
    "moments",
]


@dataclass(frozen=True)
class SphereQuadrature:
    """Nodes and positive weights on the unit sphere, weights summing to
    the full surface measure.  ``kernel`` is an optional per-node weight
    for non-constant angular kernels (extension hook, untested)."""

    d: int
    nodes: np.ndarray
    weights: np.ndarray
    kernel: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    def effective_weights(self) -> np.ndarray:
        if self.kernel is None:
            return self.weights
        return self.weights * self.kernel

    def antipode_map(self) -> np.ndarray | None:
        """Index map j -> j' with node[j'] == -node[j], or None if the
        node set is not antipodally symmetric."""
        out = np.empty(self.n_nodes, dtype=np.int64)
        for j, w in enumerate(self.nodes):
            dist = np.linalg.norm(self.nodes + w, axis=1)
            k = int(np.argmin(dist))
            if dist[k] > 1e-12:
                return None
            out[j] = k
        return out


def sphere_quadrature(d: int, n_nodes: int) -> SphereQuadrature:
    """Quadrature on S^(d-1): uniform angles for d=2 (spectrally accurate),
    Gauss-Legendre (polar) x uniform (azimuthal) product rule for d=3.

    For d=3 the node count is rounded to the nearest n_polar * 2*n_polar
    product structure.
    """
    if n_nodes < 4:
        raise ValueError(f"need at least 4 nodes, got {n_nodes}")
    if d == 2:
        theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        weights = np.full(n_nodes, 2.0 * np.pi / n_nodes)
        return SphereQuadrature(2, nodes, weights)
    if d == 3:
        n_polar = max(2, int(round(np.sqrt(n_nodes / 2.0))))
        n_az = 2 * n_polar
        mu, gl_w = np.polynomial.legendre.leggauss(n_polar)
        phi = 2.0 * np.pi * np.arange(n_az) / n_az
        st = np.sqrt(1.0 - mu**2)
        nodes = np.stack(
            [
                np.outer(st, np.cos(phi)).ravel(),
                np.outer(st, np.sin(phi)).ravel(),
                np.outer(mu, np.ones(n_az)).ravel(),
            ],
            axis=-1,
        )
        weights = np.outer(gl_w, np.full(n_az, 2.0 * np.pi / n_az)).ravel()
        return SphereQuadrature(3, nodes, weights)
    raise ValueError(f"d must be 2 or 3, got {d}")


# ---------------------------------------------------------------------------
# x-dealiasing helpers: synthesize on a padded x-grid, analyze, truncate.


def _padded_count(n_modes: int, dealias: bool) -> int:
    if not dealias:
        return n_modes
    m = (3 * n_modes + 1) // 2
    return m + (m % 2)


def _embed_indices(grid: GridSpec, m: int) -> list:
    # target FFT-order index of each stored mode on the padded grid
    return [grid.modes_1d % m for _ in range(grid.d)]


def _synthesize_padded(fld: PhaseField, m: int) -> np.ndarray:
    """f on the m^d x-grid (zero-padded modes), shape (m,)*d + (P,)*d."""
    g = fld.grid
    if m == g.n_modes:
        big = fld.data
    else:
        big = np.zeros((m,) * g.d + (g.v_points,) * g.d, dtype=np.complex128)
        big[np.ix_(*_embed_indices(g, m))] = fld.data
    return np.fft.ifftn(big, axes=tuple(range(g.d))) * m**g.d


def _analyze_truncate(grid: GridSpec, values: np.ndarray, m: int) -> PhaseField:
    """Inverse of _synthesize_padded followed by mode truncation."""
    coeffs = np.fft.fftn(values, axes=tuple(range(grid.d))) / m**grid.d
    if m != grid.n_modes:
        coeffs = coeffs[np.ix_(*_embed_indices(grid, m))]
    return PhaseField(grid, coeffs)


def _flatten_xv(grid: GridSpec, values: np.ndarray, m: int) -> np.ndarray:
    """(m..x.., P..v..) -> (P^d, m^d): one v-coefficient column per x-node."""
    x_size, v_size = m**grid.d, grid.v_points**grid.d
    return values.reshape(x_size, v_size).T


def _unflatten_xv(grid: GridSpec, cols: np.ndarray, m: int) -> np.ndarray:
    return cols.T.reshape((m,) * grid.d + (grid.v_points,) * grid.d)


# ---------------------------------------------------------------------------
# Phase-matrix cache.  The per-node evaluation matrices depend only on
# (grid, quadrature).  A Picard solve batches every time slice into one
# gain call per sweep, so the cache saves one build per sweep; building
# is cheap (xi_phase_matrix), the cap keeps large grids from holding
# n_nodes P^d x P^d matrices between calls.  One slot.

_MAT_CACHE: dict = {}
_MAT_CACHE_CAP_BYTES = 500_000_000


def _quad_key(quad: SphereQuadrature) -> tuple:
    kern = None if quad.kernel is None else quad.kernel.tobytes()
    return (quad.d, quad.nodes.tobytes(), quad.weights.tobytes(), kern)


def _node_matrix(grid: GridSpec, omega: np.ndarray) -> np.ndarray:
    """Evaluation matrix at xi+ = (xi + |xi| omega)/2 over the xi-grid;
    xi- for omega is xi+ for -omega."""
    xi = grid.xi_vectors()
    radius = np.linalg.norm(xi, axis=1)
    return xi_phase_matrix(grid, 0.5 * (xi + radius[:, None] * omega))


def _cached_matrices(grid: GridSpec, quad: SphereQuadrature):
    """Per-node matrices, or None when they would exceed the cap."""
    n_pts = grid.v_points**grid.d
    if quad.n_nodes * n_pts * n_pts * 16 > _MAT_CACHE_CAP_BYTES:
        return None
    key = (grid, _quad_key(quad))
    mats = _MAT_CACHE.get(key)
    if mats is None:
        mats = [_node_matrix(grid, omega) for omega in quad.nodes]
        _MAT_CACHE.clear()
        _MAT_CACHE[key] = mats
    return mats


def _gain_columns(
    grid: GridSpec, quad: SphereQuadrature, fv: np.ndarray, gv: np.ndarray
) -> np.ndarray:
    """Gain on the v-grid for flattened column data (P^d, ncols).

    Accumulates antipodal node pairs, whose xi+ and xi- matrices swap,
    so only two evaluation slabs are alive at a time.  The xi-grid sum
    returns to v in place by the FFT of xi_to_v.
    """
    anti = quad.antipode_map()
    w = quad.effective_weights()
    same = gv is fv
    mats = _cached_matrices(grid, quad)

    def node_mat(j):
        return mats[j] if mats is not None else _node_matrix(grid, quad.nodes[j])

    gain_xi = np.zeros(fv.shape, dtype=np.complex128)
    if anti is not None:
        done = np.zeros(quad.n_nodes, dtype=bool)
        for j in range(quad.n_nodes):
            if done[j]:
                continue
            k = int(anti[j])
            done[j] = done[k] = True
            mat_j = node_mat(j)
            fp_j = mat_j @ fv
            if k == j:
                gain_xi += w[j] * fp_j * (fp_j if same else mat_j @ gv)
                continue
            mat_k = node_mat(k)
            fp_k = mat_k @ fv
            if same:
                # (w_j + w_k) fp_j fp_k, formed in the fp_j slab
                fp_j *= fp_k
                fp_j *= w[j] + w[k]
                gain_xi += fp_j
            else:
                gain_xi += w[j] * fp_j * (mat_k @ gv) + w[k] * fp_k * (mat_j @ gv)
    else:
        for j, omega in enumerate(quad.nodes):
            fp = node_mat(j) @ fv
            gain_xi += w[j] * fp * (_node_matrix(grid, -omega) @ gv)

    p, d = grid.v_points, grid.d
    gain_v = _xi_to_v_inplace(grid, gain_xi.reshape((p,) * d + (-1,)), tuple(range(d)))
    return gain_v.reshape(fv.shape)


def gain_bobylev(
    f: PhaseField, g: PhaseField, quad: SphereQuadrature, dealias: bool = True
) -> PhaseField:
    """Spectral gain term via the velocity-dual sphere integral.

    Per x-node, evaluates ``sum_j w_j ftil(xi_plus_j) gtil(xi_minus_j)``
    on the xi-grid by exact off-grid trigonometric sums, then transforms
    back to the (n, v) representation.
    """
    _check_same_grid(f, g)
    grid = f.grid
    if quad.d != grid.d:
        raise ValueError("quadrature dimension does not match grid")
    m = _padded_count(grid.n_modes, dealias)
    fv = _flatten_xv(grid, _synthesize_padded(f, m), m)
    same = g is f or np.array_equal(g.data, f.data)
    gv = fv if same else _flatten_xv(grid, _synthesize_padded(g, m), m)
    gain_v = _gain_columns(grid, quad, fv, gv)
    values = _unflatten_xv(grid, gain_v, m)
    return _analyze_truncate(grid, values, m)


def collide_trajectory(
    stack: np.ndarray,
    grid: GridSpec,
    quad: SphereQuadrature,
    dealias: bool = True,
    active=None,
) -> np.ndarray:
    """Q(f_j, f_j) for a stack of fields, shape (S,) + grid.shape.

    Batches every active slice into one gain evaluation so the node
    matrices (or their cached copies) are applied once per call;
    ``active`` is an optional boolean mask of slices to process (others
    return zero).
    """
    S = stack.shape[0]
    if active is None:
        active = np.ones(S, dtype=bool)
    idx = np.nonzero(active)[0]
    out = np.zeros_like(stack)
    if idx.size == 0:
        return out
    m = _padded_count(grid.n_modes, dealias)
    n_x = m**grid.d
    cols = np.empty((grid.v_points**grid.d, n_x * idx.size), dtype=np.complex128)
    for pos, j in enumerate(idx):
        fld = PhaseField(grid, stack[j])
        cols[:, pos * n_x : (pos + 1) * n_x] = _flatten_xv(
            grid, _synthesize_padded(fld, m), m
        )
    gain_v = _gain_columns(grid, quad, cols, cols)
    area = float(np.sum(quad.effective_weights()))
    for pos, j in enumerate(idx):
        block = gain_v[:, pos * n_x : (pos + 1) * n_x]
        gain = _analyze_truncate(grid, _unflatten_xv(grid, block, m), m)
        loss = loss_bobylev(
            PhaseField(grid, stack[j]),
            PhaseField(grid, stack[j]),
            dealias=dealias,
            area=area,
        )
        out[j] = gain.data - loss.data
    return out


def loss_bobylev(
    f: PhaseField, g: PhaseField, dealias: bool = True, area: float | None = None
) -> PhaseField:
    """Loss term: area * f(x, v) * (discrete integral of g(x, .) dv).

    ``area`` defaults to the full sphere measure; pass the total weight of
    a quadrature to keep gain and loss on the same angular measure.
    """
    _check_same_grid(f, g)
    grid = f.grid
    m = _padded_count(grid.n_modes, dealias)
    fx = _synthesize_padded(f, m)
    gx = fx if (g is f or np.array_equal(g.data, f.data)) else _synthesize_padded(g, m)
    g0 = grid.dv**grid.d * gx.sum(axis=tuple(range(grid.d, 2 * grid.d)))
    if area is None:
        area = sphere_area(grid.d)
    values = area * fx * g0[(...,) + (None,) * grid.d]
    return _analyze_truncate(grid, values, m)


def _interp_matrix(grid: GridSpec, points: np.ndarray) -> sparse.csr_matrix:
    """Multilinear interpolation on the v-grid as a sparse operator,
    zero extension outside [-V, V)^d.  points: (npts, d)."""
    d, p = grid.d, grid.v_points
    rel = (points + grid.v_extent) / grid.dv
    lo = np.floor(rel).astype(np.int64)
    frac = rel - lo
    npts = len(points)
    n_taps = 1 << d
    cols = np.empty((npts, n_taps), dtype=np.int32)
    vals = np.empty((npts, n_taps), dtype=np.float32)
    for corner in range(n_taps):
        idx = np.empty((npts, d), dtype=np.int64)
        wgt = np.ones(npts, dtype=np.float32)
        for i in range(d):
            bit = (corner >> i) & 1
            idx[:, i] = lo[:, i] + bit
            wgt = wgt * (frac[:, i] if bit else 1.0 - frac[:, i]).astype(np.float32)
        inside = np.all((idx >= 0) & (idx < p), axis=1)
        flat = np.zeros(npts, dtype=np.int64)
        for i in range(d):
            flat = flat * p + idx[:, i]
        # zero extension: out-of-box taps keep column 0 with weight 0
        cols[:, corner] = np.where(inside, flat, 0).astype(np.int32)
        vals[:, corner] = np.where(inside, wgt, np.float32(0.0))
    indptr = n_taps * np.arange(npts + 1, dtype=np.int64)
    return sparse.csr_matrix(
        (vals.ravel(), cols.ravel(), indptr), shape=(npts, p**d)
    )


def gain_direct_oracle(
    f: PhaseField,
    g: PhaseField,
    quad: SphereQuadrature,
    dealias: bool = True,
    x_chunk: int = 8,
) -> PhaseField:
    """Slow reference gain term: physical-space scattering quadrature.

    Per x-node, sums ``dv^d * w_j * f(v - (omega.(v-u)) omega)
    * g(u + (omega.(v-u)) omega)`` over the velocity grid and sphere
    nodes with multilinear interpolation (zero outside the box).
    Cost O(v_points^(2d) * n_nodes) per x-node.

    The scattering endpoints satisfy u*(v, u) = v*(u, v), so one
    interpolation operator serves both factors (the second with the
    (v, u) axes swapped).  Interpolation runs in single precision; the
    interpolation error dwarfs the rounding.
    """
    _check_same_grid(f, g)
    grid = f.grid
    if quad.d != grid.d:
        raise ValueError("quadrature dimension does not match grid")
    m = _padded_count(grid.n_modes, dealias)
    fv = _flatten_xv(grid, _synthesize_padded(f, m), m).astype(np.complex64)
    same = g is f or np.array_equal(g.data, f.data)
    gv = fv if same else _flatten_xv(grid, _synthesize_padded(g, m), m).astype(
        np.complex64
    )

    vv = grid.v_vectors()
    n_v, n_x = fv.shape
    w = quad.effective_weights()
    out = np.zeros((n_v, n_x), dtype=np.complex128)
    for j, omega in enumerate(quad.nodes):
        # post-collision endpoint for all (v, u) grid pairs
        dot = (vv @ omega)[:, None] - (vv @ omega)[None, :]  # (v, u)
        v_star = vv[:, None, :] - dot[:, :, None] * omega
        s_op = _interp_matrix(grid, v_star.reshape(-1, grid.d))
        for lo in range(0, n_x, x_chunk):
            sl = slice(lo, min(lo + x_chunk, n_x))
            nc = sl.stop - sl.start
            f_star = (s_op @ fv[:, sl]).reshape(n_v, n_v, nc)
            g_vu = f_star if same else (s_op @ gv[:, sl]).reshape(n_v, n_v, nc)
            out[:, sl] += (w[j] * grid.dv**grid.d) * np.einsum(
                "vux,uvx->vx", f_star, g_vu
            )
    values = _unflatten_xv(grid, out, m)
    return _analyze_truncate(grid, values, m)


def collide(f: PhaseField, quad: SphereQuadrature, dealias: bool = True) -> PhaseField:
    """Full collision operator, gain minus loss, spectral path.

    The loss uses the quadrature's total weight as the angular measure so
    that gain and loss cancel exactly at xi = 0 (discrete mass
    conservation) for any weighting, including zeroed weights.
    """
    area = float(np.sum(quad.effective_weights()))
    return gain_bobylev(f, f, quad, dealias=dealias) - loss_bobylev(
        f, f, dealias=dealias, area=area
    )


def moments(fld: PhaseField) -> tuple:
    """Discrete v-integrals of f * {1, v, |v|^2} per x-node.

    Returns (mass, momentum, energy) with shapes (nx..), (nx.., d), (nx..).
    """
    grid = fld.grid
    fx = _synthesize_padded(fld, grid.n_modes)
    v_axes = tuple(range(grid.d, 2 * grid.d))
    dvd = grid.dv**grid.d
    mass = dvd * fx.sum(axis=v_axes)
    mom = np.empty(mass.shape + (grid.d,), dtype=np.complex128)
    for i in range(grid.d):
        shape = [1] * (2 * grid.d)
        shape[grid.d + i] = grid.v_points
        mom[..., i] = dvd * (fx * grid.v_1d.reshape(shape)).sum(axis=v_axes)
    vsq = np.zeros((grid.v_points,) * grid.d)
    for i in range(grid.d):
        shape = [1] * grid.d
        shape[i] = grid.v_points
        vsq = vsq + (grid.v_1d**2).reshape(shape)
    energy = dvd * (fx * vsq).sum(axis=v_axes)
    return mass, mom, energy
