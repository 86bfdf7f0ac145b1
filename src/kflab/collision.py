"""Constant-kernel collision operator.

Production path works spectrally in the velocity-dual variable: the gain
term is a sphere-quadrature sum of ``ftil(xi_plus) * gtil(xi_minus)``
with ``xi_pm = (xi +- |xi| omega)/2``, the loss term is
``area * ftil(xi) * gtil(0)``.  The slow reference path integrates the
physical-space scattering formula directly on the velocity grid with
multilinear interpolation and zero extension; its scattering map is the
same for omega and -omega, so it too visits antipodal node pairs.

The gain evaluates ftil off-grid by exact trigonometric sums, one
matrix per sphere node.  For an antipodal node pair omega_k = -omega_j
the two matrices are related by M_k[xi] = conj(M_j[-xi]), because
xi_plus_k(xi) = -xi_plus_j(-xi).  So one real product of the stacked
[Re M_j; Im M_j] with the columns gives both M_j f and M_k f, the latter
by a fixed row gather; the rows of M_k whose xi has a +P/2 component
(-xi is not on the grid) are evaluated directly.  Columns go through in
fixed blocks so the elementwise work stays in cache.

Everything is evaluated per x-node; quadratic products in x are
dealiased by zero-padded synthesis (3/2 rule), on by default, through
the x-transform pair of :mod:`kflab.grid` at the padded size
(``x_synthesize(f, m)``, ``x_analyze(grid, values, m)``), which also
owns the Nyquist-slot convention.  The padded grid follows the grid's
mode counts and reads no data: an axis of count 1 gets one x-node,
every other axis the padded count.  Q is local in x, so it keeps data
exactly invariant along x_a invariant; such data collide on one x_a-node
once ``grid.restrict_modes`` has put them on their support grid.  The
gain, the loss, the oracle and ``collide_trajectory`` share that
x-grid.  ``collide_trajectory`` synthesizes every active slice in one
batched x-transform, forms the loss from the same columns as the gain
and analyzes gain minus loss in one batched x-transform; ``collide`` is
its one-slice case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .conventions import sphere_area
from .grid import (
    GridSpec,
    PhaseField,
    _check_same_grid,
    _x_coeffs,
    _x_sizes,
    _x_values,
    _xi_to_v_inplace,
    x_analyze,
    x_synthesize,
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
    """Nodes and weights on the unit sphere.  sphere_quadrature's weights
    are positive and sum to the full surface measure; a non-constant
    angular kernel is folded into the weights, which then need not be
    equal on antipodal nodes."""

    d: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    def antipode_map(self) -> np.ndarray:
        """Index map j -> j' with node[j'] == -node[j]; a ValueError if
        the node set is not antipodally symmetric."""
        out = np.empty(self.n_nodes, dtype=np.int64)
        for j, w in enumerate(self.nodes):
            dist = np.linalg.norm(self.nodes + w, axis=1)
            k = int(np.argmin(dist))
            if dist[k] > 1e-12:
                raise ValueError("quadrature nodes are not antipodally symmetric")
            out[j] = k
        return out


def sphere_quadrature(d: int, n_nodes: int) -> SphereQuadrature:
    """Quadrature on S^(d-1): uniform angles for d=2 (spectrally accurate),
    Gauss-Legendre (polar) x uniform (azimuthal) product rule for d=3.
    Both are antipodally symmetric, which the gain kernel needs.

    For d=2 the node count must be even.  For d=3 it must be the
    product n_polar * 2*n_polar = 2k^2 with k >= 2 (8, 18, 32, 50, ...).
    """
    if n_nodes < 4:
        raise ValueError(f"need at least 4 nodes, got {n_nodes}")
    if d == 2:
        if n_nodes % 2:
            raise ValueError(f"d=2 needs an even node count, got {n_nodes}")
        theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        weights = np.full(n_nodes, 2.0 * np.pi / n_nodes)
        return SphereQuadrature(2, nodes, weights)
    if d == 3:
        n_polar = math.isqrt(n_nodes // 2)
        if n_nodes != 2 * n_polar**2:
            near = [c for c in (2 * n_polar**2, 2 * (n_polar + 1) ** 2) if c >= 8]
            raise ValueError(
                f"d=3 needs a node count 2k^2 with k >= 2, got {n_nodes}; "
                f"nearest: {' or '.join(map(str, near))}"
            )
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
# x-dealiasing: the size of the padded x-grid (3/2 rule).


def _padded_count(n_modes: int, dealias: bool) -> int:
    if not dealias:
        return n_modes
    m = (3 * n_modes + 1) // 2
    return m + (m % 2)


def _flatten_xv(grid: GridSpec, values: np.ndarray, m) -> np.ndarray:
    """(x-grid of size m, P..v..) -> (P^d, x-nodes): one v-coefficient
    column per x-node."""
    x_size, v_size = math.prod(_x_sizes(grid, m)), grid.v_points**grid.d
    return values.reshape(x_size, v_size).T


def _unflatten_xv(grid: GridSpec, cols: np.ndarray, m) -> np.ndarray:
    return cols.T.reshape(_x_sizes(grid, m) + (grid.v_points,) * grid.d)


# ---------------------------------------------------------------------------
# Antipodal-pair stacks and their cache.  For a node pair omega_k = -omega_j
# the stack holds the float64 rows [Re M_j; Re M_k[nyq]; Im M_j; -Im M_k[nyq]],
# nyq being the xi rows with a +P/2 component.  The stacks depend only on
# (grid, quadrature).  A Picard solve batches every time slice into one
# gain call per sweep, so the cache saves one build per sweep; the cap
# keeps large grids from holding them between calls.  The check counts
# n_nodes complex P^d x P^d matrices; the n_nodes/2 real stacks take
# about half of that.  One slot.

_MAT_CACHE: dict = {}
_MAT_CACHE_CAP_BYTES = 500_000_000
# columns per block of the pair products (and stack rows per fill step):
# the elementwise work on one block stays in L2
_GAIN_BLOCK = 256


def _quad_key(quad: SphereQuadrature) -> tuple:
    return (quad.d, quad.nodes.tobytes(), quad.weights.tobytes())


def _plus_points(grid: GridSpec, omega: np.ndarray) -> np.ndarray:
    """xi+ = (xi + |xi| omega)/2 over the xi-grid, shape (P^d, d)."""
    xi = grid.xi_vectors()
    radius = np.linalg.norm(xi, axis=1)
    return 0.5 * (xi + radius[:, None] * omega)


def _mirror_rows(grid: GridSpec):
    """(nyq, gather): the flat xi rows with a +P/2 component, whose
    negative is off the grid, and the row map that takes the pair
    product to M_k (see _pair_values): row -xi for the others, the
    directly evaluated row for these."""
    p, d = grid.v_points, grid.d
    idx = np.indices((p,) * d).reshape(d, -1)
    nyq = np.flatnonzero(np.any(idx == p // 2, axis=0))
    gather = np.ravel_multi_index((-idx) % p, (p,) * d)
    gather[nyq] = p**d + np.arange(nyq.size)
    return nyq, gather


def _fill_pair_stack(
    grid: GridSpec, omega: np.ndarray, nyq: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write the stack of the pair (omega, -omega) into ``out``, shape
    (2 (P^d + nyq.size), P^d), from _GAIN_BLOCK complex rows at a time."""
    pts = np.concatenate([_plus_points(grid, omega), _plus_points(grid, -omega)[nyq]])
    h = len(pts)
    for r0 in range(0, h, _GAIN_BLOCK):
        r1 = min(r0 + _GAIN_BLOCK, h)
        mat = xi_phase_matrix(grid, pts[r0:r1])
        out[r0:r1] = mat.real
        out[h + r0 : h + r1] = mat.imag
    out[2 * h - nyq.size :] *= -1.0
    return out


def _gain_cache_path(grid: GridSpec, quad: SphereQuadrature) -> str:
    """The path the next gain call takes for its stacks: "bypass" when
    n_nodes node matrices would exceed the cap, else "hit" or "miss"."""
    n_pts = grid.v_points**grid.d
    if quad.n_nodes * n_pts * n_pts * 16 > _MAT_CACHE_CAP_BYTES:
        return "bypass"
    return "hit" if (grid, _quad_key(quad)) in _MAT_CACHE else "miss"


def _pair_stacks(
    grid: GridSpec, quad: SphereQuadrature, pairs: list, nyq: np.ndarray
):
    """The stacks of ``pairs`` in order: the cached list (built on a
    miss), or, on a bypass, one buffer refilled per pair."""
    n_pts = grid.v_points**grid.d
    shape = (2 * (n_pts + nyq.size), n_pts)
    path = _gain_cache_path(grid, quad)
    if path == "bypass":
        buf = np.empty(shape)
        return (_fill_pair_stack(grid, quad.nodes[j], nyq, buf) for j, _ in pairs)
    key = (grid, _quad_key(quad))
    if path == "miss":
        stacks = [_fill_pair_stack(grid, quad.nodes[j], nyq, np.empty(shape)) for j, _ in pairs]
        _MAT_CACHE.clear()
        _MAT_CACHE[key] = stacks
    return _MAT_CACHE[key]


def _pair_values(stack: np.ndarray, cols: np.ndarray, gather: np.ndarray):
    """(M_j c, M_k c) on the xi-grid for one pair's stack and a column
    block c (contiguous last axis).  The Re rows act on c and the Im rows
    on i c, both as real products; their sum is M_j c, and their
    difference, gathered, is M_k c = conj(M_j)[-xi] c."""
    h = stack.shape[0] // 2
    re = (stack[:h] @ cols.view(np.float64)).view(np.complex128)
    im = (stack[h:] @ (1j * cols).view(np.float64)).view(np.complex128)
    n = gather.size
    mj = re[:n] + im[:n]
    re -= im
    return mj, re.take(gather, axis=0)


def _gain_columns(
    grid: GridSpec, quad: SphereQuadrature, fv: np.ndarray, gv: np.ndarray
) -> np.ndarray:
    """Gain on the v-grid for flattened column data (P^d, ncols).

    Antipodal node pairs share one stack and one real product per column
    block (_pair_values); a node set without antipodal symmetry is a
    ValueError.  The xi-grid sum returns to v in place by the FFT of
    xi_to_v.
    """
    anti = quad.antipode_map()
    w = quad.weights
    same = gv is fv
    fv = np.ascontiguousarray(fv)
    gv = fv if same else np.ascontiguousarray(gv)
    gain_xi = np.zeros(fv.shape, dtype=np.complex128)
    pairs = [(j, int(k)) for j, k in enumerate(anti) if j < k]
    nyq, gather = _mirror_rows(grid)
    for (j, k), stack in zip(pairs, _pair_stacks(grid, quad, pairs, nyq)):
        for c0 in range(0, fv.shape[1], _GAIN_BLOCK):
            sl = slice(c0, c0 + _GAIN_BLOCK)
            fj, fk = _pair_values(stack, fv[:, sl], gather)
            if same:
                # node j gives w_j fj fk, node k gives w_k fk fj
                fj *= fk
                fj *= w[j] + w[k]
            else:
                gj, gk = _pair_values(stack, gv[:, sl], gather)
                fj *= gk
                fj *= w[j]
                fk *= gj
                fk *= w[k]
                fj += fk
            gain_xi[:, sl] += fj

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
    same = g is f or np.array_equal(g.data, f.data)
    m = _padded_count(grid.n_modes, dealias)
    fv = _flatten_xv(grid, x_synthesize(f, m), m)
    gv = fv if same else _flatten_xv(grid, x_synthesize(g, m), m)
    gain_v = _gain_columns(grid, quad, fv, gv)
    return x_analyze(grid, _unflatten_xv(grid, gain_v, m), m)


def collide_trajectory(
    stack: np.ndarray,
    grid: GridSpec,
    quad: SphereQuadrature,
    dealias: bool = True,
    active=None,
) -> np.ndarray:
    """Q(f_j, f_j) = gain - loss for a stack of fields, shape (S,) + grid.shape.

    Batches every active slice into one gain evaluation so the node
    stacks (or their cached copies) are applied once per call; ``active``
    is an optional boolean mask of slices to process (others return
    zero).  The active slices are x-synthesized together and analyzed
    together, one transform over the whole batch each way.  The loss,
    area * f(x, v) * dv^d sum_u f(x, u) with area the quadrature's total
    weight, comes from the same synthesized columns.

    The padded x-grid follows the grid's mode counts: on the (8, 1)
    support grid of x_1-only data with n_modes = 8, each slice costs 12
    gain columns, not the 144 of the full 12x12 grid.
    """
    return _collide_stack(stack, grid, quad, dealias, active)


def _collide_stack(stack, grid, quad, dealias, active):
    """Body of :func:`collide_trajectory`, shared with :func:`collide`."""
    if quad.d != grid.d:
        raise ValueError("quadrature dimension does not match grid")
    if active is None:
        active = np.ones(stack.shape[0], dtype=bool)
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return np.zeros_like(stack)
    sizes = _x_sizes(grid, _padded_count(grid.n_modes, dealias))
    n_v = grid.v_points**grid.d
    # one column of v-coefficients per (slice, x-node), C-contiguous: the
    # loss's column sums below are taken in that layout, which fixes their
    # rounding.  Each staging array spans the whole window, so it is
    # dropped as soon as it is used and the solve's peak memory stays
    # that of the gain.
    values = _x_values(grid, stack[idx], sizes)
    cols = np.ascontiguousarray(values.reshape(-1, n_v).T)
    del values
    q_v = _gain_columns(grid, quad, cols, cols)
    mass = grid.dv**grid.d * cols.sum(axis=0)
    cols *= float(np.sum(quad.weights)) * mass
    q_v -= cols
    del cols
    q = _x_coeffs(grid, q_v.T.reshape((idx.size,) + sizes + (grid.v_points,) * grid.d), sizes)
    del q_v
    out = np.zeros_like(stack)
    out[idx] = q
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
    same = g is f or np.array_equal(g.data, f.data)
    m = _padded_count(grid.n_modes, dealias)
    fx = x_synthesize(f, m)
    gx = fx if same else x_synthesize(g, m)
    g0 = grid.dv**grid.d * gx.sum(axis=tuple(range(grid.d, 2 * grid.d)))
    if area is None:
        area = sphere_area(grid.d)
    values = area * fx * g0[(...,) + (None,) * grid.d]
    return x_analyze(grid, values, m)


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


# x-nodes per interpolation product of the oracle
_ORACLE_X_CHUNK = 8


def gain_direct_oracle(
    f: PhaseField, g: PhaseField, quad: SphereQuadrature, dealias: bool = True
) -> PhaseField:
    """Slow reference gain term: physical-space scattering quadrature.

    Per x-node, sums ``dv^d * w_j * f(v - (omega.(v-u)) omega)
    * g(u + (omega.(v-u)) omega)`` over the velocity grid and sphere
    nodes with multilinear interpolation (zero outside the box).
    Cost O(v_points^(2d) * n_nodes / 2) per x-node.

    The scattering map v* = v - ((v-u).omega) omega is the same for
    omega and -omega, so each antipodal node pair (j, k) takes one term
    weighted w_j + w_k; a node set without antipodal symmetry is a
    ValueError.  The endpoints satisfy u*(v, u) = v*(u, v), so one
    interpolation operator serves both factors (the second with the
    (v, u) axes swapped).  Interpolation runs in single precision; the
    interpolation error dwarfs the rounding.
    """
    _check_same_grid(f, g)
    grid = f.grid
    if quad.d != grid.d:
        raise ValueError("quadrature dimension does not match grid")
    m = _padded_count(grid.n_modes, dealias)
    fv = _flatten_xv(grid, x_synthesize(f, m), m).astype(np.complex64)
    same = g is f or np.array_equal(g.data, f.data)
    gv = fv if same else _flatten_xv(grid, x_synthesize(g, m), m).astype(np.complex64)

    vv = grid.v_vectors()
    n_v, n_x = fv.shape
    w = quad.weights
    out = np.zeros((n_v, n_x), dtype=np.complex128)
    for j, k in enumerate(quad.antipode_map()):
        if j > k:
            continue
        omega = quad.nodes[j]
        # post-collision endpoint for all (v, u) grid pairs
        dot = (vv @ omega)[:, None] - (vv @ omega)[None, :]  # (v, u)
        v_star = vv[:, None, :] - dot[:, :, None] * omega
        s_op = _interp_matrix(grid, v_star.reshape(-1, grid.d))
        for lo in range(0, n_x, _ORACLE_X_CHUNK):
            sl = slice(lo, min(lo + _ORACLE_X_CHUNK, n_x))
            nc = sl.stop - sl.start
            f_star = (s_op @ fv[:, sl]).reshape(n_v, n_v, nc)
            g_vu = f_star if same else (s_op @ gv[:, sl]).reshape(n_v, n_v, nc)
            out[:, sl] += ((w[j] + w[k]) * grid.dv**grid.d) * np.einsum(
                "vux,uvx->vx", f_star, g_vu
            )
    values = _unflatten_xv(grid, out, m)
    return x_analyze(grid, values, m)


def collide(f: PhaseField, quad: SphereQuadrature, dealias: bool = True) -> PhaseField:
    """Full collision operator, gain minus loss, spectral path: the
    one-slice case of :func:`collide_trajectory`.

    The loss uses the quadrature's total weight as the angular measure so
    that gain and loss cancel exactly at xi = 0 (discrete mass
    conservation) for any weighting, including zeroed weights.
    """
    q = _collide_stack(f.data[None], f.grid, quad, dealias, None)
    return PhaseField(f.grid, q[0])


def moments(fld: PhaseField) -> tuple:
    """Discrete v-integrals of f * {1, v, |v|^2} per x-node.

    Returns (mass, momentum, energy) with shapes (nx..), (nx.., d), (nx..).
    """
    grid = fld.grid
    fx = x_synthesize(fld)
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
