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
(-xi is not on the grid) are evaluated directly.  The stacks live on
the half-cell-shifted grid w = v + dv/2, symmetric about 0, where
M_j = exp(-i (dv/2) sum_a eta_a) W_j and Re W_j, Im W_j are even and
odd in w: over the half w_1 > 0 they act on the even and odd folds
c(w) +- c(-w) of the columns, so each real product takes half the
columns.  xi_plus + xi_minus = xi, so the shift leaves one phase,
exp(-i (dv/2) sum_a xi_a), applied to the xi-grid sum on its way back
to v.  Columns go through in blocks of whole slices, each folded once,
so the elementwise work stays in cache.

Q is local in x and the products are pointwise per x-node, on one
x-grid shared by the gain, the loss, the oracle and
``collide_trajectory``.  ``_padded_sizes`` is the one statement of that
grid: quadratic products in x are always formed on the zero-padded
x-nodes of the 3/2 rule, on every axis of count n_modes, and an axis
of count 1 gets one x-node; no data are read to size it.  The phase
matrices act on v alone and commute with the x-synthesis, so the gain
applies them to the stored modes, ``_mode_columns`` (P^d, slices *
modes), and takes each pair's values to the x-nodes by the per-axis
synthesis matrices of :mod:`kflab.grid` before the pointwise product:
2.25x fewer GEMM columns than x-nodes on a full d=2 grid, 3.4x in d=3.
The loss and the oracle act on x-values: ``_x_columns`` synthesizes
coefficients onto the x-grid as C-contiguous columns (P^d, slices *
x-nodes), through the x-transforms of :mod:`kflab.grid`, which own the
Nyquist-slot convention, and ``_x_from_columns`` analyzes columns back
to the stored modes; the gain returns such columns too.  The loss is
one formula on columns, ``_loss_columns``.  Q keeps data exactly
invariant along x_a invariant; such data collide on one x_a-node once
``grid.restrict_modes`` has put them on their support grid.  The
oracle restricts its two arguments to their joint support itself.
``collide_trajectory`` takes every active slice through one batched
gain and one batched column pair for the loss; ``collide`` is its
one-slice case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conventions import sphere_area
from .grid import (
    GridSpec,
    PhaseField,
    _check_same_grid,
    _x_coeffs,
    _x_synthesis_matrices,
    _x_values,
    _x_values_front,
    _xi_to_v_inplace,
    embed_modes,
    restrict_modes,
    x_synthesize,
    xi_phase_matrix,
)
from .trajectory import Trajectory

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
# The one x-path: the padded x-grid (3/2 rule), the column pair and the loss.


def _padded_sizes(grid: GridSpec) -> tuple:
    """Per-axis size of the collision's x-grid: the even 3/2-rule count
    on an axis of count n_modes, one x-node on an axis of count 1."""
    m = (3 * grid.n_modes + 1) // 2
    m += m % 2
    return tuple(m if c > 1 else 1 for c in grid.mode_counts)


def _mode_columns(grid: GridSpec, data: np.ndarray) -> np.ndarray:
    """``data`` (trailing axes the v-grid, any leading axes) as C-contiguous
    columns (P^d, rest): one column of v-values per leading index; for
    coefficients, one per (slice, stored mode)."""
    return np.ascontiguousarray(data.reshape(-1, grid.v_points**grid.d).T)


def _x_columns(grid: GridSpec, data: np.ndarray, sizes: tuple) -> np.ndarray:
    """Coefficients ``data`` (trailing axes grid.shape, any leading axes)
    as C-contiguous columns (P^d, slices * x-nodes): one column of
    v-values per (slice, x-node) of the x-grid of ``sizes``."""
    return _mode_columns(grid, _x_values(grid, data, sizes))


def _x_from_columns(grid: GridSpec, cols: np.ndarray, sizes: tuple) -> np.ndarray:
    """Inverse of _x_columns: the stored modes, shape (slices,) + grid.shape."""
    values = cols.T.reshape((-1,) + sizes + (grid.v_points,) * grid.d)
    return _x_coeffs(grid, values, sizes)


def _loss_columns(grid: GridSpec, area: float, fv: np.ndarray, gv: np.ndarray):
    """The loss area * f(x, v) * (dv^d sum_u g(x, u)) on columns, written
    into ``fv`` (which may be ``gv``) and returned.  The v-sums are column
    sums of the C-contiguous layout, which fixes their rounding."""
    fv *= area * (grid.dv**grid.d * gv.sum(axis=0))
    return fv


def _pair_columns(f: PhaseField, g: PhaseField, columns):
    """(columns(f.data), columns(g.data)); one array for both when g's
    data equal f's, which the gain and the oracle take as one argument."""
    _check_same_grid(f, g)
    fv = columns(f.data)
    same = g is f or np.array_equal(g.data, f.data)
    return fv, fv if same else columns(g.data)


# ---------------------------------------------------------------------------
# Antipodal-pair stacks and their cache.  For a node pair omega_k = -omega_j
# the stack holds the float64 rows [Re W_j; Re W_k[nyq]; Im W_j; -Im W_k[nyq]]
# over the P^d/2 columns w_1 > 0 of the shifted grid w = v + dv/2, W being
# M without the shift's row phase and nyq the xi rows with a +P/2
# component.  The stacks depend only on (grid, quadrature).  A Picard
# solve batches every time slice into one gain call per sweep, so the
# cache saves one build per sweep; the cap keeps large grids from holding
# them between calls.  The check counts n_nodes dense complex P^d x P^d
# matrices, about four times the bytes of the n_nodes/2 half stacks, and
# it must stay so: counting the stacks themselves would cache bench
# gain-fine's 16 stacks (142 MB) and raise its peak memory by as much.
# One slot.

_MAT_CACHE: dict = {}
_MAT_CACHE_CAP_BYTES = 500_000_000
# mode columns per block of the pair products, a block being whole
# slices: the elementwise work on one block stays in L2
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
    (2 (P^d + nyq.size), P^d / 2): the real and imaginary parts of
    xi_phase_matrix on the shifted nodes (w_1 > 0, w, ...), w = v + dv/2
    taken symmetric to the bit, a block of complex rows at a time; each
    block's phase matrix takes at most 1 MiB (128 rows at P^d = 1024)."""
    pts = np.concatenate([_plus_points(grid, omega), _plus_points(grid, -omega)[nyq]])
    half = grid.dv * (np.arange(grid.v_points // 2) + 0.5)
    nodes = [half] + [np.concatenate([-half[::-1], half])] * (grid.d - 1)
    h = len(pts)
    rows = max(1, (1 << 16) // out.shape[1])
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        mat = xi_phase_matrix(grid, pts[r0:r1], nodes)
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
    shape = (2 * (n_pts + nyq.size), n_pts // 2)
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


def _flat(buf: np.ndarray, shape: tuple) -> np.ndarray:
    """The leading entries of the flat buffer ``buf`` as a C-contiguous
    array of ``shape``."""
    return buf[: math.prod(shape)].reshape(shape)


def _fold(cols: np.ndarray) -> tuple:
    """The (even, odd) folds of columns c (P^d rows, the v-grid in flat C
    order) over the half w_1 > 0 of the shifted grid, rows P^d/2 on:
    c(w) + c(-w) and c(w) - c(-w), the mirror -w of row r being row
    P^d - 1 - r.  Both are C-contiguous (P^d/2, columns)."""
    n = cols.shape[0] // 2
    top, mirror = cols[n:], cols[n - 1 :: -1]
    return top + mirror, top - mirror


def _pair_values(stack: np.ndarray, folds: tuple, gather: np.ndarray, groups: int, work):
    """The xi-grid values of one pair's products, without the shift's
    common phase, for its stack and the (even, odd) folds (_fold) of a
    column block c of f's columns, then g's if ``groups`` is 2: shape
    (products, 2, P^d, group columns), each product the two factors it
    multiplies, (W_j f, W_k f) for f alone, else (W_j f, W_k g) and
    (W_k f, W_j g).  The Re rows act on the even fold and the Im rows on
    the odd fold times i, both as real products; their sum is W_j c, and
    their difference, gathered, is W_k c = conj(W_j)[-xi] c.  ``work``
    holds three flat complex buffers, for the two products and the
    result, which the next call overwrites."""
    h = stack.shape[0] // 2
    n, m = gather.size, folds[0].shape[1]
    b = m // groups
    re, im = _flat(work[0], (h, m)), _flat(work[1], (h, m))
    np.matmul(stack[:h], folds[0].view(np.float64), out=re.view(np.float64))
    np.matmul(stack[h:], folds[1].view(np.float64), out=im.view(np.float64))
    im *= 1j
    out = _flat(work[2], (groups, 2, n, b))
    # where W_j c and W_k c of each group go
    slots = [(out[0, 0], out[0, 1])] if groups == 1 else [(out[0, 0], out[1, 0]),
                                                          (out[1, 1], out[0, 1])]
    for k, (mj, _) in enumerate(slots):
        np.add(re[:n, k * b : (k + 1) * b], im[:n, k * b : (k + 1) * b], out=mj)
    re -= im
    for k, (_, mk) in enumerate(slots):
        np.take(re[:, k * b : (k + 1) * b], gather, axis=0, out=mk, mode="clip")
    return out


def _pair_sums(grid, quad, blocks, groups, sizes):
    """Add to each block's xi-grid gain (x-node, xi, slice) the weighted
    pointwise products of every antipodal pair over the block's column
    folds (_pair_values), their two factors taken to the x-nodes by the
    synthesis matrices of grid.  The temporaries live in buffers sized
    for the first (largest) block and are freed on return."""
    w = quad.weights
    pairs = [(j, int(k)) for j, k in enumerate(quad.antipode_map()) if j < k]
    nyq, gather = _mirror_rows(grid)
    mats = _x_synthesis_matrices(grid, sizes)
    # the stacks first, so that a cache miss builds them below the buffers
    stacks = _pair_stacks(grid, quad, pairs, nyq)
    n, h = gather.size, gather.size + nyq.size
    m = blocks[0][0][0].shape[1]
    # the Re and Im products, the factors, one product's factors at the x-nodes
    work = [np.empty(k, dtype=np.complex128)
            for k in (h * m, h * m, 2 * n * m, 2 * n * m // groups * math.prod(sizes)
                      // math.prod(grid.mode_counts))]
    for (j, k), stack in zip(pairs, stacks):
        # node j gives w_j f_j g_k and node k gives w_k f_k g_j: for f
        # alone, one product
        weights = [w[j] + w[k]] if groups == 1 else [w[j], w[k]]
        for folds, acc in blocks:
            for factors, weight in zip(_pair_values(stack, folds, gather, groups, work), weights):
                vals = _x_values_front(mats, factors.reshape((-1,) + grid.mode_counts), work[3])
                vals = vals.reshape((acc.shape[0], 2) + acc.shape[1:])
                prod = vals[:, 0]
                prod *= vals[:, 1]
                prod *= weight
                acc += prod


def _gain_columns(
    grid: GridSpec, quad: SphereQuadrature, fc: np.ndarray, gc: np.ndarray, sizes: tuple
) -> np.ndarray:
    """Gain on the v-grid at the x-nodes of ``sizes``, as the columns of
    _x_columns, for the stored-mode columns ``fc`` and ``gc`` (gc may be
    fc) of _mode_columns, shape (P^d, slices * prod(mode_counts)).

    Antipodal node pairs share one stack and one real product per column
    block, a run of whole slices with at most _GAIN_BLOCK mode columns
    (or one slice); when gc is not fc, the block's f and g columns share
    the product (_pair_values), on the block's (even, odd) folds (_fold),
    formed once.  The phase matrices act on v alone, so they commute with
    the x-synthesis: the products act on the stored modes, and the
    synthesis matrices of grid take the two factors of each pointwise
    product to the x-nodes (_pair_sums).  A node set without antipodal
    symmetry is a ValueError.  The xi-grid sum, times the shift's common
    phase, returns to v in place by the FFT of xi_to_v.
    """
    p, d = grid.v_points, grid.d
    n_modes = math.prod(grid.mode_counts)
    n_slices = fc.shape[1] // n_modes
    step = max(1, _GAIN_BLOCK // n_modes)
    same = gc is fc
    # per block: its column folds, and its xi-grid gain at (x-node, xi,
    # slice), the layout of _x_values_front
    blocks = []
    for s0 in range(0, n_slices, step):
        sl = slice(s0 * n_modes, min(s0 + step, n_slices) * n_modes)
        cols = fc[:, sl] if same else np.concatenate([fc[:, sl], gc[:, sl]], axis=1)
        shape = (math.prod(sizes), p**d, sl.stop // n_modes - s0)
        blocks.append((_fold(cols), np.zeros(shape, dtype=np.complex128)))
    _pair_sums(grid, quad, blocks, 1 if same else 2, sizes)

    # to the columns of _x_columns: (xi, slice, x-node)
    gain_xi = np.concatenate([acc.transpose(1, 2, 0) for _, acc in blocks], axis=1)
    del blocks
    gain_v = _xi_to_v_inplace(grid, gain_xi.reshape((p,) * d + (-1,)), tuple(range(d)),
                              grid.dv / 2)
    return gain_v.reshape(p**d, -1)


def gain_bobylev(f: PhaseField, g: PhaseField, quad: SphereQuadrature) -> PhaseField:
    """Spectral gain term via the velocity-dual sphere integral.

    Per x-node, evaluates ``sum_j w_j ftil(xi_plus_j) gtil(xi_minus_j)``
    on the xi-grid by exact off-grid trigonometric sums, then transforms
    back to the (n, v) representation.  The sums act on the stored modes
    of f and g, in one product per pair when g is not f; only their
    values at the padded x-nodes are synthesized (_gain_columns).
    """
    grid = f.grid
    if quad.d != grid.d:
        raise ValueError("quadrature dimension does not match grid")
    sizes = _padded_sizes(grid)
    fc, gc = _pair_columns(f, g, lambda data: _mode_columns(grid, data))
    return PhaseField(grid, _x_from_columns(grid, _gain_columns(grid, quad, fc, gc, sizes), sizes)[0])


def collide_trajectory(
    stack: np.ndarray,
    grid: GridSpec,
    quad: SphereQuadrature,
    active=None,
) -> np.ndarray:
    """Q(f_j, f_j) = gain - loss for a stack of fields, shape (S,) + grid.shape.

    Batches every active slice into one gain evaluation so the node
    stacks (or their cached copies) are applied once per call; ``active``
    is an optional boolean mask of slices to process (others return
    zero).  The gain takes the stored modes of the active slices; for
    the loss, area * f(x, v) * dv^d sum_u f(x, u) with area the
    quadrature's total weight, they are x-synthesized together, and
    gain minus loss is analyzed together, one transform over the whole
    batch each way.

    The padded x-grid follows the grid's mode counts: on the (8, 1)
    support grid of x_1-only data with n_modes = 8, each slice costs 8
    gain columns and 12 x-nodes, not the 64 and 144 of the full grid.
    """
    return _collide_stack(stack, grid, quad, active)


def _collide_stack(stack, grid, quad, active):
    """Body of :func:`collide_trajectory`, shared with :func:`collide`."""
    if quad.d != grid.d:
        raise ValueError("quadrature dimension does not match grid")
    if active is None:
        active = np.ones(stack.shape[0], dtype=bool)
    idx = np.flatnonzero(active)
    if idx.size == 0:
        return np.zeros_like(stack)
    sizes = _padded_sizes(grid)
    # each staging array spans the whole window, so it is dropped as soon
    # as it is used and the solve's peak memory stays that of the gain;
    # the x-columns are synthesized after the gain, for the loss alone,
    # which is formed in them in place
    modes = _mode_columns(grid, stack[idx])
    q_v = _gain_columns(grid, quad, modes, modes, sizes)
    del modes
    cols = _x_columns(grid, stack[idx], sizes)
    q_v -= _loss_columns(grid, float(np.sum(quad.weights)), cols, cols)
    del cols
    q = _x_from_columns(grid, q_v, sizes)
    del q_v
    out = np.zeros_like(stack)
    out[idx] = q
    return out


def loss_bobylev(f: PhaseField, g: PhaseField) -> PhaseField:
    """Loss term: |S^(d-1)| * f(x, v) * (discrete integral of g(x, .) dv).

    The angular measure is the full sphere area, which is the total
    weight of every rule sphere_quadrature builds, so this is the loss
    that :func:`collide` subtracts.
    """
    grid = f.grid
    sizes = _padded_sizes(grid)
    fv, gv = _pair_columns(f, g, lambda data: _x_columns(grid, data, sizes))
    loss = _loss_columns(grid, sphere_area(grid.d), fv, gv)
    return PhaseField(grid, _x_from_columns(grid, loss, sizes)[0])


def _interp_matrix(grid: GridSpec, points: np.ndarray):
    """Multilinear interpolation on the v-grid as a sparse CSR operator,
    zero extension outside [-V, V)^d.  points: (npts, d).  scipy.sparse
    is imported here, so that only the oracle loads it."""
    from scipy import sparse

    d, p = grid.d, grid.v_points
    rel = ((points + grid.v_extent) / grid.dv).T
    lo = np.floor(rel).astype(np.int64)
    frac = rel - lo
    # per axis, for the lower and the upper tap: index, weight, in the box
    taps = [
        [(idx, wgt.astype(np.float32), (idx >= 0) & (idx < p))
         for idx, wgt in ((lo[i], 1.0 - frac[i]), (lo[i] + 1, frac[i]))]
        for i in range(d)
    ]
    npts = len(points)
    n_taps = 1 << d
    cols = np.empty((npts, n_taps), dtype=np.int32)
    vals = np.empty((npts, n_taps), dtype=np.float32)
    for corner in range(n_taps):
        flat, wgt, inside = 0, np.float32(1.0), True
        for i in range(d):
            idx, w, ok = taps[i][(corner >> i) & 1]
            flat = flat * p + idx
            wgt = wgt * w
            inside = inside & ok
        # zero extension: out-of-box taps keep column 0 with weight 0
        cols[:, corner] = np.where(inside, flat, 0)
        vals[:, corner] = np.where(inside, wgt, np.float32(0.0))
    indptr = n_taps * np.arange(npts + 1, dtype=np.int64)
    return sparse.csr_matrix(
        (vals.ravel(), cols.ravel(), indptr), shape=(npts, p**d)
    )


# x-nodes per interpolation product of the oracle
_ORACLE_X_CHUNK = 8


def gain_direct_oracle(f: PhaseField, g: PhaseField, quad: SphereQuadrature) -> PhaseField:
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

    Q is local in x, so the oracle runs on the joint x-support of f and
    g (one restrict_modes of the pair) and embeds its result: on
    x_1-only data with n_modes = 8 it visits 12 x-nodes, not 144.
    """
    _check_same_grid(f, g)
    if quad.d != f.grid.d:
        raise ValueError("quadrature dimension does not match grid")
    # f and g as one two-slice stack (its t_half is unused), so that one
    # restrict_modes call takes their joint support
    pair = restrict_modes(Trajectory(f.grid, 1.0, np.stack([f.data, g.data])))
    grid = pair.grid
    sizes = _padded_sizes(grid)
    fv, gv = _pair_columns(pair.slice_field(0), pair.slice_field(1),
                           lambda data: _x_columns(grid, data, sizes))
    same = gv is fv
    fv = fv.astype(np.complex64)
    gv = fv if same else gv.astype(np.complex64)

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
    q = PhaseField(grid, _x_from_columns(grid, out, sizes)[0])
    return restrict_modes(embed_modes(q), f.grid.mode_counts)


def collide(f: PhaseField, quad: SphereQuadrature) -> PhaseField:
    """Full collision operator, gain minus loss, spectral path: the
    one-slice case of :func:`collide_trajectory`.

    The loss uses the quadrature's total weight as the angular measure so
    that gain and loss cancel exactly at xi = 0 (discrete mass
    conservation) for any weighting, including zeroed weights.
    """
    q = _collide_stack(f.data[None], f.grid, quad, None)
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
