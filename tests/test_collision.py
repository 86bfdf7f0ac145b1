"""Collision operator: quadrature, gain/loss identities, oracle, moments."""

import numpy as np
import pytest

from kflab import (
    PhaseField,
    collide,
    gain_bobylev,
    gain_direct_oracle,
    loss_bobylev,
    make_grid,
    maxwellian_perturbed,
    moments,
    sphere_area,
    sphere_quadrature,
)


def _grid(n_modes=4, v_points=24, V=6.0):
    return make_grid(d=2, n_modes=n_modes, v_points=v_points, v_extent=V)


def _random_nonneg(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.random((grid.v_points,) * grid.d)
    vv = grid.v_vectors().reshape((grid.v_points,) * grid.d + (grid.d,))
    vals = vals * np.exp(-np.sum(vv**2, axis=-1))
    data = np.zeros(grid.shape, dtype=np.complex128)
    data[(0,) * grid.d] = vals
    return PhaseField(grid, data)


def test_circle_quadrature_nodes_weights():
    quad = sphere_quadrature(2, 8)
    assert quad.nodes.shape == (8, 2)
    assert np.allclose(quad.weights, np.pi / 4.0)
    assert np.allclose(np.linalg.norm(quad.nodes, axis=1), 1.0, atol=1e-14)
    # integral of 1 over the circle
    assert np.sum(quad.weights) == pytest.approx(2.0 * np.pi, rel=1e-14)
    # integral of (omega . e1)^2 over the circle is pi
    val = np.sum(quad.weights * quad.nodes[:, 0] ** 2)
    assert val == pytest.approx(np.pi, abs=1e-12)


def test_sphere_quadrature_d3():
    quad = sphere_quadrature(3, 32)
    assert np.sum(quad.weights) == pytest.approx(4.0 * np.pi, rel=1e-12)
    val = np.sum(quad.weights * quad.nodes[:, 2] ** 2)
    assert val == pytest.approx(4.0 * np.pi / 3.0, rel=1e-10)
    anti = quad.antipode_map()
    assert np.allclose(quad.nodes[anti], -quad.nodes, atol=1e-12)


def test_gain_maxwellian_identity():
    # Q+(mu, mu) = |S^{d-1}| mu(v) (dv^d sum mu) by collision invariance
    g = _grid(v_points=32)
    mu = maxwellian_perturbed(g, eps=0.0)
    quad = sphere_quadrature(2, 32)
    gain = gain_bobylev(mu, mu, quad)
    mass = g.dv**g.d * np.sum(mu.data[(0,) * g.d].real)
    expected = sphere_area(2) * mass * mu.data
    defect = PhaseField(g, gain.data - expected)
    assert defect.l2_norm() / gain.l2_norm() <= 1e-2


def test_gain_bilinear_zero():
    g = _grid(v_points=16)
    f = _random_nonneg(g, 0)
    zero = PhaseField(g, np.zeros(g.shape, dtype=np.complex128))
    quad = sphere_quadrature(2, 8)
    assert gain_bobylev(f, zero, quad).l2_norm() == 0.0
    assert loss_bobylev(f, zero).l2_norm() == 0.0


def test_loss_matches_physical_formula():
    g = _grid(n_modes=4, v_points=16)
    rng = np.random.default_rng(1)
    f = PhaseField(g, rng.standard_normal(g.shape) + 0j)
    gg = PhaseField(g, rng.standard_normal(g.shape) + 0j)
    loss = loss_bobylev(f, gg, dealias=False)
    # physical side: |S^{d-1}| f(x,v) * (dv^d sum_u g(x,u)), pointwise in x
    from kflab import x_analyze, x_synthesize

    fx = x_synthesize(f)
    gx = x_synthesize(gg)
    dens = g.dv**g.d * np.sum(gx, axis=(2, 3))
    expected = x_analyze(g, sphere_area(2) * fx * dens[..., None, None])
    defect = PhaseField(g, loss.data - expected.data)
    assert defect.l2_norm() <= 1e-10 * max(1.0, loss.l2_norm())


def test_loss_mean_free_g_vanishes():
    g = _grid(n_modes=2, v_points=16)
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((g.v_points,) * 2)
    vals -= vals.mean()
    data = np.zeros(g.shape, dtype=np.complex128)
    data[0, 0] = vals
    gg = PhaseField(g, data)
    f = _random_nonneg(g, 3)
    assert loss_bobylev(f, gg).l2_norm() <= 1e-12


def test_gain_matches_oracle():
    g = make_grid(d=2, n_modes=2, v_points=32, v_extent=6.0)
    f = _random_nonneg(g, 4)
    quad = sphere_quadrature(2, 64)
    fast = gain_bobylev(f, f, quad, dealias=False)
    slow = gain_direct_oracle(f, f, quad, dealias=False)
    diff = PhaseField(g, fast.data - slow.data)
    assert diff.l2_norm() / fast.l2_norm() <= 5e-2


def test_oracle_pairs_match_per_node_sum():
    # the oracle visits antipodal pairs with weight w_j + w_k; against the
    # sum over every node, with unequal antipodal weights and f != g
    from kflab import SphereQuadrature
    from kflab import x_analyze, x_synthesize
    from kflab.collision import _flatten_xv, _interp_matrix, _unflatten_xv

    g = _grid(n_modes=2, v_points=8)
    base = sphere_quadrature(2, 8)
    quad = SphereQuadrature(2, base.nodes, base.weights * (1.0 + 0.5 * base.nodes[:, 0]))
    f, h = _random_nonneg(g, 6), _random_nonneg(g, 7)
    fv = _flatten_xv(g, x_synthesize(f), 2).astype(np.complex64)
    hv = _flatten_xv(g, x_synthesize(h), 2).astype(np.complex64)
    vv = g.v_vectors()
    n_v = len(vv)
    out = 0.0
    for w, omega in zip(quad.weights, quad.nodes):
        dot = (vv @ omega)[:, None] - (vv @ omega)[None, :]
        s_op = _interp_matrix(g, (vv[:, None, :] - dot[:, :, None] * omega).reshape(-1, 2))
        f_star = (s_op @ fv).reshape(n_v, n_v, -1)
        h_star = (s_op @ hv).reshape(n_v, n_v, -1)
        out = out + w * g.dv**2 * np.einsum("vux,uvx->vx", f_star, h_star)
    expected = x_analyze(g, _unflatten_xv(g, out, 2))
    oracle = gain_direct_oracle(f, h, quad, dealias=False)
    assert _rel(oracle.data, expected.data) <= 1e-6


def test_oracle_nonnegative_output():
    g = _grid(n_modes=2, v_points=16)
    f = _random_nonneg(g, 5)
    quad = sphere_quadrature(2, 8)
    out = gain_direct_oracle(f, f, quad, dealias=False)
    from kflab import x_synthesize

    vals = x_synthesize(out)
    assert np.min(vals.real) >= -1e-6 * np.max(vals.real)
    assert np.max(np.abs(vals.imag)) <= 1e-6 * np.max(vals.real)


def test_collide_equilibrium_and_zero():
    g = _grid(v_points=32)
    mu = maxwellian_perturbed(g, eps=0.0)
    quad = sphere_quadrature(2, 32)
    q = collide(mu, quad)
    gain = gain_bobylev(mu, mu, quad)
    assert q.l2_norm() / gain.l2_norm() <= 1e-2
    zero = PhaseField(g, np.zeros(g.shape, dtype=np.complex128))
    assert collide(zero, quad).l2_norm() == 0.0


def test_moments_maxwellian():
    g = _grid(v_points=32)
    mu = maxwellian_perturbed(g, eps=0.0)
    mass, mom, energy = moments(mu)
    # integral of e^{-|v|^2} over R^2 is pi; V=6 tails are negligible
    assert abs(mass[0, 0] - np.pi) <= 1e-8
    assert np.max(np.abs(mom)) <= 1e-12
    assert abs(energy[0, 0] - np.pi) <= 1e-7


def test_collision_mass_exactly_zero():
    g = _grid(n_modes=4, v_points=16)
    f = _random_nonneg(g, 6)
    quad = sphere_quadrature(2, 16)
    q = collide(f, quad)
    mass, _, _ = moments(q)
    assert np.max(np.abs(mass)) <= 1e-12


def test_refinement_decreases_oracle_error():
    quad_lo = sphere_quadrature(2, 8)
    quad_hi = sphere_quadrature(2, 16)
    errs = []
    for v_points, quad in ((12, quad_lo), (24, quad_hi)):
        g = make_grid(d=2, n_modes=2, v_points=v_points, v_extent=6.0)
        f = _random_nonneg(g, 7)
        fast = gain_bobylev(f, f, quad, dealias=False)
        slow = gain_direct_oracle(f, f, quad, dealias=False)
        errs.append(
            PhaseField(g, fast.data - slow.data).l2_norm() / fast.l2_norm()
        )
    assert errs[1] < errs[0]


# ---------------------------------------------------------------------------
# Separable phase matrices and the FFT back-transform against the dense
# formulas they replace.


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _columns(grid, seed, ncols=6):
    rng = np.random.default_rng(seed)
    shape = (grid.v_points**grid.d, ncols)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _dense_phase(grid, pts):
    return np.exp(1j * (pts @ grid.v_vectors().T)) * grid.dv**grid.d


def _dense_inverse(grid):
    vv, xi = grid.v_vectors(), grid.xi_vectors()
    return np.exp(-1j * (vv @ xi.T)) * (grid.dxi / (2.0 * np.pi)) ** grid.d


def _dense_gain(grid, quad, fv, gv):
    """sum_j w_j ftil(xi+_j) gtil(xi-_j) with exp(i pts.v) per entry,
    back to v by the dense inverse phase."""
    xi = grid.xi_vectors()
    radius = np.linalg.norm(xi, axis=1)[:, None]
    gain_xi = 0.0
    for w, omega in zip(quad.weights, quad.nodes):
        plus = _dense_phase(grid, 0.5 * (xi + radius * omega)) @ fv
        minus = _dense_phase(grid, 0.5 * (xi - radius * omega)) @ gv
        gain_xi = gain_xi + w * plus * minus
    return _dense_inverse(grid) @ gain_xi


@pytest.mark.parametrize("d, v_points", [(2, 8), (2, 16), (3, 8)])
def test_phase_matrix_matches_dense_exp(d, v_points):
    from kflab.collision import _plus_points
    from kflab.grid import xi_phase_matrix

    g = make_grid(d=d, n_modes=2, v_points=v_points, v_extent=6.0)
    xi = g.xi_vectors()
    radius = np.linalg.norm(xi, axis=1)[:, None]
    for omega in sphere_quadrature(d, 8 if d == 2 else 18).nodes[:3]:
        pts = 0.5 * (xi + radius * omega)
        mat = xi_phase_matrix(g, _plus_points(g, omega))
        assert _rel(mat, _dense_phase(g, pts)) <= 1e-13
    pts = np.random.default_rng(8).uniform(-5.0, 5.0, (50, d))
    assert _rel(xi_phase_matrix(g, pts), _dense_phase(g, pts)) <= 1e-13


@pytest.mark.parametrize("d, v_points", [(2, 8), (2, 16), (3, 8)])
def test_fft_back_transform_matches_dense(d, v_points):
    from kflab.grid import _xi_to_v_inplace

    g = make_grid(d=d, n_modes=2, v_points=v_points, v_extent=6.0)
    cols = _columns(g, 9)
    expected = _dense_inverse(g) @ cols
    work = cols.reshape((v_points,) * d + (-1,)).copy()
    out = _xi_to_v_inplace(g, work, tuple(range(d)))
    assert _rel(out.reshape(cols.shape), expected) <= 1e-13


@pytest.mark.parametrize("d, v_points, n_nodes", [(2, 16, 16), (3, 8, 32)])
def test_gain_columns_match_dense(d, v_points, n_nodes):
    from kflab.collision import _gain_columns

    g = make_grid(d=d, n_modes=2, v_points=v_points, v_extent=6.0)
    quad = sphere_quadrature(d, n_nodes)
    fv, gv = _columns(g, 10), _columns(g, 11)
    assert _rel(_gain_columns(g, quad, fv, gv), _dense_gain(g, quad, fv, gv)) <= 1e-13
    # the fused same-argument accumulation against the f != g path
    fused = _gain_columns(g, quad, fv, fv)
    assert _rel(fused, _gain_columns(g, quad, fv, fv.copy())) <= 1e-13
    assert _rel(fused, _dense_gain(g, quad, fv, fv)) <= 1e-13


def test_gain_odd_node_count_rejected(tmp_path, capsys):
    from kflab import SphereQuadrature
    from kflab.cli import run
    from kflab.collision import _gain_columns, collide_trajectory

    with pytest.raises(ValueError, match="even"):
        sphere_quadrature(2, 15)
    # d=3 takes only the product counts 2k^2, k >= 2, and names the nearest
    with pytest.raises(ValueError, match="got 16; nearest: 8 or 18"):
        sphere_quadrature(3, 16)
    with pytest.raises(ValueError, match="nearest: 8$"):
        sphere_quadrature(3, 6)
    assert sphere_quadrature(3, 8).n_nodes == 8
    code = run(["gain-check", "d=3", "nodes=16", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "got 16" in capsys.readouterr().err
    # a hand-built odd circle rule has no antipodal pairs
    theta = 2.0 * np.pi * np.arange(15) / 15
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    quad = SphereQuadrature(2, nodes, np.full(15, 2.0 * np.pi / 15))
    g = make_grid(d=2, n_modes=2, v_points=8, v_extent=6.0)
    fv = _columns(g, 12)
    with pytest.raises(ValueError, match="antipodal"):
        _gain_columns(g, quad, fv, fv)
    stack = _random_nonneg(g, 13).data[None]
    with pytest.raises(ValueError, match="antipodal"):
        collide_trajectory(stack, g, quad)


def test_collide_matches_dense_gain():
    g = make_grid(d=2, n_modes=4, v_points=16, v_extent=6.0)
    from kflab import x_analyze, x_synthesize
    from kflab.collision import _flatten_xv, _padded_count, _unflatten_xv

    f = _random_nonneg(g, 14)
    quad = sphere_quadrature(2, 16)
    m = _padded_count(g.n_modes, True)
    fv = _flatten_xv(g, x_synthesize(f, m), m)
    gain = x_analyze(g, _unflatten_xv(g, _dense_gain(g, quad, fv, fv), m), m)
    loss = loss_bobylev(f, f, area=float(np.sum(quad.weights)))
    assert _rel(collide(f, quad).data, gain.data - loss.data) <= 1e-13


# ---------------------------------------------------------------------------
# The antipodal-pair kernel: column blocks, the cache bypass, a non-constant
# angular kernel, and the loss fused into collide_trajectory.


@pytest.mark.parametrize("d, v_points, n_nodes", [(2, 16, 16), (3, 8, 32)])
def test_gain_columns_blocks_match_dense(d, v_points, n_nodes):
    from kflab.collision import _GAIN_BLOCK, _gain_columns

    g = make_grid(d=d, n_modes=2, v_points=v_points, v_extent=6.0)
    quad = sphere_quadrature(d, n_nodes)
    # two full blocks and a ragged one
    ncols = 2 * _GAIN_BLOCK + 37
    fv, gv = _columns(g, 15, ncols), _columns(g, 16, ncols)
    assert _rel(_gain_columns(g, quad, fv, gv), _dense_gain(g, quad, fv, gv)) <= 1e-13
    assert _rel(_gain_columns(g, quad, fv, fv), _dense_gain(g, quad, fv, fv)) <= 1e-13


def test_gain_cache_bypass_matches_cached(monkeypatch):
    from kflab import collision

    g = make_grid(d=2, n_modes=2, v_points=16, v_extent=6.0)
    quad = sphere_quadrature(2, 16)
    ncols = collision._GAIN_BLOCK + 5
    fv, gv = _columns(g, 18, ncols), _columns(g, 19, ncols)
    collision._MAT_CACHE.clear()
    cached = [collision._gain_columns(g, quad, fv, b) for b in (gv, fv)]
    assert collision._MAT_CACHE
    monkeypatch.setattr(collision, "_MAT_CACHE_CAP_BYTES", 0)
    collision._MAT_CACHE.clear()
    bypass = [collision._gain_columns(g, quad, fv, b) for b in (gv, fv)]
    assert not collision._MAT_CACHE
    for a, b, other in zip(cached, bypass, (gv, fv)):
        assert _rel(b, a) <= 1e-13
        assert _rel(b, _dense_gain(g, quad, fv, other)) <= 1e-13


@pytest.mark.parametrize("d, v_points, n_nodes", [(2, 16, 16), (3, 8, 32)])
def test_gain_angular_kernel_matches_dense(d, v_points, n_nodes):
    from kflab import SphereQuadrature
    from kflab.collision import _gain_columns

    g = make_grid(d=d, n_modes=2, v_points=v_points, v_extent=6.0)
    base = sphere_quadrature(d, n_nodes)
    nodes = base.nodes
    kernel = 1.0 + 0.5 * nodes[:, 0] + 0.3 * nodes[:, 1] ** 2
    quad = SphereQuadrature(d, nodes, base.weights * kernel)
    w = quad.weights
    # odd in omega, so antipodal nodes carry different weights
    assert np.max(np.abs(w - w[quad.antipode_map()])) > 0.5 * np.max(base.weights)
    fv, gv = _columns(g, 20), _columns(g, 21)
    assert _rel(_gain_columns(g, quad, fv, gv), _dense_gain(g, quad, fv, gv)) <= 1e-13
    assert _rel(_gain_columns(g, quad, fv, fv), _dense_gain(g, quad, fv, fv)) <= 1e-13


def test_collide_trajectory_partial_mask_matches_per_slice():
    from kflab.collision import collide_trajectory

    g = make_grid(d=2, n_modes=8, v_points=16, v_extent=6.0)
    quad = sphere_quadrature(2, 16)
    rng = np.random.default_rng(22)
    shape = (5,) + g.shape
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    active = np.array([True, False, True, True, False])
    q = collide_trajectory(stack, g, quad, active=active)
    area = float(np.sum(quad.weights))
    for j in range(len(stack)):
        if not active[j]:
            assert not np.any(q[j])
            continue
        f = PhaseField(g, stack[j])
        expected = gain_bobylev(f, f, quad).data - loss_bobylev(f, f, area=area).data
        assert _rel(q[j], expected) <= 1e-13


def _per_slice_x_work(stack, g, quad, active):
    """collide_trajectory with the x-work done one slice at a time: each
    active slice synthesized, its loss taken and its columns analyzed on
    their own, around one gain call on all the columns."""
    from kflab import x_analyze, x_synthesize
    from kflab.collision import _flatten_xv, _gain_columns, _padded_count, _unflatten_xv

    idx = np.flatnonzero(active)
    m = _padded_count(g.n_modes, True)
    # C-contiguous (P^d, columns), the layout whose column sums the loss takes
    cols = np.ascontiguousarray(np.concatenate(
        [_flatten_xv(g, x_synthesize(PhaseField(g, stack[j]), m), m) for j in idx],
        axis=1,
    ))
    q_v = _gain_columns(g, quad, cols, cols)
    out = np.zeros_like(stack)
    n_x = cols.shape[1] // idx.size
    for pos, j in enumerate(idx):
        sl = slice(pos * n_x, (pos + 1) * n_x)
        mass = g.dv**g.d * cols[:, sl].sum(axis=0)
        q_v[:, sl] -= cols[:, sl] * (float(np.sum(quad.weights)) * mass)
        out[j] = x_analyze(g, _unflatten_xv(g, q_v[:, sl], m), m).data
    return out


@pytest.mark.parametrize(
    "d, n_modes, v_points, counts",
    [(2, 8, 8, (8, 1)), (2, 8, 8, None), (3, 2, 4, None), (3, 4, 4, (4, 1, 1))],
)
def test_collide_trajectory_batch_is_the_per_slice_collide(d, n_modes, v_points, counts):
    # one x-synthesis, one loss and one x-analysis of every active slice:
    # the bits of the slice-by-slice x-work, gaps left zero.  Against
    # collide on each slice alone the gain's matrix products run over
    # fewer columns, which BLAS may round differently (here in d = 3).
    from dataclasses import replace

    from kflab.collision import collide_trajectory

    g = replace(make_grid(d=d, n_modes=n_modes, v_points=v_points, v_extent=6.0),
                mode_counts=counts)
    quad = sphere_quadrature(d, 8)
    rng = np.random.default_rng(25)
    shape = (6,) + g.shape
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    active = np.array([False, True, True, False, True, False])
    q = collide_trajectory(stack, g, quad, active=active)
    assert np.array_equal(q, _per_slice_x_work(stack, g, quad, active))
    for j in range(len(stack)):
        if active[j]:
            assert _rel(q[j], collide(PhaseField(g, stack[j]), quad).data) <= 1e-13
        else:
            assert not np.any(q[j])
    if d == 2:
        for j in np.flatnonzero(active):
            assert np.array_equal(q[j], collide(PhaseField(g, stack[j]), quad).data)


# ---------------------------------------------------------------------------
# The x-support rule: data exactly invariant along x_a, restricted to
# their support grid (restrict_modes), collide on one x_a-node; the full
# padded grid is the reference.


def _full_grid_collision(f, quad):
    """(gain, gain - loss) of f on the full m^d padded x-grid, the gain by
    the dense per-entry sum."""
    from kflab import x_analyze, x_synthesize
    from kflab.collision import _flatten_xv, _padded_count, _unflatten_xv

    g = f.grid
    m = _padded_count(g.n_modes, True)
    fv = _flatten_xv(g, x_synthesize(f, m), m)
    gain = _dense_gain(g, quad, fv, fv)
    mass = g.dv**g.d * fv.sum(axis=0)
    q = gain - fv * (float(np.sum(quad.weights)) * mass)
    return tuple(x_analyze(g, _unflatten_xv(g, c, m), m).data for c in (gain, q))


def _x_invariant_case(d, flat_axes, seed):
    """The Maxwellian if every axis is flat; otherwise Maxwellian x
    (1 + 0.1 cos x_1) plus a small random perturbation, with every mode
    n_a != 0, a in flat_axes, exactly zero."""
    g = make_grid(d=d, n_modes=4, v_points=16 if d == 2 else 8, v_extent=6.0)
    if len(flat_axes) == d:
        return maxwellian_perturbed(g, eps=0.0)
    data = maxwellian_perturbed(g, eps=0.1, mode=(1,) + (0,) * (d - 1)).data
    rng = np.random.default_rng(seed)
    data = data + 1e-2 * (rng.standard_normal(g.shape) + 0j)
    for a in flat_axes:
        shape = [1] * data.ndim
        shape[a] = g.n_modes
        data = data * (np.arange(g.n_modes) == 0).reshape(shape)
    return PhaseField(g, data)


@pytest.mark.parametrize(
    "d, flat_axes, sizes",
    [(2, (1,), (6, 1)), (2, (0, 1), (1, 1)), (3, (2,), (6, 6, 1)), (3, (1, 2), (6, 1, 1))],
)
def test_collision_x_support_matches_full_grid(d, flat_axes, sizes):
    from kflab import embed_modes, restrict_modes
    from kflab.collision import _padded_count, collide_trajectory
    from kflab.grid import _x_sizes

    f = _x_invariant_case(d, flat_axes, 23)
    quad = sphere_quadrature(d, 16 if d == 2 else 8)
    sub = restrict_modes(f)
    assert _x_sizes(sub.grid, _padded_count(f.grid.n_modes, True)) == sizes
    gain_ref, q_ref = _full_grid_collision(f, quad)
    scale = np.max(np.abs(gain_ref))
    gain = embed_modes(gain_bobylev(sub, sub, quad)).data
    q_sub = collide_trajectory(sub.data[None], sub.grid, quad)[0]
    q = embed_modes(PhaseField(sub.grid, q_sub)).data
    assert np.max(np.abs(gain - gain_ref)) <= 1e-13 * scale
    assert np.max(np.abs(q - q_ref)) <= 1e-13 * scale
    # Q of x_a-invariant data is x_a-invariant: exact zeros off the slab
    assert not np.any(q[f.data == 0]) and not np.any(gain[f.data == 0])


def _spy_columns(monkeypatch):
    from kflab import collision

    counts = []
    gain_columns = collision._gain_columns

    def spy(grid, quad, fv, gv):
        counts.append(fv.shape[1])
        return gain_columns(grid, quad, fv, gv)

    monkeypatch.setattr(collision, "_gain_columns", spy)
    return counts


def test_collision_columns_follow_x_support(monkeypatch):
    from kflab import Trajectory, restrict_modes
    from kflab.collision import collide_trajectory

    g = make_grid(d=2, n_modes=8, v_points=8, v_extent=6.0)
    quad = sphere_quadrature(2, 8)
    counts = _spy_columns(monkeypatch)
    rng = np.random.default_rng(24)
    stack = np.zeros((3,) + g.shape, dtype=np.complex128)
    stack[:, :, 0] = rng.standard_normal((3, g.n_modes) + (g.v_points,) * 2)
    sub = restrict_modes(Trajectory(g, 1.0, stack))
    assert sub.grid.mode_counts == (8, 1)
    collide_trajectory(sub.data, sub.grid, quad)
    assert counts == [3 * 12]
    # one tiny coefficient off the n_2 = 0 slab keeps the full grid
    stack[1, 2, 5, 3, 3] = 1e-300
    sub = restrict_modes(Trajectory(g, 1.0, stack))
    assert sub.grid.mode_counts == (8, 8)
    collide_trajectory(sub.data, sub.grid, quad)
    assert counts[-1] == 3 * 144
    # gain and loss collide on the grid of their arguments: the support
    # grid of f, and the full grid for x_2-invariant data left on it
    f = restrict_modes(PhaseField(g, stack[0]))
    gain_bobylev(f, f, quad)
    assert counts[-1] == 12
    gain_bobylev(PhaseField(g, stack[0]), PhaseField(g, stack[1]), quad)
    assert counts[-1] == 144


def test_d3_x1_data_collide_on_one_x_axis(monkeypatch):
    from kflab import restrict_modes
    from kflab.collision import _padded_count
    from kflab.grid import _x_sizes

    g = make_grid(d=3, n_modes=4, v_points=8, v_extent=6.0)
    f0 = restrict_modes(maxwellian_perturbed(g, eps=0.1, mode=(1, 0, 0)))
    assert f0.grid.mode_counts == (4, 1, 1)
    assert _x_sizes(f0.grid, _padded_count(g.n_modes, True)) == (6, 1, 1)
    counts = _spy_columns(monkeypatch)
    collide(f0, sphere_quadrature(3, 8))
    assert counts == [6]
