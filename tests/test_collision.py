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
    for w, omega in zip(quad.effective_weights(), quad.nodes):
        plus = _dense_phase(grid, 0.5 * (xi + radius * omega)) @ fv
        minus = _dense_phase(grid, 0.5 * (xi - radius * omega)) @ gv
        gain_xi = gain_xi + w * plus * minus
    return _dense_inverse(grid) @ gain_xi


@pytest.mark.parametrize("d, v_points", [(2, 8), (2, 16), (3, 8)])
def test_phase_matrix_matches_dense_exp(d, v_points):
    from kflab.collision import _node_matrix
    from kflab.grid import xi_phase_matrix

    g = make_grid(d=d, n_modes=2, v_points=v_points, v_extent=6.0)
    xi = g.xi_vectors()
    radius = np.linalg.norm(xi, axis=1)[:, None]
    for omega in sphere_quadrature(d, 8 if d == 2 else 18).nodes[:3]:
        pts = 0.5 * (xi + radius * omega)
        assert _rel(_node_matrix(g, omega), _dense_phase(g, pts)) <= 1e-13
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


def test_gain_odd_node_count_matches_dense():
    from kflab.collision import _gain_columns

    g = make_grid(d=2, n_modes=2, v_points=16, v_extent=6.0)
    quad = sphere_quadrature(2, 15)
    assert quad.antipode_map() is None
    fv, gv = _columns(g, 12), _columns(g, 13)
    assert _rel(_gain_columns(g, quad, fv, gv), _dense_gain(g, quad, fv, gv)) <= 1e-13
    assert _rel(_gain_columns(g, quad, fv, fv), _dense_gain(g, quad, fv, fv)) <= 1e-13


def test_collide_matches_dense_gain():
    g = make_grid(d=2, n_modes=4, v_points=16, v_extent=6.0)
    from kflab.collision import (
        _analyze_truncate,
        _flatten_xv,
        _padded_count,
        _synthesize_padded,
        _unflatten_xv,
    )

    f = _random_nonneg(g, 14)
    quad = sphere_quadrature(2, 16)
    m = _padded_count(g.n_modes, True)
    fv = _flatten_xv(g, _synthesize_padded(f, m), m)
    gain = _analyze_truncate(g, _unflatten_xv(g, _dense_gain(g, quad, fv, fv), m), m)
    loss = loss_bobylev(f, f, area=float(np.sum(quad.weights)))
    assert _rel(collide(f, quad).data, gain.data - loss.data) <= 1e-13
