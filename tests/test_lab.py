"""Estimate-verification lab: random fields, sweeps, and identities."""

import tracemalloc

import numpy as np
import pytest

from kflab import (
    NormParams,
    PhaseField,
    bilinear_modulation_check,
    gain_estimate_check,
    holder_gain_check,
    linear_xsb_checks,
    loglog_slope,
    loss_estimate_check,
    make_grid,
    project_v_dyadic,
    project_x_shell,
    psi_delta_scaling,
    random_block_field,
    random_field,
    sphere_quadrature,
    strichartz_gauge_check,
    strichartz_scan,
)
from kflab.lab import _free_l4_norm
from kflab.norms import _slice_l4_xi_4
from kflab.propagator import _nv_dot
from kflab.trajectory import _trapz_weights


def test_loglog_slope():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [3.0 * x**1.7 for x in xs]
    assert loglog_slope(xs, ys) == pytest.approx(1.7, abs=1e-12)


def test_block_field_projection_invariant_and_seeded():
    g = make_grid(d=2, n_modes=16, v_points=16, v_extent=8.0)
    fld = random_block_field(g, N=4, M=2, seed=0)
    reproj = project_x_shell(fld, 4)
    assert np.allclose(reproj.data, fld.data, atol=0.0)
    again = random_block_field(g, N=4, M=2, seed=0)
    assert np.array_equal(again.data, fld.data)
    other = random_block_field(g, N=4, M=2, seed=1)
    assert not np.array_equal(other.data, fld.data)


def test_block_field_rejects_oversized():
    g = make_grid(d=2, n_modes=8, v_points=8, v_extent=4.0)
    with pytest.raises(ValueError):
        random_block_field(g, N=4, M=4, seed=0)


def test_strichartz_scan_small():
    g = make_grid(d=2, n_modes=8, v_points=8, v_extent=4.0)
    rep = strichartz_scan(g, Ns=(2, 4), Ms=(1,), trials=2, T=0.5, seed=0,
                          n_time=5)
    rep.validate_finite()
    assert len(rep.rows) == 4
    assert all(r > 0 for r in rep.column("ratio"))


def _dense_free_l4_norm(g, data, t_half, n_time):
    """Reference for _free_l4_norm: the phase exp(-i t n.v) over the full
    (n, v) grid, a 2x zero-padded v-fftn per slice and a float64 sum of
    |F|^4, all in data's dtype."""
    from scipy import fft as sfft

    d, p = g.d, g.v_points
    nv = _nv_dot(g)
    dt = 2.0 * t_half / (n_time - 1)
    tw = _trapz_weights(n_time, dt)
    total = 0.0
    for j in range(n_time):
        t = -t_half + j * dt
        slice_data = data * np.exp(-1j * t * nv).astype(data.dtype)
        vals = sfft.ifftn(slice_data, axes=g.n_axes) * g.n_modes**d
        padded = np.zeros(vals.shape[:d] + (2 * p,) * d, dtype=data.dtype)
        padded[(...,) + (slice(0, p),) * d] = vals
        mag2 = np.abs(sfft.fftn(padded, axes=g.v_axes)) ** 2
        quartic = (g.dxi / 2.0) ** d * g.dv ** (4 * d) * np.sum(
            mag2.astype(np.float64) ** 2
        )
        total += tw[j] * g.dx**d * quartic
    return float(total**0.25)


@pytest.mark.parametrize("single, rel", [(False, 1e-13), (True, 1e-6)])
@pytest.mark.parametrize(
    "d, n_modes, v_points, n_time",
    [(2, 8, 16, 9), (2, 6, 8, 8), (3, 4, 8, 5), (3, 6, 4, 6)],
)
def test_free_l4_norm_matches_dense(d, n_modes, v_points, n_time, single, rel):
    # the precision is the data's dtype
    g = make_grid(d=d, n_modes=n_modes, v_points=v_points, v_extent=4.0)
    data = random_field(g, seed=7).data.astype(np.complex64 if single else np.complex128)
    fast = _free_l4_norm(g, data, 0.7, n_time)
    assert fast == pytest.approx(_dense_free_l4_norm(g, data, 0.7, n_time), rel=rel)


def test_block_field_matches_the_projector_composition():
    # one complex-Gaussian draw, the shell, the velocity bump and the
    # normalization in place: the bits of the public projectors' chain
    g = make_grid(d=2, n_modes=16, v_points=16, v_extent=8.0)
    for N, M, seed in ((1, 1, 3), (4, 2, 4), (8, 4, 5)):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        ref = project_v_dyadic(project_x_shell(PhaseField(g, data), N), M)
        ref = ref.data / ref.l2_norm()
        assert np.array_equal(random_block_field(g, N, M, seed).data, ref)


# the grid of the memory tests: a 16.8 MB complex128 field
_MEM_GRID = dict(d=2, n_modes=32, v_points=32, v_extent=16.0)


def _traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated during fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_field_peak_memory():
    # the draw's float64 buffer next to the complex128 result, and no
    # full-size temporary after it (the sum of two draws peaks at 3x)
    g = make_grid(**_MEM_GRID)
    random_block_field(g, 8, 4, 0)  # warm-up
    nbytes = 16 * int(np.prod(g.shape))
    assert _traced_peak(lambda: random_block_field(g, 8, 4, 1)) <= 1.75 * nbytes


def test_free_l4_norm_peak_memory():
    # one slice buffer and one padded x-row's temporaries on top of the
    # input; a working copy of the input would add 1x
    g = make_grid(**_MEM_GRID)
    data = random_block_field(g, 8, 4, 0).data.astype(np.complex64)
    _free_l4_norm(g, data, 0.5, 3)  # warm-up
    assert _traced_peak(lambda: _free_l4_norm(g, data, 0.5, 3)) <= 1.6 * data.nbytes


def test_slice_l4_d3_peak_memory():
    # in d = 3 the quartic slice streams rows over every x-axis but the
    # last, so its temporaries are a few padded rows; streaming over x_1
    # alone held a padded x_1-slab, n_modes rows (20 rows here)
    g = make_grid(d=3, n_modes=8, v_points=8, v_extent=4.0)
    vals = random_field(g, 0).data.astype(np.complex64)
    row = g.n_modes * (2 * g.v_points) ** g.d * vals.itemsize
    _slice_l4_xi_4(vals, g)  # warm-up
    assert _traced_peak(lambda: _slice_l4_xi_4(vals, g)) <= 3 * row


def test_strichartz_gauge_identity():
    g = make_grid(d=2, n_modes=16, v_points=8, v_extent=4.0)
    rep = strichartz_gauge_check(g, N=2, M=1, shift=(3, -2), trials=2,
                                 T=0.5, seed=0, n_time=5)
    assert max(rep.column("defect")) <= 1e-8


def test_bilinear_check_swap_symmetric_rhs():
    g = make_grid(d=2, n_modes=8, v_points=8, v_extent=4.0)
    rep = bilinear_modulation_check(g, N=2, M=1, K1s=(1, 2), K2s=(1, 2),
                                    trials=1, seed=0, t_half=2.0, n_samples=17)
    rep.validate_finite()
    rows = {(r[2], r[3]): r[5] for r in rep.rows}  # (K1, K2) -> rhs
    assert rows[(1, 2)] == pytest.approx(rows[(2, 1)], rel=1e-12)


def test_loss_estimate_zero_mean_g(tmp_path):
    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)
    rep = loss_estimate_check(g, s=0.8, r=1.05, Ts=(0.125,), trials=2, seed=0)
    rep.validate_finite()
    assert all(r[4] > 0 for r in rep.rows)


def test_gain_estimate_bounded():
    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)
    rep = gain_estimate_check(g, s=0.8, r=1.05, Ts=(0.125,), trials=2, seed=0,
                              quad=sphere_quadrature(2, 16))
    rep.validate_finite()


def test_holder_gain_admissible():
    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)
    quad = sphere_quadrature(2, 16)
    rep = holder_gain_check(g, p=4.0, q=4.0, trials=1, seed=0, quad=quad)
    rep.validate_finite()
    with pytest.raises(ValueError):
        holder_gain_check(g, p=1.2, q=4.0, trials=1, seed=0, quad=quad)


def test_linear_xsb_b2_identity():
    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)
    rep = linear_xsb_checks(g, s=0.0, r=0.0, b=0.55, seed=0, t_half=2.0, n_samples=65)
    by_name = {r[0]: r for r in rep.rows}
    assert "b2" in by_name and "b3" in by_name and "b4" in by_name
    b2 = by_name["b2"]
    oracle = rep.extra["b2_oracle"]
    # the measured ratio equals the independent window norm
    idx = rep.columns.index("ratio")
    assert b2[idx] == pytest.approx(oracle, rel=1e-6)


def test_psi_delta_scaling_exponents():
    rep = psi_delta_scaling(b=0.55)
    assert rep.extra["slope_l2"] == pytest.approx(0.5, abs=0.05)
    assert rep.extra["slope_hdotb"] == pytest.approx(0.5 - 0.55, abs=0.05)
