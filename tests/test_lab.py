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
from kflab import lab, norms
from kflab.lab import _draw_block, _free_l4_norm
from kflab.lp import bump_psi
from kflab.norms import _slice_l4_xi_4
from kflab.propagator import _nv_dot
from kflab.trajectory import _trapz_weights


def test_loglog_slope():
    xs = [1.0, 2.0, 4.0, 8.0]
    ys = [3.0 * x**1.7 for x in xs]
    assert loglog_slope(xs, ys) == pytest.approx(1.7, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_loglog_slope_rejects_a_value_without_a_log(bad):
    # a NaN slope would read as a failed gate (exit 2), not as an error
    with pytest.raises(ValueError, match="positive finite y"):
        loglog_slope([1.0, 2.0, 4.0], [1.0, bad, 0.5])
    with pytest.raises(ValueError, match="positive finite x"):
        loglog_slope([1.0, bad, 4.0], [1.0, 2.0, 0.5])


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
    # normalization: the bits of the public projectors' chain, and of its
    # complex64 cast and l2_norm (the Strichartz scan's draw)
    for g in (make_grid(d=2, n_modes=16, v_points=16, v_extent=8.0),
              make_grid(d=3, n_modes=8, v_points=8, v_extent=4.0)):
        top = (g.n_modes // 2, int(g.v_extent) // 2, 5)
        for N, M, seed in ((1, 1, 3), (4, 2, 4), top):
            rng = np.random.default_rng(seed)
            data = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
            ref = project_v_dyadic(project_x_shell(PhaseField(g, data), N), M)
            ref = PhaseField(g, ref.data / ref.l2_norm())
            assert np.array_equal(random_block_field(g, N, M, seed).data, ref.data)
            single, l2 = _draw_block(g, N, M, seed, np.complex64)
            assert single.dtype == np.complex64
            assert single.tobytes() == ref.data.astype(np.complex64).tobytes()
            assert l2 == ref.l2_norm()


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


def test_block_field_complex64_peak_memory():
    # the complex64 result and one float64 |z|^2 array (2x), plus a few
    # rows; a complex128 draw cast afterwards would peak at 3x
    g = make_grid(**_MEM_GRID)
    _draw_block(g, 8, 4, 0, np.complex64)  # warm-up
    nbytes = 8 * int(np.prod(g.shape))
    peak = _traced_peak(lambda: _draw_block(g, 8, 4, 1, np.complex64))
    assert peak <= 2.25 * nbytes


def test_free_l4_norm_peak_memory():
    # one slice buffer and one padded x-row's temporaries on top of the
    # input; a working copy of the input would add 1x
    g = make_grid(**_MEM_GRID)
    data = random_block_field(g, 8, 4, 0).data.astype(np.complex64)
    _free_l4_norm(g, data, 0.5, 3)  # warm-up
    assert _traced_peak(lambda: _free_l4_norm(g, data, 0.5, 3)) <= 1.6 * data.nbytes


def test_cutoff_free_slice_matches_the_window():
    # the estimate checks' per-slice fields are the window's slices, bit
    # for bit, so dropping the window leaves every CSV digit in place
    for g in (make_grid(d=2, n_modes=8, v_points=8, v_extent=4.0),
              make_grid(d=3, n_modes=4, v_points=4, v_extent=2.0)):
        phi = lab.random_multiblock_field(g, 5)
        T = 0.125
        traj = lab._cutoff_free_trajectory(phi, T, 17)
        prof = bump_psi(traj.times / T)
        for j in range(traj.n_samples):
            cut = lab._cutoff_free_slice(phi, traj.times[j], prof[j])
            assert cut.data.tobytes() == traj.data[j].tobytes(), (g.d, j)


def test_loss_check_holds_one_window_at_a_time():
    # one 4.5 MB window: its restriction norm holds it, its time-DFT and
    # |DFT|^2 (2.5 windows, 2.62 measured with the two drawn fields);
    # holding the other window too, as the two-trajectory check did
    # (4.03 measured), adds at least one.  Bound: 3 windows.
    g = make_grid(d=2, n_modes=8, v_points=16, v_extent=4.0)
    window = 16 * lab._ESTIMATE_SAMPLES * int(np.prod(g.shape))
    loss_estimate_check(g, 0.3, 1.0, [0.125], 1, 0)  # warm-up
    peak = _traced_peak(lambda: loss_estimate_check(g, 0.3, 1.0, [0.125], 1, 1))
    assert peak <= 3.0 * window


def test_linear_check_drops_the_b2_window():
    # one 8.65 MB window: the b2 window is dropped once its restriction
    # norm is taken, so b3 holds the forcing, the Duhamel window and a
    # restriction norm's transients (3.53 windows measured); keeping the
    # b2 window through b3 and b4 peaks at 4.53.  Bound: 4 windows.
    g = make_grid(d=2, n_modes=8, v_points=16, v_extent=4.0)
    window = 16 * 33 * int(np.prod(g.shape))
    linear_xsb_checks(g, 0.0, 0.0, 0.55, 0, 2.0, 33)  # warm-up
    peak = _traced_peak(lambda: linear_xsb_checks(g, 0.0, 0.0, 0.55, 1, 2.0, 33))
    assert peak <= 4.0 * window


def test_slice_l4_d3_peak_memory():
    # in d = 3 the quartic slice streams rows over every x-axis but the
    # last, so its temporaries are a few padded rows; streaming over x_1
    # alone held a padded x_1-slab, n_modes rows (20 rows here)
    g = make_grid(d=3, n_modes=8, v_points=8, v_extent=4.0)
    vals = random_field(g, 0).data.astype(np.complex64)
    row = g.n_modes * (2 * g.v_points) ** g.d * vals.itemsize
    _slice_l4_xi_4(vals, g)  # warm-up
    assert _traced_peak(lambda: _slice_l4_xi_4(vals, g)) <= 3 * row


@pytest.mark.parametrize("d, n_modes, v_points", [(2, 16, 32), (3, 8, 10)])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_slice_l4_two_workers_match_one(d, n_modes, v_points, dtype, monkeypatch):
    # rows above the split cut-off (n_modes * (2 v_points)^d = 65,536 and
    # 64,000 values): the two-worker split and the x-synthesis threads
    # change no bit, in the scan's complex64 and the gauge check's
    # complex128
    g = make_grid(d=d, n_modes=n_modes, v_points=v_points, v_extent=4.0)
    data = random_block_field(g, 2, 1, 3).data.astype(dtype)
    vals = random_field(g, 4).data.astype(dtype)
    got = {}
    for workers in (1, 2):
        monkeypatch.setattr(norms, "_l4_workers", lambda: workers)
        assert norms._slice_workers(g) == workers
        got[workers] = (_slice_l4_xi_4(vals, g), _free_l4_norm(g, data, 0.5, 3))
    assert got[2] == got[1]


def test_slice_l4_small_rows_stay_on_one_thread(monkeypatch):
    monkeypatch.setattr(norms, "_l4_workers", lambda: 2)
    g = make_grid(d=2, n_modes=8, v_points=16, v_extent=4.0)
    assert norms._slice_workers(g) == 1  # 8 * 32^2 = 2**13 padded values


@pytest.mark.parametrize("T, n_time", [(0.0, 5), (-1.0, 5), (0.5, 1)])
def test_strichartz_gauge_rejects_an_empty_time_window(T, n_time):
    g = make_grid(d=2, n_modes=16, v_points=8, v_extent=4.0)
    with pytest.raises(ValueError, match="T > 0 and n_time >= 2"):
        strichartz_gauge_check(g, N=2, M=1, shift=(3, -2), trials=1,
                               T=T, seed=0, n_time=n_time)


def test_strichartz_gauge_identity():
    g = make_grid(d=2, n_modes=16, v_points=8, v_extent=4.0)
    rep = strichartz_gauge_check(g, N=2, M=1, shift=(3, -2), trials=2,
                                 T=0.5, seed=0, n_time=5)
    assert max(rep.column("defect")) <= 1e-8


def test_strichartz_gauge_rejects_a_nan_defect(monkeypatch):
    # a NaN ratio_shift leaves ratio_center finite; its NaN defect is
    # what criterion 4's max() could skip
    calls = []

    def second_is_nan(*args):
        calls.append(None)
        return float("nan") if len(calls) == 2 else _free_l4_norm(*args)

    monkeypatch.setattr(lab, "_free_l4_norm", second_is_nan)
    g = make_grid(d=2, n_modes=16, v_points=8, v_extent=4.0)
    with pytest.raises(FloatingPointError, match="defect"):
        strichartz_gauge_check(g, N=2, M=1, shift=(3, -2), trials=2,
                               T=0.5, seed=0, n_time=5)


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


def test_psi_delta_scaling_rejects_a_nan_norm(monkeypatch):
    # a NaN norm gave a NaN slope, which linear-check read as a
    # regression (exit 2), not an error (exit 1)
    monkeypatch.setattr(lab, "psi_window_hb", lambda *args, **kw: float("nan"))
    with pytest.raises(FloatingPointError, match="hdotb"):
        psi_delta_scaling(b=0.55)
