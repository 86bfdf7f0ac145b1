"""Grid construction, transforms, off-grid evaluation, and field I/O."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflab import (
    GridSpec,
    PhaseField,
    Trajectory,
    conjugate_symmetry_defect,
    embed_modes,
    load_field,
    make_grid,
    random_field,
    restrict_modes,
    save_field,
    v_to_xi,
    x_analyze,
    x_synthesize,
    xi_phase_matrix,
    xi_to_v,
)
from kflab.collision import _padded_count
from kflab.grid import _mode_support


def test_make_grid_spacing():
    g = make_grid(d=2, n_modes=16, v_extent=6.0, v_points=32)
    assert g.shape == (16, 16, 32, 32)
    assert g.dv == pytest.approx(0.375)
    assert g.dxi == pytest.approx(np.pi / 6.0)


def test_make_grid_smallest_legal():
    g = make_grid(d=2, n_modes=2, v_extent=1.0, v_points=2)
    assert g.shape == (2, 2, 2, 2)


def test_make_grid_odd_modes_rejected():
    with pytest.raises(ValueError):
        make_grid(d=2, n_modes=15, v_extent=6.0, v_points=32)


def test_full_grid_repr_is_pinned():
    # every CSV header prints the grid's repr (# grid = ...)
    g = make_grid(2, 8, 6.0, 16)
    assert repr(g) == "GridSpec(d=2, n_modes=8, v_extent=6.0, v_points=16)"
    assert replace(g, mode_counts=(8, 8)) == g
    assert hash(replace(g, mode_counts=(8, 8))) == hash(g)
    sub = replace(g, mode_counts=(8, 1))
    assert sub != g and sub.shape == (8, 1, 16, 16)
    assert repr(sub) == (
        "GridSpec(d=2, n_modes=8, v_extent=6.0, v_points=16, mode_counts=(8, 1))"
    )
    for bad in ((8,), (8, 4), (8, 8, 8), (2, 1)):
        with pytest.raises(ValueError, match="mode_counts"):
            replace(g, mode_counts=bad)


def test_x_synthesize_zero_mode_constant():
    g = make_grid(d=2, n_modes=8, v_points=8, v_extent=4.0)
    h = np.exp(-np.sum(g.v_vectors() ** 2, axis=1)).reshape(8, 8)
    data = np.zeros(g.shape, dtype=np.complex128)
    data[0, 0] = h
    vals = x_synthesize(PhaseField(g, data))
    # constant in x: every x-slice equals h
    assert np.allclose(vals, h[None, None], atol=1e-14)


def test_x_synthesize_single_mode():
    g = make_grid(d=2, n_modes=8, v_points=4, v_extent=2.0)
    n0 = (3, -2)
    h = np.random.default_rng(0).standard_normal((4, 4))
    data = np.zeros(g.shape, dtype=np.complex128)
    data[n0[0] % 8, n0[1] % 8] = h
    vals = x_synthesize(PhaseField(g, data))
    x = g.x_1d
    phase = np.exp(1j * (n0[0] * x[:, None] + n0[1] * x[None, :]))
    expected = phase[..., None, None] * h[None, None]
    assert np.allclose(vals, expected, atol=1e-13)


def test_x_roundtrip_random():
    g = make_grid(d=2, n_modes=8, v_points=8, v_extent=4.0)
    fld = random_field(g, seed=1)
    back = x_analyze(g, x_synthesize(fld))
    assert np.allclose(back.data, fld.data, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_x_padded_roundtrip(d):
    # synthesis on an m^d x-grid (zero-padded modes) then analysis and
    # truncation returns the stored modes, Nyquist slot included
    g = make_grid(d=d, n_modes=4, v_points=4, v_extent=2.0)
    fld = random_field(g, seed=10 + d)
    for m in (g.n_modes, _padded_count(g.n_modes, True)):
        vals = x_synthesize(fld, m)
        assert vals.shape == (m,) * d + (g.v_points,) * d
        back = x_analyze(g, vals, m)
        assert np.max(np.abs(back.data - fld.data)) <= 1e-14
    with pytest.raises(ValueError, match="does not match grid"):
        x_analyze(g, x_synthesize(fld, 6), 8)


def _invariant_along(fld, axes):
    """fld with every coefficient whose n_a != 0 for an a in ``axes`` zeroed."""
    data = fld.data.copy()
    for a in axes:
        keep = np.zeros(fld.grid.n_modes, dtype=bool)
        keep[0] = True
        shape = [1] * data.ndim
        shape[a] = fld.grid.n_modes
        data = data * keep.reshape(shape)
    return PhaseField(fld.grid, data)


@pytest.mark.parametrize("d, sizes", [(2, (6, 1)), (2, (1, 6)), (2, (1, 1)),
                                      (3, (6, 1, 6)), (3, (1, 4, 1)), (3, (6, 6, 6))])
def test_x_roundtrip_per_axis_sizes(d, sizes):
    # on a support grid an axis of count 1 has one x-node: the synthesis
    # is constant along it, and analysis writes exact zeros for n_a != 0;
    # the size m applies to every other axis
    g = make_grid(d=d, n_modes=4, v_points=4, v_extent=2.0)
    flat = [a for a in range(d) if sizes[a] == 1]
    fld = _invariant_along(random_field(g, seed=20 + d), flat)
    sub = restrict_modes(fld, tuple(1 if s == 1 else 4 for s in sizes))
    m = max(sizes + (4,))
    vals = x_synthesize(sub, m)
    assert vals.shape == sizes + (g.v_points,) * d
    full = x_synthesize(fld, m)
    for a in flat:
        assert np.max(np.abs(full - np.take(vals, [0], axis=a))) <= 1e-14
    back = embed_modes(x_analyze(sub.grid, vals, m))
    assert np.max(np.abs(back.data - fld.data)) <= 1e-14
    assert not np.any(back.data[fld.data == 0])


def test_x_synthesize_size_one_rejects_dropped_mode():
    # the x-grid follows the mode counts, so restriction is where a
    # nonzero mode off the n_a = 0 slab is refused
    g = make_grid(d=2, n_modes=4, v_points=4, v_extent=2.0)
    fld = _invariant_along(random_field(g, seed=30), [1])
    sub = restrict_modes(fld, (4, 1))
    assert x_synthesize(sub, 6).shape == (6, 1, 4, 4)
    fld.data[1, 3, 0, 0] = 1e-300
    for counts in ((4, 1), (1, 4)):
        with pytest.raises(ValueError, match="would drop nonzero modes"):
            restrict_modes(fld, counts)
    # the size is None or one int >= n_modes: a per-axis tuple or a
    # smaller int is refused by both halves of the pair
    values = np.zeros((6, 1, 4, 4), dtype=np.complex128)
    for bad in ((6, 1), (6,), (6, 6), 2, 3):
        with pytest.raises(ValueError, match="x-grid size"):
            x_synthesize(sub, bad)
        with pytest.raises(ValueError, match="x-grid size"):
            x_analyze(sub.grid, values, bad)


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([2, 3]), n_modes=st.sampled_from([2, 4]),
       flags=st.lists(st.booleans(), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1), draw=st.data())
def test_restrict_then_embed_is_the_identity(d, n_modes, flags, seed, draw):
    # data confined to a per-axis support (n_a = 0 alone on each flat
    # axis) restrict losslessly and embed back to the same array, alone
    # or with a leading time axis.  The support rule gives n_modes on
    # exactly the axes with a nonzero n_a != 0 coefficient, however
    # small; a nonzero coefficient off a given support makes restriction
    # to it a ValueError
    g = make_grid(d=d, n_modes=n_modes, v_points=2, v_extent=1.0)
    flat = [a for a in range(d) if flags[a]]
    counts = tuple(1 if a in flat else n_modes for a in range(d))
    fld = _invariant_along(random_field(g, seed=seed), flat)
    assert _mode_support(g, fld.data) == counts
    sub = restrict_modes(fld, counts)
    assert sub.grid.mode_counts == counts
    assert sub.data.shape == counts + (2,) * d
    back = embed_modes(sub)
    assert back.grid == g
    assert np.array_equal(back.data, fld.data)
    traj = Trajectory(g, 1.0, np.stack([fld.data, 2.0 * fld.data]))
    assert np.array_equal(embed_modes(restrict_modes(traj, counts)).data, traj.data)
    assert restrict_modes(traj).grid.mode_counts == counts
    if flat:
        a = draw.draw(st.sampled_from(flat))
        idx = [draw.draw(st.integers(0, c - 1)) for c in g.shape]
        idx[a] = draw.draw(st.integers(1, n_modes - 1))
        fld.data[tuple(idx)] = 1e-300
        with pytest.raises(ValueError, match="would drop nonzero modes"):
            restrict_modes(fld, counts)
        support = tuple(n_modes if c > 1 or idx[b] else 1 for b, c in enumerate(counts))
        assert _mode_support(g, fld.data) == support
        assert np.array_equal(embed_modes(restrict_modes(fld)).data, fld.data)


def test_v_to_xi_gaussian_analytic():
    # ftil(xi) = integral e^{-|v|^2} e^{+i xi.v} dv = pi^{d/2} e^{-|xi|^2/4}
    g = make_grid(d=2, n_modes=2, v_points=64, v_extent=8.0)
    vv = g.v_vectors()
    h = np.exp(-np.sum(vv**2, axis=1)).reshape(64, 64)
    data = np.zeros(g.shape, dtype=np.complex128)
    data[0, 0] = h
    ftil = v_to_xi(PhaseField(g, data))[0, 0]
    xi = g.xi_vectors()
    expected = np.pi * np.exp(-np.sum(xi**2, axis=1) / 4.0)
    assert np.allclose(ftil, expected.reshape(64, 64), atol=1e-10)


def test_v_to_xi_zero():
    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)
    fld = PhaseField(g, np.zeros(g.shape, dtype=np.complex128))
    assert np.all(v_to_xi(fld) == 0.0)


def test_plancherel_and_inverse():
    g = make_grid(d=2, n_modes=4, v_points=16, v_extent=4.0)
    fld = random_field(g, seed=2)
    ftil = v_to_xi(fld)
    lhs = g.dxi**g.d * np.sum(np.abs(ftil) ** 2)
    rhs = (2.0 * np.pi) ** g.d * g.dv**g.d * np.sum(np.abs(fld.data) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    back = xi_to_v(g, ftil)
    assert np.allclose(back.data, fld.data, atol=1e-12)


def test_eval_xi_on_grid_consistency():
    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)
    fld = random_field(g, seed=3)
    ftil = v_to_xi(fld)
    k = 3
    xi_star = g.xi_1d[k] * np.array([1.0, 0.0]) + g.xi_1d[1] * np.array([0.0, 1.0])
    val = (xi_phase_matrix(g, xi_star[None]) @ fld.data[0, 0].ravel())[0]
    assert val == pytest.approx(complex(ftil[0, 0, k, 1]), abs=1e-12)


def test_eval_xi_zero_is_v_integral():
    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)
    fld = random_field(g, seed=4)
    # mode (1, 2) sits at storage index (1, 2) on the 4-mode grid
    val = (xi_phase_matrix(g, np.zeros((1, 2))) @ fld.data[1, 2].ravel())[0]
    expected = g.dv**g.d * np.sum(fld.data[1, 2])
    assert val == pytest.approx(complex(expected), abs=1e-13)


def test_eval_xi_gaussian_offgrid():
    g = make_grid(d=2, n_modes=2, v_points=64, v_extent=8.0)
    vv = g.v_vectors()
    h = np.exp(-np.sum(vv**2, axis=1)).reshape(64, 64)
    data = np.zeros(g.shape, dtype=np.complex128)
    data[0, 0] = h
    xi_star = np.array([0.3, -0.7])
    val = (xi_phase_matrix(g, xi_star[None]) @ data[0, 0].ravel())[0]
    expected = np.pi * np.exp(-np.sum(xi_star**2) / 4.0)
    assert val == pytest.approx(expected, abs=1e-6)


def test_conjugate_symmetry_defect():
    g = make_grid(d=2, n_modes=8, v_points=8, v_extent=4.0)
    real_fld = random_field(g, seed=5, real=True)
    assert conjugate_symmetry_defect(real_fld) <= 1e-13
    cplx_fld = random_field(g, seed=5)
    assert conjugate_symmetry_defect(cplx_fld) > 1e-3


def test_save_load_roundtrip(tmp_path):
    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)
    fld = random_field(g, seed=6)
    path = tmp_path / "field.kfl"
    save_field(fld, path)
    back = load_field(path)
    assert back.grid == g
    assert np.array_equal(back.data, fld.data)


def test_save_field_needs_a_full_grid(tmp_path):
    # the KFL1 header holds one n_modes, so a support-grid field is
    # refused, not written under a wrong header
    g = make_grid(d=2, n_modes=4, v_points=4, v_extent=2.0)
    fld = _invariant_along(random_field(g, seed=11), [1])
    path = tmp_path / "field.kfl"
    with pytest.raises(ValueError, match="n_modes on every axis"):
        save_field(restrict_modes(fld, (4, 1)), path)
    assert not path.exists()
    save_field(embed_modes(restrict_modes(fld, (4, 1))), path)
    assert np.array_equal(load_field(path).data, fld.data)


def test_save_load_magic(tmp_path):
    g = make_grid(d=2, n_modes=4, v_points=4, v_extent=2.0)
    path = tmp_path / "field.kfl"
    save_field(random_field(g, seed=0), path)
    assert path.read_bytes()[:4] == b"KFL1"
    bad = tmp_path / "bad.kfl"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_field(bad)


def test_random_field_deterministic():
    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)
    a = random_field(g, seed=7)
    b = random_field(g, seed=7)
    assert np.array_equal(a.data, b.data)


def test_complex_normal_is_the_two_draw_sum():
    # real parts first, then imaginary parts: the same stream and bits
    from kflab.grid import _complex_normal

    for shape in ((3, 5), (4, 4, 6, 6)):
        ref = np.random.default_rng(11)
        expected = ref.standard_normal(shape) + 1j * ref.standard_normal(shape)
        got = _complex_normal(np.random.default_rng(11), shape)
        assert got.dtype == np.complex128
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("d, real", [(2, False), (2, True), (3, False)])
def test_l2_norm_and_random_field_bits(d, real):
    # the in-place square keeps the bits of np.abs(x) ** 2
    from kflab.grid import _reflect_n

    g = make_grid(d=d, n_modes=4, v_points=6, v_extent=4.0)
    rng = np.random.default_rng(12)
    data = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    if real:
        data = 0.5 * (data + np.conj(_reflect_n(g, data)))
    fld = PhaseField(g, data)
    assert fld.l2_norm() == float(np.sqrt(g.dv**d * np.sum(np.abs(data) ** 2)))
    assert np.array_equal(random_field(g, 12, real=real).data, data / fld.l2_norm())


def test_field_arithmetic_and_grid_mismatch():
    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)
    a = random_field(g, seed=8)
    b = random_field(g, seed=9)
    s = a + b
    assert np.allclose(s.data, a.data + b.data)
    other = make_grid(d=2, n_modes=4, v_points=8, v_extent=5.0)
    c = random_field(other, seed=8)
    with pytest.raises(ValueError):
        a + c
