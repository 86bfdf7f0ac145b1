"""Free-streaming propagator: unitarity, group law, and oracles."""

import numpy as np
import pytest

from kflab import (
    PhaseField,
    free_evolve,
    make_grid,
    random_field,
    v_to_xi,
)
from kflab.propagator import _free_flow, _nv_dot


def _grid():
    return make_grid(d=2, n_modes=8, v_points=16, v_extent=4.0)


def test_identity_at_t0():
    fld = random_field(_grid(), seed=0)
    out = free_evolve(fld, 0.0)
    assert np.array_equal(out.data, fld.data)


def test_group_law_and_unitarity():
    fld = random_field(_grid(), seed=1)
    a = free_evolve(free_evolve(fld, 0.3), 0.45)
    b = free_evolve(fld, 0.75)
    assert np.allclose(a.data, b.data, atol=1e-13)
    assert free_evolve(fld, 0.75).l2_norm() == pytest.approx(
        fld.l2_norm(), rel=1e-13
    )


def test_xi_profile_shift():
    # single x-mode n0: S(t) translates the xi-profile by t*n0
    g = _grid()
    n0 = (2, -1)
    prof = np.exp(-np.sum(g.v_vectors() ** 2, axis=1)).reshape((g.v_points,) * 2)
    data = np.zeros(g.shape, dtype=np.complex128)
    data[n0[0] % g.n_modes, n0[1] % g.n_modes] = prof
    fld = PhaseField(g, data)
    t = g.dxi / 2.0  # shift of exactly one xi node per unit mode, halved
    evolved = v_to_xi(free_evolve(fld, 2.0 * t))
    base = v_to_xi(fld)
    # shift by t*n0 = dxi*(2,-1): one grid step along each axis
    shifted = np.roll(base, shift=(2, -1), axis=(2, 3))
    assert np.allclose(
        evolved[n0[0] % g.n_modes, n0[1] % g.n_modes],
        shifted[n0[0] % g.n_modes, n0[1] % g.n_modes],
        atol=1e-12,
    )


def test_semi_lagrangian_oracle():
    # f(t,x,v) = f0(x - t v, v) for a smooth bump, spectrally accurate
    g = make_grid(d=2, n_modes=32, v_points=12, v_extent=3.0)
    x = g.x_1d
    vv = g.v_vectors().reshape((g.v_points,) * 2 + (2,))
    fx = np.exp(np.cos(x[:, None]) + np.sin(x[None, :]))
    fv = np.exp(-np.sum(vv**2, axis=-1))
    values = fx[..., None, None] * fv[None, None]
    from kflab import x_analyze, x_synthesize

    fld = x_analyze(g, values.astype(np.complex128))
    t = 0.37
    out = x_synthesize(free_evolve(fld, t))
    xs = x[:, None, None, None] - t * vv[None, None, :, :, 0]
    ys = x[None, :, None, None] - t * vv[None, None, :, :, 1]
    expected = np.exp(np.cos(xs) + np.sin(ys)) * fv[None, None]
    assert np.max(np.abs(out - expected)) <= 1e-8


def test_interaction_frame_inverse():
    # the interaction frame S(-t) and its inverse S(t) round-trip to the
    # identity
    fld = random_field(_grid(), seed=2)
    t = 0.6
    back = free_evolve(fld, -t)
    fwd = free_evolve(back, t)
    assert np.allclose(fwd.data, fld.data, atol=1e-13)


@pytest.mark.parametrize(
    "d, n_modes, v_points", [(2, 8, 16), (2, 6, 8), (3, 4, 8), (3, 6, 4)]
)
@pytest.mark.parametrize("dtype, rel", [(np.complex128, 1e-14), (np.complex64, 1e-6)])
def test_free_flow_matches_dense_phase(d, n_modes, v_points, dtype, rel):
    # oracle: the dense phase exp(-i t n.v) over the whole (n, v) grid,
    # for one time and for a window of times (one slice, or one per time)
    g = make_grid(d=d, n_modes=n_modes, v_points=v_points, v_extent=4.0)
    nv = _nv_dot(g)
    rng = np.random.default_rng(d * 100 + n_modes)
    times = np.linspace(-0.9, 0.9, 7)
    ext = (...,) + (None,) * (2 * d)
    one = random_field(g, seed=4).data.astype(dtype)
    stack = (rng.standard_normal((7,) + g.shape)
             + 1j * rng.standard_normal((7,) + g.shape)).astype(dtype)
    cases = [(one, 0.37, one * np.exp(-1j * 0.37 * nv)),
             (one, times, one * np.exp(-1j * times[ext] * nv)),
             (stack, times, stack * np.exp(-1j * times[ext] * nv))]
    for data, t, expected in cases:
        before = data.copy()
        got = _free_flow(data, g, t)
        assert got.dtype == dtype and got.shape == expected.shape
        assert np.array_equal(data, before)
        assert np.max(np.abs(got - expected)) <= rel * np.max(np.abs(expected))
        if data.shape == expected.shape:
            aliased = data.copy()
            assert _free_flow(aliased, g, t, out=aliased) is aliased
            assert np.array_equal(aliased, got)


def test_support_grid_matches_the_full_grid_d3():
    # x_1-only data in d=3, no collision: the flow, the Duhamel integral
    # and the time-DFT on the (4, 1, 1) support grid equal the full-grid
    # results restricted to it (the n_2 = n_3 = 0 slab); with no x-mode
    # at all the flow is the identity
    from kflab import (duhamel_integral, maxwellian_perturbed, restrict_modes,
                       sample_free_evolution)
    from kflab.trajectory import time_dft

    g = make_grid(d=3, n_modes=4, v_points=8, v_extent=4.0)
    f0 = maxwellian_perturbed(g, eps=0.2, mode=(1, 0, 0))
    sub = restrict_modes(f0, (4, 1, 1))
    assert sub.grid.shape == (4, 1, 1, 8, 8, 8)
    times = np.linspace(-0.5, 0.5, 9)

    def close(support, full):
        want = full[:, :, :1, :1]
        assert support.shape == want.shape
        assert np.max(np.abs(support - want)) <= 1e-13 * np.max(np.abs(want))

    dense = f0.data * np.exp(-1j * times[(...,) + (None,) * 6] * _nv_dot(g))
    close(_free_flow(sub.data, sub.grid, times), dense)
    free = sample_free_evolution(f0, 0.5, 9)
    free_sub = sample_free_evolution(sub, 0.5, 9)
    close(free_sub.data, free.data)
    close(duhamel_integral(free_sub).data, duhamel_integral(free).data)
    tau, coeffs = time_dft(free)
    tau_sub, coeffs_sub = time_dft(free_sub)
    assert np.array_equal(tau, tau_sub)
    close(coeffs_sub, coeffs)

    mu = restrict_modes(maxwellian_perturbed(g, eps=0.0), (1, 1, 1))
    flowed = _free_flow(mu.data, mu.grid, times)
    assert flowed.shape == (9,) + mu.grid.shape
    assert np.array_equal(flowed, np.broadcast_to(mu.data, flowed.shape))
