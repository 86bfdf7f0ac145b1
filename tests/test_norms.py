"""Trajectories, time-DFT, Sobolev / space-time / restriction norms."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from kflab import (
    NormParams,
    PhaseField,
    apply_time_cutoff,
    default_params,
    duhamel_integral,
    free_evolve,
    l2_spacetime_norm,
    make_grid,
    make_trajectory,
    psi_window_hb,
    random_field,
    sample_free_evolution,
    sobolev_norm,
    xsb_norm,
)
from kflab.propagator import _nv_dot
from kflab.trajectory import _trapz_l2, time_dft, time_idft


def _grid():
    return make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)


def test_time_dft_roundtrip_and_parseval():
    g = _grid()
    traj = sample_free_evolution(random_field(g, seed=0), 1.0, 17)
    tau, coeffs = time_dft(traj)
    back = time_idft(traj, coeffs)
    assert np.max(np.abs(back.data - traj.data)) <= 1e-12
    # Parseval: sum |coeffs|^2 equals the trapezoid time integral of |u|^2
    lhs = np.sum(np.abs(coeffs) ** 2)
    w = np.full(traj.n_samples, traj.dt)
    w[0] = w[-1] = traj.dt / 2.0
    rhs = np.sum(w * np.sum(np.abs(traj.data) ** 2, axis=(1, 2, 3, 4)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_duhamel_fundamental_theorem():
    # d/dt of duhamel_integral(F) at the sample level reproduces
    # S(t) acting on the interaction-frame antiderivative; check the
    # defining property at t = 0.
    g = _grid()
    traj = make_trajectory(g, 1.0, 9)
    rng = np.random.default_rng(1)
    traj.data = traj.data + rng.standard_normal(traj.data.shape)
    out = duhamel_integral(traj)
    center = out.n_samples // 2
    assert np.max(np.abs(out.data[center])) == 0.0


def test_duhamel_constant_forcing_linear_growth():
    # for forcing already in the interaction frame and n = 0 modes only,
    # S cancels and the integral of a constant is t * F
    g = _grid()
    traj = make_trajectory(g, 1.0, 17)
    prof = np.zeros(g.shape, dtype=np.complex128)
    prof[0, 0] = 1.0
    traj.data = traj.data + prof[None]
    out = duhamel_integral(traj)
    assert np.allclose(out.data[-1, 0, 0], 1.0 * prof[0, 0], atol=1e-12)
    assert np.allclose(out.data[0, 0, 0], -1.0 * prof[0, 0], atol=1e-12)


def _four_point_cumsum(G, dt):
    """The Duhamel rule interval by interval, weights written out, summed
    from the first sample and anchored at the central one."""
    n = len(G)
    cum = np.zeros_like(G)
    for j in range(n - 1):
        if j == 0:
            w, pts = (9, 19, -5, 1), (0, 1, 2, 3)
        elif j == n - 2:
            w, pts = (1, -5, 19, 9), (n - 4, n - 3, n - 2, n - 1)
        else:
            w, pts = (-1, 13, 13, -1), (j - 1, j, j + 1, j + 2)
        cum[j + 1] = cum[j] + dt / 24.0 * sum(wi * G[p] for wi, p in zip(w, pts))
    return cum - cum[n // 2]


@pytest.mark.parametrize("d, n_modes, v_points, n_samples", [(2, 4, 8, 17), (3, 4, 4, 9)])
def test_duhamel_matches_dense_four_point_reference(d, n_modes, v_points, n_samples):
    # reference: the 4-point rule in the interaction frame, anchored at
    # t = 0, with dense exp(-i t n.v) phases
    g = make_grid(d=d, n_modes=n_modes, v_points=v_points, v_extent=4.0)
    traj = make_trajectory(g, 0.8, n_samples)
    rng = np.random.default_rng(3)
    traj.data = traj.data + rng.standard_normal(traj.data.shape)
    traj.data = traj.data + 1j * rng.standard_normal(traj.data.shape)
    before = traj.data.copy()
    out = duhamel_integral(traj)
    assert np.array_equal(traj.data, before)
    phase = np.exp(-1j * traj.times[(...,) + (None,) * (2 * d)] * _nv_dot(g))
    ref = phase * _four_point_cumsum(np.conj(phase) * before, traj.dt)
    assert np.max(np.abs(out.data - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_samples", [5, 9])
def test_duhamel_integrates_a_cubic_to_rounding(n_samples):
    # on the n = 0 modes S is the identity, so a forcing cubic in t has
    # the exact integral H(t) = int_0^t h; the trapezoid misses it by O(dt^2)
    g = _grid()
    traj = make_trajectory(g, 1.0, n_samples)
    t = traj.times
    h = 1.0 + 2.0 * t - 3.0 * t**2 + 0.7 * t**3
    exact = t + t**2 - t**3 + 0.175 * t**4
    prof = np.zeros(g.shape, dtype=np.complex128)
    prof[0, 0] = random_field(g, seed=4).data[0, 0]
    traj.data = traj.data + h[:, None, None, None, None] * prof[None]
    out = duhamel_integral(traj)
    ref = exact[:, None, None, None, None] * prof[None]
    assert np.max(np.abs(out.data - ref)) <= 1e-14 * np.max(np.abs(ref))
    trap = np.concatenate([[0.0], np.cumsum(traj.dt * (h[1:] + h[:-1]) / 2.0)])
    assert np.max(np.abs(trap - trap[n_samples // 2] - exact)) > 1e-3


def test_duhamel_error_falls_fourth_order():
    # F = S(t) (cos(2t) phi) has the exact integral S(t) (sin(2t)/2 phi);
    # each halving of dt cuts the error about 16x (the trapezoid's 4x)
    g = _grid()
    phi = random_field(g, seed=5)
    errs = []
    for n_samples in (17, 33, 65):
        forcing = sample_free_evolution(phi, 1.0, n_samples)
        exact = sample_free_evolution(phi, 1.0, n_samples)
        t = forcing.times[:, None, None, None, None]
        forcing.data *= np.cos(2.0 * t)
        exact.data *= np.sin(2.0 * t) / 2.0
        errs.append(np.max(np.abs(duhamel_integral(forcing).data - exact.data)))
    assert all(a >= 12.0 * b for a, b in zip(errs, errs[1:])), errs


def test_simulate_does_not_import_scipy_integrate(tmp_path):
    # a fresh interpreter: this module imports scipy.integrate itself
    code = (
        "import sys\n"
        "from kflab.cli import run\n"
        f"code = run(['simulate', '--out-dir', {str(tmp_path)!r}, 'n_modes=4', 'v_points=8'])\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate was imported'\n"
        "print(code)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    # the shipped solver settings still end at the sweep cap (exit 2)
    assert done.stdout.strip() == "2"


def test_sobolev_zero_indices_is_l2():
    g = _grid()
    fld = random_field(g, seed=2)
    assert sobolev_norm(fld, 0.0, 0.0) == pytest.approx(fld.l2_norm(), rel=1e-13)


def test_sobolev_single_mode_weight():
    g = _grid()
    data = np.zeros(g.shape, dtype=np.complex128)
    data[2, 1, 3, 4] = 2.0
    fld = PhaseField(g, data)
    n2 = 1.0 + 2.0**2 + 1.0**2
    v = g.v_1d
    v2 = 1.0 + v[3] ** 2 + v[4] ** 2
    s, r = 0.7, 1.3
    expected = n2 ** (s / 2.0) * v2 ** (r / 2.0) * fld.l2_norm()
    assert sobolev_norm(fld, s, r) == pytest.approx(expected, rel=1e-12)


def test_sobolev_maxwellian_radial_oracle():
    g = make_grid(d=2, n_modes=2, v_points=128, v_extent=8.0)
    vv = g.v_vectors()
    mu = np.exp(-np.sum(vv**2, axis=1)).reshape(128, 128)
    data = np.zeros(g.shape, dtype=np.complex128)
    data[0, 0] = mu
    fld = PhaseField(g, data)
    # analytic: (integral <v>^2 e^{-2|v|^2} dv)^{1/2} via 1D radial quadrature
    from scipy.integrate import quad

    val, _ = quad(lambda rr: (1 + rr**2) * np.exp(-2 * rr**2) * 2 * np.pi * rr, 0, 8)
    assert sobolev_norm(fld, 0.0, 1.0) == pytest.approx(np.sqrt(val), abs=1e-6)


def test_lp_constant_trajectory():
    g = _grid()
    fld = random_field(g, seed=3)
    T = 0.75
    traj = make_trajectory(g, T, 9)
    traj.data = traj.data + fld.data[None]
    # the space-time norm carries the (2pi)^d xi-Plancherel factor
    assert l2_spacetime_norm(traj) == pytest.approx(
        (2.0 * np.pi) ** 2 * np.sqrt(2.0 * T) * fld.l2_norm(), rel=1e-12
    )


def test_lp_p2_free_evolution_invariant():
    g = _grid()
    phi = random_field(g, seed=4)
    traj = sample_free_evolution(phi, 1.0, 9)
    assert l2_spacetime_norm(traj) == pytest.approx(
        (2.0 * np.pi) ** 2 * np.sqrt(2.0) * phi.l2_norm(), rel=1e-12
    )


def test_lp_p4_against_brute_force():
    # the exact quartic slice integral against brute force: evaluate the
    # xi-side field on a refined xi grid
    from kflab import x_synthesize, xi_phase_matrix
    from kflab.norms import _slice_l4_xi_4

    for d, refine in ((2, 8), (3, 4)):
        g = make_grid(d=d, n_modes=2, v_points=4, v_extent=2.0)
        traj = sample_free_evolution(random_field(g, seed=5), 0.5, 5)
        w = np.full(5, traj.dt)
        w[0] = w[-1] = traj.dt / 2.0
        val4 = sum(
            w[j] * g.dx**d * _slice_l4_xi_4(x_synthesize(traj.slice_field(j)), g)
            for j in range(5)
        )
        total = 0.0
        xi1 = -np.pi / g.dv + (2 * np.pi / g.dv) * np.arange(
            refine * g.v_points
        ) / (refine * g.v_points)
        pts = np.stack(
            [a.ravel() for a in np.meshgrid(*([xi1] * d), indexing="ij")], axis=1
        )
        dxi_f = (xi1[1] - xi1[0]) ** d
        phase = xi_phase_matrix(g, pts)
        for j in range(5):
            vals_x = x_synthesize(traj.slice_field(j))
            for ix in np.ndindex(*(g.n_modes,) * d):
                coeffs = vals_x[ix].reshape(-1, 1)
                u = (phase @ coeffs)[:, 0]
                total += w[j] * g.dx**d * dxi_f * np.sum(np.abs(u) ** 4)
        assert val4 == pytest.approx(total, rel=1e-10), d


def test_time_cutoff_plateau_support_double():
    g = _grid()
    traj = sample_free_evolution(random_field(g, seed=6), 4.0, 33)
    cut = apply_time_cutoff(traj, 1.0)
    times = traj.times
    inner = np.abs(times) <= 1.0
    outer = np.abs(times) >= 2.0
    assert np.allclose(cut.data[inner], traj.data[inner], atol=0.0)
    assert np.all(cut.data[outer] == 0.0)


def test_time_cutoff_peak_memory():
    # the product alone; a copy of the input, thrown away for the
    # product, peaked at 2x
    g = make_grid(d=2, n_modes=8, v_points=16, v_extent=4.0)
    traj = sample_free_evolution(random_field(g, seed=10), 4.0, 17)
    apply_time_cutoff(traj, 1.0)  # warm-up
    tracemalloc.start()
    try:
        apply_time_cutoff(traj, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * traj.data.nbytes


def test_xsb_peak_memory():
    # the time-DFT in one array (1x) and |DFT|^2 in float64 (0.5x),
    # 1.50x measured; separate weighted, transformed and scaled copies
    # peaked at 2.02x
    g = make_grid(d=2, n_modes=8, v_points=16, v_extent=4.0)
    traj = apply_time_cutoff(sample_free_evolution(random_field(g, seed=12), 2.0, 33), 1.0)
    params = NormParams(0.3, 1.0, 0.55)
    xsb_norm(traj, params)  # warm-up
    tracemalloc.start()
    try:
        xsb_norm(traj, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * traj.data.nbytes


def test_window_and_restricted_l2():
    # samples spaced 0.3: t = -0.3 and 0.3 are a rounding off, and the
    # window |t| <= 0.3 keeps both
    traj = make_trajectory(_grid(), 0.9, 7)
    assert list(traj.within(0.3)) == [2, 3, 4]
    assert list(traj.within(traj.t_half)) == list(range(7))
    # trapezoid over the kept run: ends weigh dt/2
    assert _trapz_l2([1.0, 4.0, 1.0], 0.5) == pytest.approx(np.sqrt(0.25 + 2.0 + 0.25))
    # b4 of linear_xsb_checks: the L2_t H^{0,0} norm of a trajectory is its
    # space-time L2 norm up to the (2 pi)^d Plancherel constant
    free = sample_free_evolution(random_field(_grid(), seed=11), 1.0, 9)
    sq = [sobolev_norm(free.slice_field(j), 0.0, 0.0) ** 2 for j in range(free.n_samples)]
    assert (2.0 * np.pi) ** 2 * _trapz_l2(sq, free.dt) == pytest.approx(
        l2_spacetime_norm(free), rel=1e-12
    )


def test_xsb_zero_indices_is_l2t():
    g = _grid()
    traj = sample_free_evolution(random_field(g, seed=7), 2.0, 33)
    cut = apply_time_cutoff(traj, 1.0)
    params = NormParams(0.0, 0.0, 0.0)
    # xsb_norm is reported on the (n, v) side; the space-time L2 carries
    # the extra (2pi)^d constant
    assert (2.0 * np.pi) ** 2 * xsb_norm(cut, params) == pytest.approx(
        l2_spacetime_norm(cut), rel=1e-10
    )


def test_xsb_free_evolution_identity():
    # |psi(t) S(t) phi|_{X^{0,b}} = |psi|_{H^b} |phi|_{L^2}, exactly on
    # the discrete grid (same windowed weighted DFT on both sides)
    g = _grid()
    phi = random_field(g, seed=8)
    traj = sample_free_evolution(phi, 2.0, 65)
    cut = apply_time_cutoff(traj, 1.0)
    b = 0.55
    lhs = xsb_norm(cut, NormParams(0.0, 0.0, b))
    rhs = psi_window_hb(2.0, 65, b) * phi.l2_norm()
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_xsb_requires_cutoff():
    g = _grid()
    traj = sample_free_evolution(random_field(g, seed=9), 1.0, 9)
    with pytest.raises(ValueError):
        xsb_norm(traj, NormParams(0.0, 0.0, 0.55))


def test_xsb_rejects_a_cutoff_that_is_one_at_the_ends():
    # psi(t) is 1 on the window [-1, 1], so the cutoff leaves the ends as
    # they are and the time-DFT's periodic extension jumps there
    g = _grid()
    traj = apply_time_cutoff(sample_free_evolution(random_field(g, seed=9), 1.0, 9), 1.0)
    with pytest.raises(ValueError, match="first and last slices must be exactly zero"):
        xsb_norm(traj, NormParams(0.0, 0.0, 0.55))


@pytest.mark.parametrize("width", [0.3, 0.375, 1.0])
@pytest.mark.parametrize("n_samples", [9, 17, 33])
def test_cutoff_vanishes_at_the_ends_of_its_window(width, n_samples):
    # the premise of xsb_norm's guard: psi(t / w) on [-2w, 2w] is exactly
    # zero at both ends, also where 2w is not a sum of binary fractions
    from kflab.lab import _cutoff_free_trajectory

    traj = _cutoff_free_trajectory(random_field(_grid(), seed=13), width, n_samples)
    assert traj.times[-1] == pytest.approx(2.0 * width, rel=1e-12)
    assert not traj.data[0].any() and not traj.data[-1].any()
    assert traj.data[n_samples // 2].any()


def test_every_restriction_norm_gets_vanishing_ends(monkeypatch):
    # a spy over each caller's xsb_norm: the linear checks' three windows
    # and the Picard sweeps' deltas_x
    from kflab import SolverConfig, duhamel_picard, maxwellian_perturbed, sphere_quadrature
    from kflab import lab, norms, solver

    ends = []

    def spy(traj, params):
        ends.append((bool(traj.data[0].any()), bool(traj.data[-1].any())))
        return norms.xsb_norm(traj, params)

    monkeypatch.setattr(lab, "xsb_norm", spy)
    monkeypatch.setattr(solver, "xsb_norm", spy)
    lab.linear_xsb_checks(_grid(), 0.0, 0.0, 0.55, 3, 2.0, 33)
    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=6.0)
    config = SolverConfig(grid=g, T=0.125, dt=0.125 / 4, quad=sphere_quadrature(2, 8),
                          max_picard=2, tol=1e-10)
    duhamel_picard(maxwellian_perturbed(g, eps=0.1, mode=(1, 0)), config)
    assert len(ends) == 3 + 2
    assert ends == [(False, False)] * len(ends)


def test_default_params():
    p = default_params(2)
    assert p.s == pytest.approx(0.8)
    assert p.r == pytest.approx(1.05)
    assert p.b == pytest.approx(0.55)
