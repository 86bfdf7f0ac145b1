"""End-to-end acceptance suite.

Each test exercises one verification campaign at its reference scale,
prints a single PASS/FAIL line with the headline numbers, and asserts
the stated tolerances.  Budgets are generous on a laptop core; the
heavy sweeps (counting, Strichartz, nonlinear, solver) dominate.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from kflab import (
    LevelSetQuery,
    PhaseField,
    SolverConfig,
    bilinear_modulation_check,
    collide,
    conservation_drift,
    counting_sweep,
    duhamel_picard,
    free_evolve,
    gain_bobylev,
    gain_direct_oracle,
    gain_estimate_check,
    holder_gain_check,
    integrate_interaction_picture,
    linear_xsb_checks,
    loglog_slope,
    loss_bobylev,
    loss_estimate_check,
    make_grid,
    maxwellian_perturbed,
    measure_level_set,
    moments,
    perturbation_experiment,
    positivity_check,
    psi_delta_scaling,
    psi_window_hb,
    random_field,
    sphere_quadrature,
    strichartz_gauge_check,
    strichartz_scan,
    sup_l2_difference,
    v_to_xi,
    x_analyze,
    x_synthesize,
    xi_to_v,
)
from test_counting import rational_measure


def _verdict(name: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status}: {name} ({detail}; {time.time() - t0:.1f}s)")


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    den = np.sqrt(np.sum(np.abs(b) ** 2))
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2)) / max(den, 1e-300))


def test_criterion_1_transforms():
    # round trips, unitarity, group law, commutation: <= 1e-12 relative
    t0 = time.time()
    grid = make_grid(d=2, n_modes=4, v_points=8, v_extent=4.0)
    worst = 0.0
    for trial in range(100):
        f = random_field(grid, np.random.SeedSequence(entropy=11, spawn_key=(trial,)))
        ftil = v_to_xi(f)
        worst = max(worst, _rel(xi_to_v(grid, ftil).data, f.data))
        worst = max(worst, _rel(x_analyze(grid, x_synthesize(f)).data, f.data))
        s, t = 0.3, -0.7
        a = free_evolve(free_evolve(f, s), t)
        b = free_evolve(f, s + t)
        worst = max(worst, _rel(a.data, b.data))
        worst = max(worst, abs(free_evolve(f, t).l2_norm() - f.l2_norm()) / f.l2_norm())
        # free evolution commutes with x-translation (a pure mode phase)
        phase = np.exp(-1j * 0.5 * grid.modes_1d)[:, None, None, None]
        lhs = free_evolve(PhaseField(grid, f.data * phase), t)
        rhs = PhaseField(grid, free_evolve(f, t).data * phase)
        worst = max(worst, _rel(lhs.data, rhs.data))
    ok = worst <= 1e-12
    _verdict("criterion 1 (transforms/propagator)", ok, f"worst rel err {worst:.2e}", t0)
    assert ok


def _smooth_test_field(grid):
    # smooth in v (resolvable by the oracle's interpolation), two x-modes
    vv = grid.v_vectors().reshape((grid.v_points,) * grid.d + (grid.d,))
    mu = np.exp(-np.sum(vv**2, axis=-1))
    aniso = mu * (1.0 + 0.25 * np.sin(vv[..., 0]))
    data = np.zeros(grid.shape, dtype=np.complex128)
    data[(0,) * grid.d] = aniso
    data[(1,) + (0,) * (grid.d - 1)] = 0.15 * mu
    data[(-1 % grid.n_modes,) + (0,) * (grid.d - 1)] = 0.15 * mu
    return PhaseField(grid, data)


def test_criterion_2_collision():
    t0 = time.time()
    # reference point: rel L2 error of the spectral gain vs the
    # physical-space oracle
    ladder = ((16, 16), (24, 32), (32, 64))
    errs = []
    for v_points, nodes in ladder:
        g = make_grid(d=2, n_modes=8, v_points=v_points, v_extent=6.0)
        quad = sphere_quadrature(2, nodes)
        f = _smooth_test_field(g)
        fast = gain_bobylev(f, f, quad)
        slow = gain_direct_oracle(f, f, quad)
        errs.append(_rel(fast.data, slow.data))
    ok_ref = errs[-1] <= 5e-2
    ok_ladder = errs[0] > errs[1] > errs[2]

    # Maxwellian residuals on the same refinement ladder
    residuals, mass_res, mom_res, en_res = [], [], [], []
    for v_points, nodes in ladder:
        g = make_grid(d=2, n_modes=8, v_points=v_points, v_extent=6.0)
        quad = sphere_quadrature(2, nodes)
        mu = maxwellian_perturbed(g, eps=0.0)
        q = collide(mu, quad)
        gain = gain_bobylev(mu, mu, quad)
        residuals.append(q.l2_norm() / gain.l2_norm())
        mass, mom, energy = moments(q)
        mu_mass, _, mu_energy = moments(mu)
        m0 = float(np.max(np.abs(mu_mass)))
        mass_res.append(float(np.max(np.abs(mass))) / m0)
        mom_res.append(float(np.max(np.abs(mom))) / m0)
        en_res.append(float(np.max(np.abs(energy))) / float(np.max(np.abs(mu_energy))))
    ok_maxw = residuals[-1] <= 1e-2 and residuals[0] > residuals[1] > residuals[2]
    ok_mass = max(mass_res) <= 1e-12
    # momentum residuals sit at rounding level, so monotonicity is
    # checked on the combined moment residual (dominated by energy)
    combined = [max(m, e) for m, e in zip(mom_res, en_res)]
    ok_moments = (
        mom_res[-1] <= 1e-3
        and en_res[-1] <= 1e-3
        and combined[0] > combined[1] > combined[2]
    )
    ok = ok_ref and ok_ladder and ok_maxw and ok_mass and ok_moments
    _verdict(
        "criterion 2 (collision vs oracle)",
        ok,
        f"oracle err {errs[-1]:.2e}, ladder {['%.1e' % e for e in errs]}, "
        f"maxwellian {residuals[-1]:.1e}, mass {max(mass_res):.1e}, "
        f"mom {mom_res[-1]:.1e}, energy {en_res[-1]:.1e}",
        t0,
    )
    assert ok


def test_criterion_3_counting():
    t0 = time.time()
    report = counting_sweep(
        Ns=(4, 8, 16, 32, 64),
        Ms=(1, 2, 4, 8, 16),
        Ks=(1, 2, 4),
        queries_per_cell=100,
        seed=0,
    )
    ratios = np.array(report.column("ratio"))
    Ns_col = np.array(report.column("N"))
    ok_finite = bool(np.all(np.isfinite(ratios)))
    Ns = sorted(set(Ns_col))
    max_per_N = [float(np.max(ratios[Ns_col == N])) for N in Ns]
    slope = loglog_slope(Ns, max_per_N)
    ok_slope = slope <= 0.1

    # the exact measure against the exact rational oracle
    q = LevelSetQuery(d=2, N=8, M=4.0, K=2, a=(0.3, -1.1), b=(0.2, 2.7), C0=1.5)
    exact = float(rational_measure(q))
    rel = abs(measure_level_set(q) - exact) / exact
    ok_oracle = rel <= 1e-12
    ok = ok_finite and ok_slope and ok_oracle
    _verdict(
        "criterion 3 (counting sweep)",
        ok,
        f"slope {slope:.3f}, oracle {exact:.4f} to {rel:.1e} relative",
        t0,
    )
    assert ok


def test_criterion_4_strichartz():
    t0 = time.time()
    grid = make_grid(d=2, n_modes=64, v_extent=16.0, v_points=32)
    report = strichartz_scan(
        grid, Ns=(2, 4, 8, 16, 32), Ms=(1, 2, 4, 8), trials=20, T=1.0, seed=0, n_time=9
    )
    ratios = np.array(report.column("ratio"))
    Ns_col = np.array(report.column("N"))
    ok_finite = bool(np.all(np.isfinite(ratios)))
    Ns = sorted(set(Ns_col))
    max_per_N = [float(np.max(ratios[Ns_col == N])) for N in Ns]
    slope = loglog_slope(Ns, max_per_N)
    ok_slope = slope <= 0.05

    gauge = strichartz_gauge_check(
        grid, N=8, M=2, shift=(3, 0), trials=5, T=1.0, seed=0, n_time=17
    )
    defect = max(gauge.column("defect"))
    ok_gauge = defect <= 1e-8
    ok = ok_finite and ok_slope and ok_gauge
    _verdict(
        "criterion 4 (strichartz scan)",
        ok,
        f"slope {slope:.3f}, max ratio {np.max(ratios):.3f}, gauge {defect:.1e}",
        t0,
    )
    assert ok


def test_criterion_5_bilinear():
    t0 = time.time()
    ok = True
    details = []
    # grids sized to hold the shell (n_modes >= 2N) and the velocity
    # block (V >= 2M) without exceeding a few hundred MB of trajectories
    cells = (
        (4, 2, make_grid(d=2, n_modes=8, v_extent=4.0, v_points=8), 32),
        (16, 4, make_grid(d=2, n_modes=32, v_extent=8.0, v_points=12), 16),
    )
    for N, M, grid, n_samples in cells:
        report = bilinear_modulation_check(
            grid,
            N=N,
            M=M,
            K1s=(1, 2, 4, 8),
            K2s=(1, 2, 4, 8),
            trials=3,
            seed=0,
            t_half=4.0,
            n_samples=n_samples,
        )
        ratios = np.array(report.column("ratio"))
        ok = ok and bool(np.all(np.isfinite(ratios)))
        # swap symmetry: ratio(K1, K2) == ratio(K2, K1) per trial
        table = {}
        for row in report.rows:
            key = (row[4], row[2], row[3])
            table[key] = row[7]
        swap = max(
            abs(table[(tr, k1, k2)] - table[(tr, k2, k1)])
            for (tr, k1, k2) in table
        )
        ok = ok and swap <= 1e-9
        details.append(f"N={N} max ratio {np.max(ratios):.3f} swap {swap:.1e}")
    _verdict("criterion 5 (bilinear/modulation)", ok, "; ".join(details), t0)
    assert ok


def test_criterion_6_nonlinear():
    t0 = time.time()
    d = 2
    s, r = d / 2 - 0.25 + 0.05, d / 2 + 0.05
    grid = make_grid(d=2, n_modes=8, v_extent=4.0, v_points=16)
    quad = sphere_quadrature(2, 16)
    Ts = (0.125, 0.25, 0.5)
    loss = loss_estimate_check(grid, s, r, Ts=Ts, trials=3, seed=0)
    gain = gain_estimate_check(grid, s, r, Ts=Ts, trials=3, seed=0, quad=quad)
    holder = holder_gain_check(grid, p=4.0, q=4.0, trials=3, seed=0, quad=quad)
    ok = True
    details = []
    for label, rep in (("loss", loss), ("gain", gain), ("holder", holder)):
        ratios = np.array(rep.column("ratio"))
        ok = ok and bool(np.all(np.isfinite(ratios))) and np.max(ratios) < 100.0
        details.append(f"{label} max {np.max(ratios):.3f}")

    # zero-input rows are exactly zero
    zero = PhaseField(grid, np.zeros(grid.shape, dtype=np.complex128))
    f = random_field(grid, np.random.SeedSequence(3), real=True)
    ok_zero = (
        loss_bobylev(zero, f).l2_norm() == 0.0
        and loss_bobylev(f, zero).l2_norm() == 0.0
        and gain_bobylev(zero, f, quad).l2_norm() == 0.0
        and gain_bobylev(f, zero, quad).l2_norm() == 0.0
    )
    ok = ok and ok_zero
    _verdict(
        "criterion 6 (nonlinear estimates)",
        ok,
        "; ".join(details) + f"; zero-input exact {ok_zero}",
        t0,
    )
    assert ok


def test_criterion_7_linear_xsb():
    t0 = time.time()
    grid = make_grid(d=2, n_modes=4, v_extent=4.0, v_points=8)
    report = linear_xsb_checks(
        grid, s=0.0, r=0.0, b=0.55, seed=0, t_half=2.0, n_samples=129
    )
    i = report.columns.index("ratio")
    b2_row = [row for row in report.rows if row[0] == "b2"][0]
    oracle = report.extra["b2_oracle"]
    b2_err = abs(b2_row[i] - oracle) / oracle
    ok_b2 = b2_err <= 1e-6

    scaling = psi_delta_scaling(b=0.55)
    s_l2 = scaling.extra["slope_l2"]
    s_hb = scaling.extra["slope_hdotb"]
    ok_exp = abs(s_l2 - 0.5) <= 0.05 and abs(s_hb - (0.5 - 0.55)) <= 0.05
    ok = ok_b2 and ok_exp
    _verdict(
        "criterion 7 (linear restriction norms)",
        ok,
        f"b2 rel err {b2_err:.1e}, slopes ({s_l2:.3f}, {s_hb:.3f})",
        t0,
    )
    assert ok


def test_criterion_8_solver():
    t0 = time.time()
    grid = make_grid(d=2, n_modes=4, v_points=28, v_extent=5.0)
    quad = sphere_quadrature(2, 16)
    f0 = maxwellian_perturbed(grid, eps=0.1, mode=(1, 0))
    config = SolverConfig(
        grid=grid, T=0.125, dt=0.125 / 16, quad=quad, max_picard=20, tol=1e-10
    )
    traj, report = duhamel_picard(f0, config)
    ratios = report.ratios()
    ok_contract = report.converged and any(r <= 0.5 for r in ratios[:8])

    Tf = report.t_final
    rk_config = replace(config, T=Tf, dt=traj.dt)
    rk = integrate_interaction_picture(f0, rk_config)
    diff = sup_l2_difference(traj, rk)
    ok_cross = diff <= 1e-4

    drift = conservation_drift(traj, t_limit=Tf)
    ok_mass = drift["mass_drift"] <= 1e-10
    pos = positivity_check(traj, threshold=1e-6, t_limit=Tf)
    ok_pos = pos["min_value"] >= -1e-6

    # perturbation stability at a lighter resolution (continuity in the
    # data, not a resolution statement)
    pgrid = make_grid(d=2, n_modes=4, v_points=16, v_extent=5.0)
    pconfig = SolverConfig(
        grid=pgrid,
        T=0.125,
        dt=0.125 / 8,
        quad=sphere_quadrature(2, 8),
        max_picard=20,
        tol=1e-10,
    )
    pf0 = maxwellian_perturbed(pgrid, eps=0.1, mode=(1, 0))
    prep = perturbation_experiment(pf0, pconfig, deltas=(1e-2, 1e-3, 1e-4), seed=0)
    pr = prep.column("ratio")
    ok_pert = max(pr) <= 2.0 * min(pr)
    ok = ok_contract and ok_cross and ok_mass and ok_pos and ok_pert
    _verdict(
        "criterion 8 (solver)",
        ok,
        f"ratio {min(ratios):.3f}, cross {diff:.1e}, mass {drift['mass_drift']:.1e}, "
        f"min {pos['min_value']:.1e}, pert spread {max(pr) / min(pr):.3f}",
        t0,
    )
    assert ok


def test_criterion_9_determinism():
    t0 = time.time()
    sweep = dict(Ns=(4, 8), Ms=(1, 2), Ks=(1, 2), queries_per_cell=5, seed=3)
    a = counting_sweep(**sweep)
    b = counting_sweep(**sweep)
    grid = make_grid(d=2, n_modes=8, v_extent=4.0, v_points=8)
    scan = dict(Ns=(2, 4), Ms=(1,), trials=2, T=1.0, seed=7, n_time=9)
    c = strichartz_scan(grid, **scan)
    d = strichartz_scan(grid, **scan)
    ok = a.to_csv() == b.to_csv() and c.to_csv() == d.to_csv()
    _verdict("criterion 9 (determinism)", ok, "csv byte-identical", t0)
    assert ok
