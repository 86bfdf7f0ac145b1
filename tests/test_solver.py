"""Fixed-point solver: Picard iteration, cross-check integrator, diagnostics."""

from dataclasses import replace

import numpy as np
import pytest

from kflab import (
    PhaseField,
    SolverConfig,
    SphereQuadrature,
    conservation_drift,
    duhamel_picard,
    free_evolve,
    integrate_interaction_picture,
    make_grid,
    maxwellian_perturbed,
    positivity_check,
    sample_free_evolution,
    sphere_quadrature,
    sup_l2_difference,
)


def _grid():
    return make_grid(d=2, n_modes=4, v_points=16, v_extent=6.0)


def _zero_quad():
    base = sphere_quadrature(2, 8)
    return SphereQuadrature(2, base.nodes, np.zeros_like(base.weights))


_QUAD = sphere_quadrature(2, 16)


def test_zero_data_fixed_point():
    g = _grid()
    f0 = PhaseField(g, np.zeros(g.shape, dtype=np.complex128))
    config = SolverConfig(grid=g, T=0.125, dt=0.125 / 4, quad=_QUAD, max_picard=3,
                          tol=1e-10)
    traj, report = duhamel_picard(f0, config)
    assert traj.sup_l2() == 0.0
    assert report.converged


def test_collisionless_is_free_evolution():
    g = _grid()
    f0 = maxwellian_perturbed(g, eps=0.1, mode=(1, 0))
    config = SolverConfig(grid=g, T=0.125, dt=0.125 / 8, quad=_zero_quad(),
                          max_picard=4, tol=1e-10)
    traj, report = duhamel_picard(f0, config)
    # with zero collision weights the first correction vanishes
    # identically, so Picard converges immediately
    assert report.converged
    assert report.deltas_sup[0] == 0.0
    # on |t| <= T the cutoffs are 1, so slices equal S(t) f0
    times = traj.times
    for j in np.nonzero(np.abs(times) <= config.T + 1e-12)[0]:
        expected = free_evolve(f0, float(times[j]))
        diff = PhaseField(g, traj.data[j] - expected.data)
        assert diff.l2_norm() <= 1e-12


def test_picard_contracts_for_small_data():
    g = _grid()
    f0 = maxwellian_perturbed(g, eps=0.1, mode=(1, 0))
    config = SolverConfig(grid=g, T=0.125, dt=0.125 / 8, quad=_QUAD, max_picard=8,
                          tol=1e-10)
    traj, report = duhamel_picard(f0, config)
    ratios = report.ratios()
    assert report.converged or all(r <= 0.5 for r in ratios[2:])


def test_rk_collisionless_free_evolution():
    g = _grid()
    f0 = maxwellian_perturbed(g, eps=0.1, mode=(1, 0))
    config = SolverConfig(grid=g, T=0.125, dt=0.125 / 8, quad=_zero_quad(),
                          max_picard=12, tol=1e-10)
    traj = integrate_interaction_picture(f0, config)
    free = sample_free_evolution(f0, traj.t_half, traj.n_samples)
    assert sup_l2_difference(traj, free) <= 1e-12


def test_rk_zero_data():
    g = _grid()
    f0 = PhaseField(g, np.zeros(g.shape, dtype=np.complex128))
    config = SolverConfig(grid=g, T=0.125, dt=0.125 / 4, quad=_QUAD, max_picard=12,
                          tol=1e-10)
    traj = integrate_interaction_picture(f0, config)
    assert traj.sup_l2() == 0.0


def test_picard_vs_rk_cross_check():
    g = _grid()
    f0 = maxwellian_perturbed(g, eps=0.1, mode=(1, 0))
    config = SolverConfig(grid=g, T=0.125, dt=0.125 / 32, quad=_QUAD, max_picard=30,
                          tol=1e-10)
    picard, report = duhamel_picard(f0, config)
    assert report.converged
    # the cutoffs are identically 1 only on |t| <= t_final, so the
    # cross-check integrator runs on that window
    Tf = report.t_final
    rk_config = replace(config, T=Tf, dt=picard.dt)
    rk = integrate_interaction_picture(f0, rk_config)
    assert sup_l2_difference(picard, rk) <= 1e-4


def test_gauge_translation_equivariance():
    # translating the data in x translates the solution: mode n picks
    # up the phase exp(-i n . a)
    g = _grid()
    f0 = maxwellian_perturbed(g, eps=0.1, mode=(1, 0))
    a_shift = 2.0 * np.pi / g.n_modes
    phase = np.exp(-1j * a_shift * g.modes_1d)[:, None, None, None]
    shifted = PhaseField(g, f0.data * phase)
    config = SolverConfig(grid=g, T=0.125, dt=0.125 / 8, quad=_QUAD, max_picard=12,
                          tol=1e-10)
    a, _ = duhamel_picard(f0, config)
    b, _ = duhamel_picard(shifted, config)
    assert np.max(np.abs(b.data - a.data * phase[None])) <= 1e-10


def _solved_moderate():
    # moderate v-resolution shared by the positivity/conservation tests;
    # the velocity-truncation tail of exp(-|v|^2) bounds both at ~1e-5
    g = make_grid(d=2, n_modes=4, v_points=24, v_extent=6.0)
    f0 = maxwellian_perturbed(g, eps=0.1, mode=(1, 0))
    config = SolverConfig(grid=g, T=0.125, dt=0.125 / 8, quad=_QUAD, max_picard=12,
                          tol=1e-10)
    return duhamel_picard(f0, config)


_SOLVED = None


def _solved():
    global _SOLVED
    if _SOLVED is None:
        _SOLVED = _solved_moderate()
    return _SOLVED


def test_positivity_maxwellian_and_detector():
    traj, report = _solved()
    result = positivity_check(traj, threshold=1e-4, t_limit=report.t_final)
    assert result["min_value"] >= -1e-4
    assert result["passed"]
    # a field with a genuine negative lobe is reported faithfully
    g = _grid()
    bad = maxwellian_perturbed(g, eps=3.0, mode=(1, 0))
    bad_traj = sample_free_evolution(bad, 0.1, 5)
    bad_res = positivity_check(bad_traj, threshold=1e-6, t_limit=None)
    assert not bad_res["passed"]
    assert bad_res["min_value"] < -0.1


def test_positivity_zero_data():
    g = _grid()
    f0 = PhaseField(g, np.zeros(g.shape, dtype=np.complex128))
    traj = sample_free_evolution(f0, 0.1, 5)
    assert positivity_check(traj, threshold=1e-6, t_limit=None)["min_value"] == 0.0


def test_conservation_drift():
    traj, report = _solved()
    drift = conservation_drift(traj, t_limit=report.t_final)
    assert drift["mass_drift"] <= 1e-10
    assert drift["momentum_drift"] <= 1e-4
    assert drift["energy_drift"] <= 1e-4


def test_sup_l2_difference_misaligned():
    g = _grid()
    f0 = maxwellian_perturbed(g, eps=0.0)
    a = sample_free_evolution(f0, 0.1, 5)
    b = sample_free_evolution(f0, 0.2, 5)
    with pytest.raises(ValueError):
        sup_l2_difference(a, b)


def test_config_validation():
    g = _grid()
    with pytest.raises(ValueError):
        SolverConfig(grid=g, T=0.125, dt=0.25, quad=_QUAD, max_picard=12, tol=1e-10)
    # a dt that does not divide T is refused, not resampled
    with pytest.raises(ValueError, match=r"dt=0.03 does not divide T=0.125"):
        SolverConfig(grid=g, T=0.125, dt=0.03, quad=_QUAD, max_picard=12, tol=1e-10)
    # T/dt an integer to rounding passes, as a solved trajectory's dt does
    traj = sample_free_evolution(maxwellian_perturbed(g), 0.1, 33)
    for T, dt in ((0.125, 0.0078125), (0.3, 0.1), (0.1, traj.dt)):
        assert SolverConfig(grid=g, T=T, dt=dt, quad=_QUAD, max_picard=1, tol=1e-10).dt == dt


def test_maxwellian_perturbed_rejects_bad_mode(tmp_path, capsys):
    from kflab.cli import run

    g3 = make_grid(d=3, n_modes=4, v_points=8, v_extent=6.0)
    # a d=2 mode on a d=3 grid would perturb every n_3 on the (+-1, 0) lines
    with pytest.raises(ValueError, match="mode 1,0 needs d=3 entries"):
        maxwellian_perturbed(g3, eps=0.1, mode=(1, 0))
    g = make_grid(d=2, n_modes=8, v_points=8, v_extent=6.0)
    # 5 would alias to -3, and +4 is the Nyquist slot with no partner
    for mode in ((5, 0), (0, -4), (4, 0)):
        with pytest.raises(ValueError, match="n_modes/2 = 4"):
            maxwellian_perturbed(g, eps=0.1, mode=mode)
    assert maxwellian_perturbed(g, eps=0.1, mode=(3, -3)).data[3, 5, 0, 0] != 0
    for overrides in (["d=3", "nodes=18"], ["mode=5,0"]):
        assert run(["simulate", "--out-dir", str(tmp_path)] + overrides) == 1
        assert "kflab: error: mode " in capsys.readouterr().err
    assert not tmp_path.joinpath("iteration_report.json").exists()


def test_x_support_rule_keeps_the_solve(monkeypatch):
    # the shipped solver settings on a small grid, solved on the data's
    # x-support and on the full grid, by both integrators
    from kflab import collision
    from kflab import grid as grid_module

    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=6.0)
    f0 = maxwellian_perturbed(g, eps=0.1, mode=(1, 0))
    config = SolverConfig(grid=g, T=0.125, dt=0.0078125, quad=_QUAD, max_picard=12,
                          tol=1e-10)
    traj, report = duhamel_picard(f0, config)
    assert report.collision_x_sizes == [6, 1]
    assert report.solve_mode_counts == [4, 1]
    assert traj.grid == g
    assert report.halvings == 1
    assert report.halvings_reasons == [
        {"sweep": 3, "ratio": report.halvings_reasons[0]["ratio"], "threshold": 0.9,
         "T": 0.125}
    ]
    assert report.halvings_reasons[0]["ratio"] > 0.9
    # one positive wall time per sweep of the final window
    assert len(report.sweep_wall_s) == len(report.deltas_sup) == 12
    assert all(s > 0 for s in report.sweep_wall_s)
    assert report.to_dict()["sweep_wall_s"] == report.sweep_wall_s

    columns = []
    gain_columns = collision._gain_columns

    def spy(grid, quad, fv, gv):
        columns.append(fv.shape[1])
        return gain_columns(grid, quad, fv, gv)

    monkeypatch.setattr(collision, "_gain_columns", spy)
    rk = integrate_interaction_picture(f0, config)
    assert rk.grid == g and set(columns) == {6}

    def full(grid, data):
        return (grid.n_modes,) * grid.d

    # one rule, one patch point: the full mode support turns the
    # restriction of both solves off, and with it the one-node x_2-axis
    monkeypatch.setattr(grid_module, "_mode_support", full)
    columns.clear()
    rk_ref = integrate_interaction_picture(f0, config)
    assert set(columns) == {36}
    assert rk_ref.grid == rk.grid and rk_ref.data.shape == rk.data.shape
    assert np.max(np.abs(rk.data - rk_ref.data)) <= 1e-12 * np.max(np.abs(rk_ref.data))
    ref, ref_report = duhamel_picard(f0, config)
    assert ref_report.collision_x_sizes == [6, 6]
    assert ref_report.solve_mode_counts == [4, 4]
    assert ref.grid == traj.grid and ref.data.shape == traj.data.shape
    assert np.max(np.abs(traj.data - ref.data)) <= 1e-12 * np.max(np.abs(ref.data))
    assert report.converged == ref_report.converged
    assert report.halvings == ref_report.halvings
    assert len(report.deltas_sup) == len(ref_report.deltas_sup)


@pytest.mark.parametrize("mode, counts", [((1, 0), [8, 1]), ((0, -2), [1, 8]),
                                          ((1, 1), [8, 8]), (None, [1, 1])])
def test_report_records_the_solve_mode_counts(mode, counts):
    # the shipped n_modes: x_1-only data are stored on one x_2 mode, data
    # that fill every axis on the full grid, a Maxwellian on n = 0 alone;
    # the trajectory comes back on the full grid either way
    g = make_grid(d=2, n_modes=8, v_points=8, v_extent=6.0)
    f0 = maxwellian_perturbed(g, eps=0.1 if mode else 0.0, mode=mode)
    config = SolverConfig(grid=g, T=0.125, dt=0.0078125, quad=_QUAD, max_picard=1,
                          tol=1e-10)
    traj, report = duhamel_picard(f0, config)
    assert report.solve_mode_counts == counts
    assert report.to_dict()["solve_mode_counts"] == counts
    assert traj.grid == g and traj.data.shape == (65,) + g.shape


def test_report_records_the_gain_cache_path(monkeypatch):
    # shipped settings on a small grid: the first sweep builds the pair
    # stacks, the second reuses them; above the cap, every sweep rebuilds
    from kflab import collision

    g = make_grid(d=2, n_modes=4, v_points=8, v_extent=6.0)
    f0 = maxwellian_perturbed(g, eps=0.1, mode=(1, 0))
    config = SolverConfig(grid=g, T=0.125, dt=0.0078125, quad=_QUAD, max_picard=2,
                          tol=1e-10)
    collision._MAT_CACHE.clear()
    _, report = duhamel_picard(f0, config)
    assert report.gain_cache == ["miss", "hit"]
    assert report.to_dict()["gain_cache"] == ["miss", "hit"]
    monkeypatch.setattr(collision, "_MAT_CACHE_CAP_BYTES", 0)
    _, report = duhamel_picard(f0, config)
    assert report.gain_cache == ["bypass", "bypass"]
