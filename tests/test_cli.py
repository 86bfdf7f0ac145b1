"""Command-line interface: end-to-end runs, exit codes, output routing."""

import contextlib
import inspect
import io
import json
import os

import numpy as np
import pytest

from kflab import cli, counting, lab, solver
from kflab.cli import _RUNNERS, Settings, _load_config, run


def _simulate_args(out_dir, extra=()):
    return [
        "simulate",
        "--out-dir",
        str(out_dir),
        "n_modes=4",
        "v_points=12",
        "v_extent=5.0",
        "T=0.0625",
        "dt=0.015625",
        "max_picard=16",
        "tol=1e-7",
        "snapshot_stride=8",
    ] + list(extra)


def test_simulate_end_to_end(tmp_path):
    code = run(_simulate_args(tmp_path))
    assert code == 0
    names = os.listdir(tmp_path)
    assert "iteration_report.json" in names
    assert any(n.startswith("snapshot_") and n.endswith(".kfl") for n in names)
    payload = json.loads((tmp_path / "iteration_report.json").read_text())
    assert payload["deltas_sup"]
    # the run's path: mode (1, 0) data collide on one x_2 node, and the
    # sweeps store one x_2 mode
    assert payload["collision_x_sizes"] == [6, 1]
    assert payload["solve_mode_counts"] == [4, 1]
    assert len(payload["halvings_reasons"]) == payload["halvings"]


def test_simulate_snapshots_reload_on_the_full_grid(tmp_path):
    # the sweeps run on the (4, 1) mode support; every snapshot is
    # written from the embedded trajectory and reloads on the full grid
    from kflab import load_field

    code = run(["simulate", "--out-dir", str(tmp_path), "n_modes=4", "v_points=8"])
    assert code in (0, 2)
    payload = json.loads((tmp_path / "iteration_report.json").read_text())
    assert payload["solve_mode_counts"] == [4, 1]
    snaps = sorted(tmp_path.glob("snapshot_*.kfl"))
    assert len(snaps) == 9
    for path in snaps:
        fld = load_field(path)
        assert fld.grid.shape == (4, 4, 8, 8) and fld.grid.mode_counts == (4, 4)
        assert np.isfinite(fld.data).all()
        assert not np.any(fld.data[:, 1:])


@pytest.mark.parametrize("stride", ["0", "-3"])
def test_simulate_rejects_stride_below_one(stride, tmp_path, monkeypatch, capsys):
    # rejected before the solve starts, so nothing is solved or written
    def no_solve(*args):
        raise AssertionError("solved before checking snapshot_stride")

    monkeypatch.setattr(solver, "duhamel_picard", no_solve)
    out = tmp_path / "sim"
    code = run(_simulate_args(out)[:-1] + [f"snapshot_stride={stride}"])
    assert code == 1
    assert f"snapshot_stride must be >= 1, got {stride}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_dt_not_dividing_t(tmp_path, capsys):
    out = tmp_path / "sim"
    argv = [a if not a.startswith("dt=") else "dt=0.03" for a in _simulate_args(out)]
    assert run(argv) == 1
    assert "dt=0.03 does not divide T=0.0625" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exit_1(tmp_path, capsys):
    code = run(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "error" in capsys.readouterr().err


_ONE_CELL = ["Ns=1", "Ms=1", "Ks=1", "queries_per_cell=1"]


def test_counting_single_query(tmp_path):
    code = run(["counting-check", "--out-dir", str(tmp_path)] + _ONE_CELL)
    assert code == 0
    csvs = [n for n in os.listdir(tmp_path) if n.endswith(".csv")]
    assert csvs
    text = (tmp_path / csvs[0]).read_text()
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(rows) == 2  # header + single row


def test_env_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("KFL_OUT_DIR", str(target))
    code = run(["counting-check"] + _ONE_CELL)
    assert code == 0
    assert target.exists()


def test_seeded_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = run(
            ["strichartz-scan", "--seed", "7", "--out-dir", str(out),
             "Ns=2", "Ms=1", "trials=2", "n_modes=8", "v_points=8",
             "v_extent=4.0", "n_time=5", "T=0.5", "slope_max=10"]
        )
        assert code == 0
    csv_a = [n for n in os.listdir(a) if n.endswith(".csv")][0]
    assert (a / csv_a).read_bytes() == (b / csv_a).read_bytes()


def test_unknown_keys_exit_1(tmp_path, capsys):
    # a misspelt command-line key, and a retired option
    out = tmp_path / "cli"
    code = run(["linear-check", "--out-dir", str(out), "n_mode=2", "--jobs", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert "n_mode" in err and "jobs" in err
    assert not out.exists()
    # a key in the user config file that the experiment does not read
    cfg = tmp_path / "user.cfg"
    cfg.write_text("[linear-check]\nn_samples = 65\nbogus = 1\n")
    code = run(["linear-check", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 1
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()
    # a user section that ships nowhere, such as a misspelt one
    cfg.write_text("[linear-chek]\nn_samples = 65\n")
    code = run(["linear-check", "--config", str(cfg), "--out-dir", str(out)])
    assert code == 1
    assert "linear-chek" in capsys.readouterr().err
    assert not out.exists()
    # a shipped section the experiment does not read is allowed, so one
    # user file can serve several experiments
    cfg.write_text("[solver]\nnodes = 8\n[linear-check]\nn_samples = 33\n")
    argv = ["linear-check", "--config", str(cfg), "--out-dir", str(out)]
    assert run(argv + _TINY_RUNS["linear-check"][:2]) == 0
    # a counting cell is named only by the sweep keys
    code = run(["counting-check", "--out-dir", str(out), "N=8"])
    assert code == 1
    assert "counting-check: N" in capsys.readouterr().err


def test_counting_dimension_is_not_a_key(tmp_path, capsys):
    # the sweep measures d=2 only, so d is no counting-check key
    out = tmp_path / "counting"
    assert run(["counting-check", "--out-dir", str(out), "d=3"] + _ONE_CELL) == 1
    assert "unknown key(s) for counting-check: d" in capsys.readouterr().err
    assert not out.exists()


def test_drivers_take_required_settings():
    # a driver runs with the values its caller passes (the CLI's come from
    # defaults.cfg); a value that never varies is a module constant
    drivers = (
        lab.strichartz_scan,
        lab.strichartz_gauge_check,
        lab.bilinear_modulation_check,
        lab._bilinear_collision_check,
        lab.loss_estimate_check,
        lab.gain_estimate_check,
        lab.holder_gain_check,
        lab.linear_xsb_checks,
        lab.psi_delta_scaling,
        counting.counting_sweep,
        counting.measure_level_set,
        solver.perturbation_experiment,
        solver.positivity_check,
        solver.conservation_drift,
        solver.SolverConfig,
    )
    defaults = [
        f"{fn.__name__}({name})"
        for fn in drivers
        for name, par in inspect.signature(fn).parameters.items()
        if par.default is not inspect.Parameter.empty
    ]
    assert defaults == []


def test_bad_experiment_rejected():
    with pytest.raises(SystemExit):
        run(["not-an-experiment"])


_SOLVER_TINY = ["n_modes=4", "v_points=12", "v_extent=5.0", "T=0.0625",
                "dt=0.015625", "nodes=8", "max_picard=16", "tol=1e-7"]
_TINY_RUNS = {
    "simulate": _simulate_args("")[3:],  # the overrides only
    "strichartz-scan": ["Ns=2", "Ms=1", "trials=1", "n_modes=8", "v_points=8",
                        "v_extent=4.0", "n_time=5", "T=0.5"],
    "bilinear-check": ["n_modes=4", "v_points=8", "N=2", "M=1", "K1s=1",
                       "K2s=1", "trials=1", "n_samples=8"],
    "loss-check": ["n_modes=4", "v_points=8", "Ts=0.125", "trials=1", "ratio_cap=0"],
    "gain-check": ["n_modes=4", "v_points=8", "Ts=0.125", "trials=1", "nodes=4"],
    "holder-check": ["n_modes=4", "v_points=8", "trials=1", "nodes=4"],
    "linear-check": ["n_modes=2", "v_points=8", "n_samples=33"],
    "counting-check": ["Ns=2,4", "Ms=1", "Ks=1", "queries_per_cell=1"],
    "conservation-check": _SOLVER_TINY,
    "perturbation-check": _SOLVER_TINY + ["deltas=1e-2,1e-3"],
}


@pytest.fixture(scope="module", params=sorted(_TINY_RUNS))
def keys_read(request, tmp_path_factory):
    """(experiment, the keys its small run reads), one run per experiment
    shared by the tests below."""
    experiment, read = request.param, set()
    get = Settings.get

    def spy(self, key):
        read.add(key)
        return get(self, key)

    out = tmp_path_factory.mktemp(experiment)
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(io.StringIO()) as err:
        mp.setattr(Settings, "get", spy)
        code = run([experiment, "--out-dir", str(out)] + _TINY_RUNS[experiment])
    assert code != 1, err.getvalue()
    return experiment, read


def test_every_key_read_is_accepted(keys_read):
    # record the keys a small run reads, then set each of them
    experiment, read = keys_read
    if experiment in ("simulate", "conservation-check", "perturbation-check"):
        assert {"max_picard", "tol"} <= read
    # raises ValueError if any key read is not accepted
    Settings(_load_config(None), experiment, {k: "0" for k in read})


def test_every_shipped_key_is_read(keys_read):
    # a key that a run never reads is a dead knob: a malformed value of it
    # would pass silently.  --out-dir replaces out_dir.
    experiment, read = keys_read
    shipped = _load_config(None)[0]
    listed = {
        key for name in ("common", *_RUNNERS[experiment][0], experiment)
        for key in shipped[name]
    }
    assert read == listed - {"out_dir"}


def test_unconverged_conservation_reads_its_tolerances(tmp_path, capsys):
    # one sweep does not converge; a malformed tolerance is still an error
    for key in ("mass_tol", "moment_tol"):
        out = tmp_path / key
        argv = _TINY_RUNS["conservation-check"] + ["max_picard=1", f"{key}=abc"]
        assert run(["conservation-check", "--out-dir", str(out)] + argv) == 1
        assert "abc" in capsys.readouterr().err
        assert not out.exists()


def test_shipped_sections_match_the_table():
    # every experiment's sections ship, none is left over, and no key is
    # set in two sections one experiment reads
    shipped = _load_config(None)[0]
    read = {"common"}
    for experiment, (shared, _) in _RUNNERS.items():
        names = ("common", *shared, experiment)
        assert all(shipped.has_section(name) for name in names), experiment
        read.update(names)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert not set(shipped[a]) & set(shipped[b]), (experiment, a, b)
    assert set(shipped.sections()) == read


_SOLVER_RUNS = ("simulate", "conservation-check", "perturbation-check")


def test_solver_section_layering(tmp_path, capsys):
    cfg = tmp_path / "user.cfg"
    cfg.write_text("[solver]\nn_modes = 4\nnodes = 8\n[simulate]\nn_modes = 2\n")
    layers = _load_config(str(cfg))
    for experiment in _SOLVER_RUNS:
        st = Settings(layers, experiment, {})
        # a user [solver] key reaches every solver experiment ...
        assert st.get("nodes") == 8
        # ... and an experiment section overrides it
        assert st.get("n_modes") == (2 if experiment == "simulate" else 4)
        assert st.get("max_picard") == 12  # shipped [solver]
    assert Settings(layers, "simulate", {"n_modes": "6"}).get("n_modes") == 6
    # solver keys are unknown to the other experiments
    out = tmp_path / "out"
    assert run(["strichartz-scan", "--out-dir", str(out), "max_picard=3"]) == 1
    assert "max_picard" in capsys.readouterr().err
    cfg.write_text("[strichartz-scan]\ntol = 1e-3\n")
    assert run(["strichartz-scan", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert "tol" in capsys.readouterr().err
    assert not out.exists()


def test_missing_key_exit_1(tmp_path, monkeypatch, capsys):
    load = cli._load_config

    def without_b(path):
        layers = load(path)
        layers[0].remove_option("linear-check", "b")
        return layers

    monkeypatch.setattr(cli, "_load_config", without_b)
    code = run(["linear-check", "--out-dir", str(tmp_path)] + _TINY_RUNS["linear-check"])
    assert code == 1
    assert "missing key for linear-check: b" in capsys.readouterr().err


def _strict_json(path):
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_slope_summaries_are_strict_json(tmp_path):
    # one N per M group, and a single counting cell: no slope to report
    out = tmp_path / "strichartz"
    assert run(["strichartz-scan", "--out-dir", str(out)] + _TINY_RUNS["strichartz-scan"]) == 0
    # one cell, n_modes=4 and v_points=4 on the 8 x 8 grid of spacing 1:
    # a 4^4 complex128 field
    assert _strict_json(out / "strichartz_summary.json") == {
        "max_slope_vs_N": None,
        "cells": [{"N": 2, "M": 1, "n_modes": 4, "v_points": 4}],
        "largest_field_mb": 16 * 4**4 / 1e6,
    }
    out = tmp_path / "counting"
    assert run(["counting-check", "--out-dir", str(out)] + _ONE_CELL) == 0
    assert _strict_json(out / "counting_summary.json") == {"max_ratio_slope_vs_N": None}


def test_bilinear_unequal_k_lists_exit_1(tmp_path, capsys):
    out = tmp_path / "bilinear"
    argv = [a for a in _TINY_RUNS["bilinear-check"] if not a.startswith("K1s=")]
    code = run(["bilinear-check", "--out-dir", str(out), "K1s=1,2"] + argv)
    assert code == 1
    err = capsys.readouterr().err
    assert "K1s" in err and "K2s" in err
    assert not out.exists()
