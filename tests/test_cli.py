"""Command-line interface: end-to-end runs, exit codes, output routing."""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kflab import cli, counting, lab, norms, solver
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


def test_simulate_warns_when_positivity_fails(tmp_path, monkeypatch, capsys):
    # the tiny grid converges (exit 0) with a negative lobe of -4.2e-3: the
    # exit code reads convergence only, and the failure is one warning line
    assert run(_simulate_args(tmp_path)) == 0
    pos = json.loads((tmp_path / "diagnostics.json").read_text())["positivity"]
    assert not pos["passed"]
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"kflab: warning: simulate: positivity failed: min {pos['min_value']:.3g} "
        f"against threshold {pos['threshold']:.3g}"
    ]
    # the same run under a threshold it meets warns of nothing
    monkeypatch.setattr(solver, "POSITIVITY_THRESHOLD", 1.0)
    assert run(_simulate_args(tmp_path / "loose")) == 0
    assert capsys.readouterr().err == ""


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


def test_shipped_snapshots_fall_every_half_window():
    # the shipped [solver] dt and [simulate] snapshot_stride save a slice
    # every T/2 of the window [-2T, 2T], 9 per run (a halving halves T
    # and dt together)
    st = Settings(_load_config(None), "simulate", {})
    T, dt, stride = st.get("T"), st.get("dt"), st.get("snapshot_stride")
    n_samples = int(round(4.0 * T / dt)) + 1
    assert len(range(0, n_samples, stride)) == 9
    assert stride * dt == pytest.approx(T / 2.0, rel=1e-12)


def test_linear_check_short_window_exit_1(tmp_path, capsys):
    # the Duhamel rule needs 5 samples; n_samples=3 wrote a b3 row whose
    # lhs was 0 and exited 0
    out = tmp_path / "out"
    argv = ["linear-check", "--out-dir", str(out), "n_modes=2", "v_points=8", "n_samples=3"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "n_samples >= 5" in err and "got 3" in err
    assert not out.exists()


def test_missing_config_exit_1(tmp_path, capsys):
    code = run(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text, reason", [
    ("n_modes = 4\n", "no section headers"),
    ("[solver]\nT = 0.0625\nT = 0.125\n", "already exists"),
], ids=["no-section-header", "duplicate-key"])
def test_unparsable_config_exit_1(text, reason, tmp_path, capsys):
    # a file without a section header, or with a duplicated key, escaped
    # as a configparser traceback
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert run(["simulate", "--config", str(path), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"kflab: error: cannot parse config file {path}")
    assert reason in err[0]
    assert not out.exists()


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


@pytest.mark.parametrize("experiment, argv, calls", [
    ("gain-check", ["n_modes=4", "v_points=8", "Ts=0.125", "trials=1"], 9),
    ("holder-check", ["n_modes=4", "v_points=8", "trials=1", "nodes=4"], 3),
])
def test_gain_sidecars_record_the_stack_path(experiment, argv, calls, tmp_path, monkeypatch):
    # every gain call's stack path is counted in the JSON telemetry, and
    # the CSV does not change with the path: above the cap every call
    # bypasses the cache; as shipped the first call builds the stacks
    from kflab import collision

    def telemetry(out):
        assert run([experiment, "--out-dir", str(out)] + argv) == 0
        payload = json.loads((out / f"{experiment}.json").read_text())
        return payload["telemetry"]["gain_cache"], (out / f"{experiment}.csv").read_text()

    collision._MAT_CACHE.clear()
    shipped, csv = telemetry(tmp_path / "shipped")
    assert shipped == {"hit": calls - 1, "miss": 1, "bypass": 0}
    monkeypatch.setattr(collision, "_MAT_CACHE_CAP_BYTES", 0)
    bypass, csv_bypass = telemetry(tmp_path / "bypass")
    assert bypass == {"hit": 0, "miss": 0, "bypass": calls}
    assert csv_bypass == csv and "telemetry" not in csv


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
    get_list = Settings.get_list

    def spy(self, key):
        read.add(key)
        return get_list(self, key)

    out = tmp_path_factory.mktemp(experiment)
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(io.StringIO()) as err:
        mp.setattr(Settings, "get_list", spy)
        code = run([experiment, "--out-dir", str(out)] + _TINY_RUNS[experiment])
    assert code != 1, err.getvalue()
    return experiment, read


def test_only_the_strichartz_fft_loads_scipy(tmp_path):
    # a fresh interpreter: import kflab.cli, then the small simulate,
    # counting-check and gain-check runs, load no scipy module; the
    # Strichartz scan, run last, loads scipy.fft for its L4 kernels
    runs = {name: _TINY_RUNS[name] for name in
            ("simulate", "counting-check", "gain-check", "strichartz-scan")}
    code = (
        "import json, sys\n"
        "import kflab.cli\n"
        f"runs = json.loads({json.dumps(json.dumps(runs))})\n"
        f"out = {str(tmp_path)!r}\n"
        "for name, args in runs.items():\n"
        "    loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "    assert loaded == [], (name, loaded)\n"
        "    assert kflab.cli.run([name, '--out-dir', out + '/' + name] + args) != 1, name\n"
        "assert 'scipy.fft' in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_counting_starts_no_thread(tmp_path):
    # a fresh interpreter: a small counting-check starts no thread and
    # loads no thread pool; only the Strichartz L4 kernel creates one
    args = _TINY_RUNS["counting-check"]
    code = (
        "import sys, threading\n"
        "import kflab.cli\n"
        f"assert kflab.cli.run(['counting-check', '--out-dir', {str(tmp_path)!r}] + {args!r}) == 0\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


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


@pytest.mark.parametrize("experiment, setting, message", [
    # ran to the sweep cap (exit 2)
    ("simulate", "tol=nan", "non-finite value 'nan' for simulate: tol"),
    # switched the slope gate off (exit 0)
    ("counting-check", "slope_max=inf", "non-finite value 'inf' for counting-check: slope_max"),
    # a list entry
    ("loss-check", "Ts=0.125,nan", "non-finite value 'nan' for loss-check: Ts"),
])
def test_non_finite_setting_exit_1(experiment, setting, message, tmp_path, capsys):
    argv = [experiment, "--out-dir", str(tmp_path)] + _TINY_RUNS[experiment] + [setting]
    assert run(argv) == 1
    assert message in capsys.readouterr().err


def _strict_json(path):
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_slope_summaries_are_strict_json(tmp_path):
    # one N per M group, and a single counting cell: no slope to report
    out = tmp_path / "strichartz"
    assert run(["strichartz-scan", "--out-dir", str(out)] + _TINY_RUNS["strichartz-scan"]) == 0
    # one cell, n_modes=4 and v_points=4 on the 8 x 8 grid of spacing 1:
    # a 4^4 complex64 field
    assert _strict_json(out / "strichartz_summary.json") == {
        "max_slope_vs_N": None,
        "cells": [{"N": 2, "M": 1, "n_modes": 4, "v_points": 4}],
        "largest_field_mb": 8 * 4**4 / 1e6,
        "l4_workers": norms._l4_workers(),
        "l4_split_cells": 0,
    }
    out = tmp_path / "counting"
    assert run(["counting-check", "--out-dir", str(out)] + _ONE_CELL) == 0
    assert _strict_json(out / "counting_summary.json") == {"max_ratio_slope_vs_N": None}


@pytest.mark.parametrize("experiment, argv", [
    ("strichartz-scan", _TINY_RUNS["strichartz-scan"]),
    ("counting-check", _ONE_CELL),
])
def test_skipped_slope_gate_warns(experiment, argv, tmp_path, capsys):
    # one N value: no slope, so the gate is skipped with exit 0, and the
    # skip is one warning line
    assert run([experiment, "--out-dir", str(tmp_path)] + argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"kflab: warning: {experiment}: slope gate skipped: fewer than two N values"
    ]
    # two N values gate the slope and warn of nothing
    argv = [a for a in argv if not a.startswith("Ns=")] + ["Ns=2,4", "slope_max=100"]
    assert run([experiment, "--out-dir", str(tmp_path / "two")] + argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("deltas", ["0", "1e-2,-1e-3"])
def test_perturbation_rejects_non_positive_delta(deltas, tmp_path, monkeypatch, capsys):
    # deltas=0 ran the base solve and ended in a ZeroDivisionError; a
    # negative delta exited 2.  Both are refused before any solve.
    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(solver, "duhamel_picard", no_solve)
    out = tmp_path / "out"
    argv = ["perturbation-check", "--out-dir", str(out)] + _SOLVER_TINY + [f"deltas={deltas}"]
    assert run(argv) == 1
    assert "perturbation-check: deltas must be > 0" in capsys.readouterr().err
    assert not out.exists()


def test_bilinear_unequal_k_lists_exit_1(tmp_path, capsys):
    out = tmp_path / "bilinear"
    argv = [a for a in _TINY_RUNS["bilinear-check"] if not a.startswith("K1s=")]
    code = run(["bilinear-check", "--out-dir", str(out), "K1s=1,2"] + argv)
    assert code == 1
    err = capsys.readouterr().err
    assert "K1s" in err and "K2s" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, setting", [
    ("strichartz-scan", "slope_max=abc"),
    ("counting-check", "slope_max=abc"),
    ("loss-check", "ratio_cap=abc"),
    ("gain-check", "ratio_cap=abc"),
    ("bilinear-check", "swap_tol=abc"),
    ("linear-check", "b2_tol=abc"),
    ("linear-check", "exponent_tol=abc"),
    ("perturbation-check", "stability_factor=abc"),
])
def test_malformed_gate_setting_exit_1_before_running(experiment, setting, tmp_path, capsys):
    # a gate setting is read before the experiment runs: nothing is written
    out = tmp_path / "out"
    argv = [experiment, "--out-dir", str(out)] + _TINY_RUNS[experiment] + [setting]
    assert run(argv) == 1
    assert "abc" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, setting, message", [
    # ran with n_modes=8 and T = 1.0 (exit 0)
    ("strichartz-scan", "n_modes=8.9", "not int '8.9' for strichartz-scan: n_modes"),
    ("strichartz-scan", "T=true", "not float 'true' for strichartz-scan: T"),
    # ran 1 query per cell
    ("counting-check", "queries_per_cell=1.9",
     "not int '1.9' for counting-check: queries_per_cell"),
    # wrote an N=8 row
    ("counting-check", "Ns=8.5", "not int '8.5' for counting-check: Ns"),
    # gated at 1.0
    ("counting-check", "slope_max=true", "not float 'true' for counting-check: slope_max"),
    # wrote a header-only CSV, or dropped the empty entry
    ("counting-check", "Ns=,", "empty entry for counting-check: Ns"),
    ("counting-check", "Ns=8,", "empty entry for counting-check: Ns"),
    # a TypeError traceback
    ("simulate", "T=0.0625,0.125", "one value needed for simulate: T"),
    # named no key
    ("loss-check", "ratio_cap=abc", "not float 'abc' for loss-check: ratio_cap"),
])
def test_mistyped_setting_exit_1(experiment, setting, message, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [experiment, "--out-dir", str(out)] + _TINY_RUNS[experiment] + [setting]
    assert run(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["T=0", "T=-1", "n_time=1"])
def test_strichartz_empty_time_window_exit_1(setting, tmp_path, capsys):
    # T=0 exited 2 with a NaN slope, T=-1 named no key, n_time=1 raised
    # an uncaught ZeroDivisionError
    out = tmp_path / "out"
    argv = ["strichartz-scan", "--out-dir", str(out)] + _TINY_RUNS["strichartz-scan"]
    assert run(argv + [setting]) == 1
    assert "needs T > 0 and n_time >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_a_key_has_its_shipped_type():
    # Ts ships as floats, so an integer entry is read as a float; seed
    # ships as an int, out_dir as text
    st = Settings(_load_config(None), "loss-check", {"Ts": "1, 0.5", "seed": "7"})
    assert [type(t) for t in st.get_list("Ts")] == [float, float]
    assert st.get("seed") == 7 and st.get("out_dir") == "kflab_out"
    assert st.get("ratio_cap") == 0.0 and type(st.get("ratio_cap")) is float


@pytest.mark.parametrize("experiment, setting", [
    ("counting-check", "queries_per_cell=0"),
    ("strichartz-scan", "trials=0"),
    ("gain-check", "trials=0"),
])
def test_sweep_with_no_rows_exit_1(experiment, setting, tmp_path, capsys):
    # each wrote a header-only CSV and exited 0
    out = tmp_path / "out"
    argv = [experiment, "--out-dir", str(out)] + _TINY_RUNS[experiment] + [setting]
    assert run(argv) == 1
    assert f"{experiment}: the sweep has no rows" in capsys.readouterr().err
    assert not out.exists()
