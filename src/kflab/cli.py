"""Batch front-end: one experiment per invocation.

Usage:
    kflab EXPERIMENT [--config FILE] [--seed N] [--out-dir DIR] [KEY=VALUE ...]

Every default lives in the shipped ``defaults.cfg``.  An experiment reads
``[common]``, then ``[solver]`` if it runs the solver, then its own
section; the same sections of the user config file, then KEY=VALUE (or
--KEY VALUE) overrides, are layered on top.  A user section or key that
the shipped file does not have is an error.  Output root resolution:
--out-dir, else $KFL_OUT_DIR, else the configured out_dir.  Exit codes:
0 pass, 2 bounded-ratio regression failure, 1 error.  A key's type is
its shipped value's (int, float or str; a list is comma-separated); a
mistyped, empty or non-finite entry is an error naming EXPERIMENT: KEY.
Gate settings are read before the run, so a malformed one writes nothing.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import counting, lab, norms, solver
from .collision import sphere_quadrature
from .grid import make_grid, save_field


def _parser() -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    cfg.optionxform = str  # keys are case sensitive (Ns vs N)
    return cfg


def _load_config(config_path: str | None) -> list:
    """The parsed shipped defaults, then the user config file if given;
    a user file that cannot be parsed, or a user section that the shipped
    file does not have, is a ValueError naming it."""
    shipped = _parser()
    with resources.files("kflab").joinpath("data/defaults.cfg").open() as fh:
        shipped.read_file(fh)
    if config_path is None:
        return [shipped]
    if not os.path.isfile(config_path):
        raise FileNotFoundError(f"config file not found: {config_path}")
    user = _parser()
    try:
        user.read(config_path)
    except configparser.Error as exc:
        detail = " ".join(str(exc).split())
        raise ValueError(f"cannot parse config file {config_path}: {detail}") from None
    unknown = sorted(set(user.sections()) - set(shipped.sections()))
    if unknown:
        raise ValueError(f"unknown section(s) in {config_path}: {', '.join(unknown)}")
    return [shipped, user]


def _kind(raw: str) -> type:
    """int if every comma entry of ``raw`` parses as an int, else float if
    they all parse as floats, else str."""
    for kind in (int, float):
        try:
            [kind(entry) for entry in raw.split(",")]
        except ValueError:
            continue
        return kind
    return str


def _collect_overrides(tokens: list) -> dict:
    out = {}
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if "=" in tok:
            key, _, val = tok.lstrip("-").partition("=")
            out[key] = val
            i += 1
        elif tok.startswith("--") and i + 1 < len(tokens):
            out[tok.lstrip("-")] = tokens[i + 1]
            i += 2
        else:
            raise ValueError(f"cannot parse override {tok!r}")
    return out


class Settings:
    """Merged view of one experiment's settings with overrides applied.

    ``cfg`` is the list from ``_load_config``.  Each of its files
    contributes ``[common]``, the experiment's shared sections in
    ``_RUNNERS`` and its own section, in that order; the overrides come
    last.  Every key must be one those shipped sections list.  Any other
    key, from the command line or the user config file, is a ValueError
    naming it.
    """

    def __init__(self, cfg: list, section: str, overrides: dict):
        self.section = section
        names = ("common", *_RUNNERS[section][0], section)
        self.values = {}
        for layer in cfg:
            for name in names:
                if layer.has_section(name):
                    self.values.update(layer[name])
        self.values.update(overrides)
        # a key's kind is that of its shipped value
        self.kinds = {key: _kind(raw) for name in names for key, raw in cfg[0][name].items()}
        unknown = sorted(set(self.values) - set(self.kinds))
        if unknown:
            raise ValueError(f"unknown key(s) for {section}: {', '.join(unknown)}")

    def get_list(self, key: str) -> list:
        """The comma entries of ``key``, each converted to the kind of its
        shipped value; a missing key, an empty entry, an entry of another
        kind or a non-finite number is a ValueError naming the key."""
        if key not in self.values:
            raise ValueError(f"missing key for {self.section}: {key}")
        kind = self.kinds[key]
        where = f"for {self.section}: {key}"
        out = []
        for entry in (e.strip() for e in self.values[key].split(",")):
            if not entry:
                raise ValueError(f"empty entry {where}")
            try:
                value = kind(entry)
            except ValueError:
                raise ValueError(f"not {kind.__name__} {entry!r} {where}") from None
            if kind is float and not math.isfinite(value):
                raise ValueError(f"non-finite value {entry!r} {where}")
            out.append(value)
        return out

    def get(self, key: str):
        """The one value of ``key``, as ``get_list`` converts it."""
        values = self.get_list(key)
        if len(values) != 1:
            raise ValueError(f"one value needed for {self.section}: {key}")
        return values[0]


def _grid_from(st: Settings):
    return make_grid(st.get("d"), st.get("n_modes"), st.get("v_extent"), st.get("v_points"))


def _quadrature(st: Settings):
    return sphere_quadrature(st.get("d"), st.get("nodes"))


def _solver_setup(st: Settings) -> tuple:
    """(SolverConfig, perturbed Maxwellian f0) from the [solver] keys."""
    grid = _grid_from(st)
    config = solver.SolverConfig(
        grid=grid,
        T=st.get("T"),
        dt=st.get("dt"),
        quad=_quadrature(st),
        max_picard=st.get("max_picard"),
        tol=st.get("tol"),
    )
    return config, solver.maxwellian_perturbed(grid, st.get("eps"), tuple(st.get_list("mode")))


def _write_json(out_dir: str, name: str, payload: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _run_simulate(st: Settings, seed: int, out_dir: str) -> int:
    stride = st.get("snapshot_stride")
    if stride < 1:
        raise ValueError(f"snapshot_stride must be >= 1, got {stride}")
    config, f0 = _solver_setup(st)
    traj, report = solver.duhamel_picard(f0, config)
    os.makedirs(out_dir, exist_ok=True)
    for j in range(0, traj.n_samples, stride):
        save_field(traj.slice_field(j), os.path.join(out_dir, f"snapshot_{j:05d}.kfl"))
    _write_json(out_dir, "iteration_report.json", report.to_dict())
    pos = solver.positivity_check(traj, solver.POSITIVITY_THRESHOLD, report.t_final)
    cons = solver.conservation_drift(traj, t_limit=report.t_final)
    _write_json(
        out_dir,
        "diagnostics.json",
        {"positivity": pos, "conservation": {k: cons[k] for k in
                                             ("mass_drift", "momentum_drift", "energy_drift")}},
    )
    if not pos["passed"]:
        print(f"kflab: warning: simulate: positivity failed: min {pos['min_value']:.3g} "
              f"against threshold {pos['threshold']:.3g}", file=sys.stderr)
    return 0 if report.converged else 2


def _max_slope(report, x_col: str, group_col: str | None = None):
    """Largest log-log slope against ``x_col`` of the per-x maximum ratio,
    over the groups of ``group_col`` (one group if None); None when no
    group has two x values."""
    groups = {}
    for row in report.rows:
        rd = dict(zip(report.columns, row))
        ys = groups.setdefault(rd[group_col] if group_col else None, {})
        ys[rd[x_col]] = max(ys.get(rd[x_col], 0.0), rd["ratio"])
    slopes = [
        lab.loglog_slope(sorted(ys), [ys[x] for x in sorted(ys)])
        for ys in groups.values()
        if len(ys) >= 2
    ]
    return max(slopes) if slopes else None


def _slope_gate(experiment: str, slope, slope_max: float) -> int:
    """Exit code of a slope gate; with fewer than two N values there is
    no slope, and the skipped gate is a stderr warning and exit 0."""
    if slope is None:
        print(f"kflab: warning: {experiment}: slope gate skipped: fewer than two N values",
              file=sys.stderr)
        return 0
    return 0 if slope <= slope_max else 2


def _run_strichartz(st: Settings, seed: int, out_dir: str) -> int:
    slope_max = st.get("slope_max")
    grid, Ns, Ms = _grid_from(st), st.get_list("Ns"), st.get_list("Ms")
    report = lab.strichartz_scan(
        grid,
        Ns=Ns,
        Ms=Ms,
        trials=st.get("trials"),
        T=st.get("T"),
        seed=seed,
        n_time=st.get("n_time"),
    )
    report.write(out_dir)
    slope = _max_slope(report, "N", "M")
    # the grid of every cell, and the complex64 field of the largest,
    # which the scan draws and runs its L4 time loop on; the threads a
    # large cell's L4 phase runs on, and how many cells ran on them
    cells = [(N, M, lab._cell_grid(grid, N, M)) for N in Ns for M in Ms]
    _write_json(out_dir, "strichartz_summary.json", {
        "max_slope_vs_N": slope,
        "cells": [{"N": N, "M": M, "n_modes": c.n_modes, "v_points": c.v_points}
                  for N, M, c in cells],
        "largest_field_mb": max(8 * int(np.prod(c.shape)) for _, _, c in cells) / 1e6,
        "l4_workers": norms._l4_workers(),
        "l4_split_cells": sum(norms._slice_workers(c) > 1 for _, _, c in cells),
    })
    return _slope_gate(st.section, slope, slope_max)


def _run_bilinear(st: Settings, seed: int, out_dir: str) -> int:
    swap_tol = st.get("swap_tol")
    K1s, K2s = st.get_list("K1s"), st.get_list("K2s")
    if set(K1s) != set(K2s):
        # the gate compares each (K1, K2) ratio with its (K2, K1) swap
        raise ValueError(f"K1s and K2s must hold the same values, got {K1s} and {K2s}")
    report = lab.bilinear_modulation_check(
        _grid_from(st),
        N=st.get("N"),
        M=st.get("M"),
        K1s=K1s,
        K2s=K2s,
        trials=st.get("trials"),
        seed=seed,
        t_half=st.get("t_half"),
        n_samples=st.get("n_samples"),
    )
    report.write(out_dir)
    by_key = {}
    for row in report.rows:
        rd = dict(zip(report.columns, row))
        by_key[(rd["K1"], rd["K2"], rd["trial"])] = rd["ratio"]
    defect = max(
        abs(v - by_key[(k2, k1, tr)]) for (k1, k2, tr), v in by_key.items()
    )
    return 0 if defect <= swap_tol else 2


def _run_estimate(st: Settings, seed: int, out_dir: str, check, **extra) -> int:
    """loss-check and gain-check: ``check`` over the (T, trial) sweep,
    failing when a positive ratio_cap is exceeded."""
    cap = st.get("ratio_cap")
    report = check(
        _grid_from(st),
        s=st.get("s"),
        r=st.get("r"),
        Ts=st.get_list("Ts"),
        trials=st.get("trials"),
        seed=seed,
        **extra,
    )
    report.write(out_dir)
    if cap > 0 and max(report.column("ratio")) > cap:
        return 2
    return 0


def _run_loss(st: Settings, seed: int, out_dir: str) -> int:
    return _run_estimate(st, seed, out_dir, lab.loss_estimate_check)


def _run_gain(st: Settings, seed: int, out_dir: str) -> int:
    return _run_estimate(st, seed, out_dir, lab.gain_estimate_check, quad=_quadrature(st))


def _run_holder(st: Settings, seed: int, out_dir: str) -> int:
    report = lab.holder_gain_check(
        _grid_from(st),
        p=st.get("p"),
        q=st.get("q"),
        trials=st.get("trials"),
        seed=seed,
        quad=_quadrature(st),
    )
    report.write(out_dir)
    return 0


def _run_linear(st: Settings, seed: int, out_dir: str) -> int:
    tol, etol = st.get("b2_tol"), st.get("exponent_tol")
    b = st.get("b")
    report = lab.linear_xsb_checks(
        _grid_from(st),
        s=st.get("s"),
        r=st.get("r"),
        b=b,
        seed=seed,
        t_half=st.get("t_half"),
        n_samples=st.get("n_samples"),
    )
    report.write(out_dir)
    scaling = lab.psi_delta_scaling(b=b)
    scaling.write(out_dir)
    rows = {row[0]: row for row in report.rows}
    b2_err = abs(rows["b2"][3] - report.extra["b2_oracle"]) / report.extra["b2_oracle"]
    ok = (
        b2_err <= tol
        and abs(scaling.extra["slope_l2"] - 0.5) <= etol
        and abs(scaling.extra["slope_hdotb"] - (0.5 - b)) <= etol
    )
    return 0 if ok else 2


def _run_counting(st: Settings, seed: int, out_dir: str) -> int:
    slope_max = st.get("slope_max")
    report = counting.counting_sweep(
        Ns=st.get_list("Ns"),
        Ms=st.get_list("Ms"),
        Ks=st.get_list("Ks"),
        queries_per_cell=st.get("queries_per_cell"),
        seed=seed,
    )
    report.write(out_dir)
    slope = _max_slope(report, "N")
    _write_json(out_dir, "counting_summary.json", {"max_ratio_slope_vs_N": slope})
    return _slope_gate(st.section, slope, slope_max)


def _run_conservation(st: Settings, seed: int, out_dir: str) -> int:
    mass_tol, moment_tol = st.get("mass_tol"), st.get("moment_tol")
    config, f0 = _solver_setup(st)
    traj, report = solver.duhamel_picard(f0, config)
    cons = solver.conservation_drift(traj, t_limit=report.t_final)
    payload = {k: cons[k] for k in ("mass_drift", "momentum_drift", "energy_drift")}
    payload["converged"] = report.converged
    _write_json(out_dir, "conservation.json", payload)
    ok = (
        report.converged
        and cons["mass_drift"] <= mass_tol
        and cons["momentum_drift"] <= moment_tol
        and cons["energy_drift"] <= moment_tol
    )
    return 0 if ok else 2


def _run_perturbation(st: Settings, seed: int, out_dir: str) -> int:
    stability_factor = st.get("stability_factor")
    config, f0 = _solver_setup(st)
    deltas = st.get_list("deltas")
    report = solver.perturbation_experiment(f0, config, deltas=deltas, seed=seed)
    report.write(out_dir)
    ratios = report.column("ratio")
    factor = max(ratios) / min(ratios) if min(ratios) > 0 else np.inf
    return 0 if factor <= stability_factor else 2


# experiment -> (shipped sections read between [common] and its own, runner)
_RUNNERS = {
    "simulate": (("solver",), _run_simulate),
    "strichartz-scan": ((), _run_strichartz),
    "bilinear-check": ((), _run_bilinear),
    "loss-check": ((), _run_loss),
    "gain-check": ((), _run_gain),
    "holder-check": ((), _run_holder),
    "linear-check": ((), _run_linear),
    "counting-check": ((), _run_counting),
    "conservation-check": (("solver",), _run_conservation),
    "perturbation-check": (("solver",), _run_perturbation),
}
EXPERIMENTS = tuple(_RUNNERS)


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kflab", description="kinetic spectral verification experiments"
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", default=None, help="user config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    args, rest = parser.parse_known_args(argv)
    try:
        overrides = _collect_overrides(rest)
        st = Settings(_load_config(args.config), args.experiment, overrides)
        seed = args.seed if args.seed is not None else st.get("seed")
        out_dir = args.out_dir or os.environ.get("KFL_OUT_DIR") or st.get("out_dir")
        return _RUNNERS[args.experiment][1](st, seed, out_dir)
    except (ValueError, FileNotFoundError, FloatingPointError, RuntimeError, KeyError) as exc:
        print(f"kflab: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
