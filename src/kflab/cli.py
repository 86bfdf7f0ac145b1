"""Batch front-end: one experiment per invocation.

Usage:
    kflab EXPERIMENT [--config FILE] [--seed N] [--out-dir DIR] [KEY=VALUE ...]

Configuration is layered: shipped defaults, then the user config file,
then KEY=VALUE (or --KEY VALUE) overrides.  Output root resolution:
--out-dir, else $KFL_OUT_DIR, else the configured out_dir.  Exit codes:
0 pass, 2 bounded-ratio regression failure, 1 error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from importlib import resources

import numpy as np

from . import counting, lab, solver
from .grid import make_grid, save_field
from .norms import NormParams

EXPERIMENTS = (
    "simulate",
    "strichartz-scan",
    "bilinear-check",
    "loss-check",
    "gain-check",
    "holder-check",
    "linear-check",
    "counting-check",
    "conservation-check",
    "perturbation-check",
)


# counting-check's single-cell mode reads these keys, which its shipped
# section (a sweep) does not list
_EXTRA_KEYS = {"counting-check": ("N", "M", "K", "queries")}


def _load_config(config_path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    cfg.optionxform = str  # keys are case sensitive (Ns vs N)
    with resources.files("kflab").joinpath("data/defaults.cfg").open() as fh:
        cfg.read_file(fh)
    if config_path is not None:
        if not os.path.isfile(config_path):
            raise FileNotFoundError(f"config file not found: {config_path}")
        cfg.read(config_path)
    return cfg


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(t) for t in raw.split(",") if t.strip()]
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


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
    """Merged view of one experiment's section with overrides applied.

    Every key must be one the experiment knows: a key of the shipped
    ``[common]`` or of the experiment's shipped section, or one of
    ``_EXTRA_KEYS``.  Any other key, from the command line or the user
    config file, is a ValueError naming it.
    """

    def __init__(self, cfg, section: str, overrides: dict):
        self.values = dict(cfg["common"]) if cfg.has_section("common") else {}
        if cfg.has_section(section):
            self.values.update(cfg[section])
        self.values.update(overrides)
        shipped = _load_config(None)
        known = set(shipped["common"]) | set(shipped[section])
        unknown = sorted(set(self.values) - known - set(_EXTRA_KEYS.get(section, ())))
        if unknown:
            raise ValueError(f"unknown key(s) for {section}: {', '.join(unknown)}")

    def get(self, key: str, fallback=None):
        if key not in self.values:
            return fallback
        v = self.values[key]
        return _parse_value(v) if isinstance(v, str) else v

    def get_list(self, key: str, fallback=()):
        v = self.get(key, None)
        if v is None:
            return list(fallback)
        return v if isinstance(v, list) else [v]


def _grid_from(st: Settings):
    return make_grid(
        int(st.get("d", 2)),
        int(st.get("n_modes", 8)),
        float(st.get("v_extent", 4.0)),
        int(st.get("v_points", 16)),
    )


def _solver_config(st: Settings) -> solver.SolverConfig:
    from .collision import sphere_quadrature

    grid = _grid_from(st)
    return solver.SolverConfig(
        grid=grid,
        T=float(st.get("T", 0.125)),
        dt=float(st.get("dt", 0.0078125)),
        quad=sphere_quadrature(grid.d, int(st.get("nodes", 16))),
        max_picard=int(st.get("max_picard", 12)),
        tol=float(st.get("tol", 1e-10)),
    )


def _write_json(out_dir: str, name: str, payload: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _run_simulate(st: Settings, seed: int, out_dir: str) -> int:
    config = _solver_config(st)
    mode = st.get_list("mode", (1, 0))
    f0 = solver.maxwellian_perturbed(
        config.grid, float(st.get("eps", 0.1)), tuple(int(m) for m in mode)
    )
    traj, report = solver.duhamel_picard(f0, config)
    stride = int(st.get("snapshot_stride", 8))
    os.makedirs(out_dir, exist_ok=True)
    for j in range(0, traj.n_samples, max(1, stride)):
        save_field(traj.slice_field(j), os.path.join(out_dir, f"snapshot_{j:05d}.kfl"))
    _write_json(out_dir, "iteration_report.json", report.to_dict())
    pos = solver.positivity_check(traj, t_limit=report.t_final)
    cons = solver.conservation_drift(traj, t_limit=report.t_final)
    _write_json(
        out_dir,
        "diagnostics.json",
        {"positivity": pos, "conservation": {k: cons[k] for k in
                                             ("mass_drift", "momentum_drift", "energy_drift")}},
    )
    return 0 if report.converged else 2


def _slope_by_group(report, group_col: str, x_col: str) -> float:
    worst = -np.inf
    groups = sorted(set(report.column(group_col)))
    for gval in groups:
        xs, ys = {}, {}
        for row in report.rows:
            rd = dict(zip(report.columns, row))
            if rd[group_col] != gval:
                continue
            x = rd[x_col]
            ys[x] = max(ys.get(x, 0.0), rd["ratio"])
        if len(ys) >= 2:
            worst = max(worst, lab.loglog_slope(sorted(ys), [ys[k] for k in sorted(ys)]))
    return float(worst)


def _run_strichartz(st: Settings, seed: int, out_dir: str) -> int:
    grid = _grid_from(st)
    report = lab.strichartz_scan(
        grid,
        Ns=st.get_list("Ns", (2, 4, 8)),
        Ms=st.get_list("Ms", (1, 2)),
        trials=int(st.get("trials", 3)),
        T=float(st.get("T", 1.0)),
        seed=seed,
        n_time=int(st.get("n_time", 9)),
    )
    report.write(out_dir)
    slope = _slope_by_group(report, "M", "N")
    _write_json(out_dir, "strichartz_summary.json", {"max_slope_vs_N": slope})
    return 0 if slope <= float(st.get("slope_max", 0.05)) else 2


def _run_bilinear(st: Settings, seed: int, out_dir: str) -> int:
    grid = _grid_from(st)
    report = lab.bilinear_modulation_check(
        grid,
        N=int(st.get("N", 4)),
        M=int(st.get("M", 2)),
        K1s=st.get_list("K1s", (1, 2)),
        K2s=st.get_list("K2s", (1, 2)),
        trials=int(st.get("trials", 2)),
        seed=seed,
        t_half=float(st.get("t_half", 4.0)),
        n_samples=int(st.get("n_samples", 32)),
    )
    report.write(out_dir)
    by_key = {}
    for row in report.rows:
        rd = dict(zip(report.columns, row))
        by_key[(rd["K1"], rd["K2"], rd["trial"])] = rd["ratio"]
    defect = max(
        abs(v - by_key[(k2, k1, tr)]) for (k1, k2, tr), v in by_key.items()
    )
    return 0 if defect <= float(st.get("swap_tol", 1e-9)) else 2


def _run_bilinear_collision(st: Settings, seed: int, out_dir: str, which: str) -> int:
    grid = _grid_from(st)
    kwargs = dict(
        s=float(st.get("s", 0.8)),
        r=float(st.get("r", 1.05)),
        Ts=st.get_list("Ts", (0.125, 0.25, 0.5)),
        trials=int(st.get("trials", 2)),
        seed=seed,
    )
    if which == "loss":
        report = lab.loss_estimate_check(grid, **kwargs)
    else:
        from .collision import sphere_quadrature

        report = lab.gain_estimate_check(
            grid, quad=sphere_quadrature(grid.d, int(st.get("nodes", 16))), **kwargs
        )
    report.write(out_dir)
    cap = float(st.get("ratio_cap", 0))
    if cap > 0 and max(report.column("ratio")) > cap:
        return 2
    return 0


def _run_holder(st: Settings, seed: int, out_dir: str) -> int:
    grid = _grid_from(st)
    from .collision import sphere_quadrature

    report = lab.holder_gain_check(
        grid,
        p=float(st.get("p", 4.0)),
        q=float(st.get("q", 4.0)),
        trials=int(st.get("trials", 2)),
        seed=seed,
        quad=sphere_quadrature(grid.d, int(st.get("nodes", 16))),
    )
    report.write(out_dir)
    return 0


def _run_linear(st: Settings, seed: int, out_dir: str) -> int:
    grid = _grid_from(st)
    b = float(st.get("b", 0.55))
    report = lab.linear_xsb_checks(
        grid,
        s=float(st.get("s", 0.0)),
        r=float(st.get("r", 0.0)),
        b=b,
        seed=seed,
        t_half=float(st.get("t_half", 2.0)),
        n_samples=int(st.get("n_samples", 129)),
    )
    report.write(out_dir)
    scaling = lab.psi_delta_scaling(b=b)
    scaling.write(out_dir)
    rows = {row[0]: row for row in report.rows}
    b2_err = abs(rows["b2"][3] - report.extra["b2_oracle"]) / report.extra["b2_oracle"]
    tol = float(st.get("b2_tol", 1e-6))
    etol = float(st.get("exponent_tol", 0.05))
    ok = (
        b2_err <= tol
        and abs(scaling.extra["slope_l2"] - 0.5) <= etol
        and abs(scaling.extra["slope_hdotb"] - (0.5 - b)) <= etol
    )
    return 0 if ok else 2


def _run_counting(st: Settings, seed: int, out_dir: str) -> int:
    single = all(st.get(k) is not None for k in ("N", "M", "K"))
    if single:
        Ns, Ms, Ks = [int(st.get("N"))], [int(st.get("M"))], [int(st.get("K"))]
        # single-cell mode defaults to one query regardless of the sweep
        # section's queries_per_cell
        queries = int(st.get("queries", 1))
    else:
        Ns = [int(x) for x in st.get_list("Ns", (4, 8, 16, 32, 64))]
        Ms = [int(x) for x in st.get_list("Ms", (1, 2, 4, 8, 16))]
        Ks = [int(x) for x in st.get_list("Ks", (1, 2, 4))]
        queries = int(st.get("queries_per_cell", 100))
    report = counting.counting_sweep(
        Ns=Ns,
        Ms=Ms,
        Ks=Ks,
        queries_per_cell=queries,
        mc_samples=int(st.get("mc_samples", 10_000)),
        seed=seed,
        d=int(st.get("d", 2)),
    )
    report.write(out_dir)
    if single or len(Ns) < 2:
        return 0
    by_n = {}
    for row in report.rows:
        rd = dict(zip(report.columns, row))
        by_n[rd["N"]] = max(by_n.get(rd["N"], 0.0), rd["ratio"])
    slope = lab.loglog_slope(sorted(by_n), [by_n[k] for k in sorted(by_n)])
    _write_json(out_dir, "counting_summary.json", {"max_ratio_slope_vs_N": slope})
    return 0 if slope <= float(st.get("slope_max", 0.1)) else 2


def _run_conservation(st: Settings, seed: int, out_dir: str) -> int:
    config = _solver_config(st)
    mode = st.get_list("mode", (1, 0))
    f0 = solver.maxwellian_perturbed(
        config.grid, float(st.get("eps", 0.1)), tuple(int(m) for m in mode)
    )
    traj, report = solver.duhamel_picard(f0, config)
    cons = solver.conservation_drift(traj, t_limit=report.t_final)
    payload = {k: cons[k] for k in ("mass_drift", "momentum_drift", "energy_drift")}
    payload["converged"] = report.converged
    _write_json(out_dir, "conservation.json", payload)
    ok = (
        report.converged
        and cons["mass_drift"] <= float(st.get("mass_tol", 1e-10))
        and cons["momentum_drift"] <= float(st.get("moment_tol", 1e-3))
        and cons["energy_drift"] <= float(st.get("moment_tol", 1e-3))
    )
    return 0 if ok else 2


def _run_perturbation(st: Settings, seed: int, out_dir: str) -> int:
    config = _solver_config(st)
    mode = st.get_list("mode", (1, 0))
    f0 = solver.maxwellian_perturbed(
        config.grid, float(st.get("eps", 0.1)), tuple(int(m) for m in mode)
    )
    deltas = [float(x) for x in st.get_list("deltas", (1e-2, 1e-3, 1e-4))]
    report = solver.perturbation_experiment(f0, config, deltas=deltas, seed=seed)
    report.write(out_dir)
    ratios = report.column("ratio")
    factor = max(ratios) / min(ratios) if min(ratios) > 0 else np.inf
    return 0 if factor <= float(st.get("stability_factor", 2.0)) else 2


_RUNNERS = {
    "simulate": _run_simulate,
    "strichartz-scan": _run_strichartz,
    "bilinear-check": _run_bilinear,
    "loss-check": lambda st, s, o: _run_bilinear_collision(st, s, o, "loss"),
    "gain-check": lambda st, s, o: _run_bilinear_collision(st, s, o, "gain"),
    "holder-check": _run_holder,
    "linear-check": _run_linear,
    "counting-check": _run_counting,
    "conservation-check": _run_conservation,
    "perturbation-check": _run_perturbation,
}


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
        cfg = _load_config(args.config)
        st = Settings(cfg, args.experiment, overrides)
        seed = args.seed if args.seed is not None else int(st.get("seed", 0))
        out_dir = (
            args.out_dir
            or os.environ.get("KFL_OUT_DIR")
            or str(st.get("out_dir", "kflab_out"))
        )
        return _RUNNERS[args.experiment](st, seed, out_dir)
    except (ValueError, FileNotFoundError, FloatingPointError, RuntimeError, KeyError) as exc:
        print(f"kflab: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
