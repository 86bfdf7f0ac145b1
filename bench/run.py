"""kflab benchmark: end-to-end and per-layer timings of four experiments.

Usage, from the repository root:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each call of an experiment runs ``kflab.cli.run(argv)`` in a fresh
interpreter (bench/child.py), one call at a time (a closed loop with one
client), until the next call would end after S seconds; at least one call
runs.  kflab gets the seed only through ``--seed``.  BLAS threads are
capped at the number of usable cores.

--trace 0 reports the end-to-end metrics, --trace 1 alternates untraced
and traced calls and reports the per-layer metrics of the traced ones
(bench/tracer.py).  ``--workload all`` runs every workload both ways and
prints one table.  The last line of standard output is a JSON object
with the keys correct, attempted, failed and metrics.  Outputs, results
and spans go to .bench_out/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

RUN_LIMIT_S = 170.0  # every run ends well inside 180 s
SETUP_PROBES = 5  # extra set-up-only interpreters per run
MASS_TOL = 1e-10  # mass is conserved to rounding by construction


@dataclass(frozen=True)
class Workload:
    argv: tuple
    expect: dict  # report file -> data rows it must hold (None: parse only)


COUNTING_QUERIES = 4
WORKLOADS = {
    # Solve job at shipped defaults: 15 batched same-argument Picard
    # sweeps with the phase-matrix cache hitting; exits 2 today.
    "solve": Workload(
        ("simulate",),
        {"iteration_report.json": None, "diagnostics.json": None},
    ),
    # Heaviest Verify job, the criterion-4 grid: FFTs, phase build and
    # the quartic slice kernel; no collision calls.
    "strichartz": Workload(
        ("strichartz-scan", "d=2", "n_modes=64", "v_extent=16", "v_points=32",
         "Ns=2,4,8,16,32", "Ms=1,2,4,8", "trials=1"),
        {"strichartz-scan.csv": 20, "strichartz-scan.json": 20,
         "strichartz_summary.json": None},
    ),
    # Default counting sweep with fewer queries: pure lattice counting,
    # no FFTs and no collision.
    "counting": Workload(
        ("counting-check", f"queries_per_cell={COUNTING_QUERIES}"),
        {"counting-check.csv": 75 * COUNTING_QUERIES,
         "counting-check.json": 75 * COUNTING_QUERIES,
         "counting_summary.json": None},
    ),
    # One (T, trial) cell: 9 unbatched gain calls with f != g whose 33
    # phase matrices exceed the cache cap, so every call rebuilds them.
    "gain-fine": Workload(
        ("gain-check", "v_points=32", "nodes=32", "Ts=0.125", "trials=1"),
        {"gain-check.csv": 1, "gain-check.json": 1},
    ),
}
# simulate at defaults: 4T/dt + 1 = 65 samples, every 8th saved
SOLVE_SNAPSHOTS = len(range(0, 65, 8))

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _unit(name: str) -> str:
    for suffix, unit in (("samples_per_s", "1/s"), ("_us_per_col", "us"),
                         ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_frac", "frac"),
                         ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer_names() -> list:
    from tracer import layer_metrics

    names = list(layer_metrics([]))
    return names + ["cli.gate_pass_frac", "cli.error_frac",
                    "trace.untraced_wall_s", "trace_overhead_frac"]


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": None,
        "caches": {},
        "commit": None,
        "source_loc": sum(
            len(p.read_text().splitlines()) for p in (SRC / "kflab").rglob("*.py")
        ),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            env["caches"][f"L{level}"] = size
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        env["commit"] = proc.stdout.strip() or None
    return env


# ---------------------------------------------------------------------------
# output checks


def _finite_json(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite_json(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_json(v) for v in value)
    return True


def _csv_rows(text: str, problems: list, name: str) -> int:
    """Data rows of a report CSV; every cell must be a finite number."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        problems.append(f"{name}: no header")
        return 0
    width = len(lines[0].split(","))
    bad = []
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            ok = len(cells) == width and all(math.isfinite(float(c)) for c in cells)
        except ValueError:
            ok = False
        if not ok:
            bad.append(ln)
    if bad:
        problems.append(f"{name}: {len(bad)} rows not all finite numbers, "
                        f"first {bad[0]!r}")
    return len(lines) - 1


def check_outputs(name: str, out_dir: Path, code) -> tuple:
    """(problems, sha256 of every CSV/JSON/field file written)."""
    problems, hashes, parsed = [], {}, {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix not in (".csv", ".json", ".kfl"):
            continue
        raw = path.read_bytes()
        hashes[path.name] = hashlib.sha256(raw).hexdigest()
        if path.suffix == ".csv":
            text = raw.decode(errors="replace")
            parsed[path.name] = _csv_rows(text, problems, path.name)
        elif path.suffix == ".json":
            try:
                payload = json.loads(raw)
            except ValueError as exc:
                problems.append(f"{path.name}: does not parse ({exc})")
                continue
            if not _finite_json(payload):
                problems.append(f"{path.name}: non-finite value")
            parsed[path.name] = payload
    for fname, rows in WORKLOADS[name].expect.items():
        if fname not in parsed:
            problems.append(f"missing report {fname}")
            continue
        got = parsed[fname]
        if isinstance(got, dict):
            got = len(got["rows"]) if "rows" in got else None
        if rows is not None and got != rows:
            problems.append(f"{fname}: {got} rows, expected {rows}")
    if name == "solve" and not problems:
        problems += _check_solve(out_dir, code, parsed)
    return problems, hashes


def _check_solve(out_dir: Path, code, parsed: dict) -> list:
    import struct

    import numpy as np

    from kflab.grid import load_field

    problems = []
    try:
        rep = parsed["iteration_report.json"]
        deltas, converged = rep["deltas_sup"], rep["converged"]
        drift = parsed["diagnostics.json"]["conservation"]["mass_drift"]
    except (KeyError, TypeError) as exc:
        return [f"solve report lacks {exc}"]
    if not deltas:
        problems.append("no Picard deltas recorded")
    if (code == 0) != bool(converged):
        problems.append(f"exit {code} disagrees with converged={converged}")
    if not drift <= MASS_TOL:
        problems.append(f"mass drift {drift:.3g} above {MASS_TOL:g}")
    snaps = sorted(out_dir.glob("snapshot_*.kfl"))
    if len(snaps) != SOLVE_SNAPSHOTS:
        problems.append(f"{len(snaps)} snapshots, expected {SOLVE_SNAPSHOTS}")
    for path in snaps:
        try:
            fld = load_field(path)
        except (ValueError, struct.error) as exc:
            problems.append(f"{path.name}: does not reload ({exc})")
            continue
        if fld.grid.shape != (8, 8, 16, 16) or not np.isfinite(fld.data).all():
            problems.append(f"{path.name}: wrong grid or non-finite data")
    return problems


# ---------------------------------------------------------------------------
# running calls


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("KFL_OUT_DIR", None)
    threads = str(len(os.sched_getaffinity(0)))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def _spawn(result: Path, mode: str, argv, timeout: float) -> tuple:
    """Start one child and wait for it; (result dict or None, error text)."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), mode, "--", *argv]
    t_spawn = time.time()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result.exists():
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    res = json.loads(result.read_text())
    res["setup_s"] = res["setup_end"] - t_spawn
    if Path(res["kflab_file"]).resolve().parent != (SRC / "kflab").resolve():
        return None, f"imported kflab from {res['kflab_file']}, not {SRC}"
    return res, ""


def run_call(name: str, seed: int, tag: str, traced: bool, timeout: float) -> dict:
    from tracer import layer_metrics

    work = OUT / f"{name}-{seed}-{os.getpid()}-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    reports = work / "reports"
    reports.mkdir(parents=True)
    argv = [*WORKLOADS[name].argv, "--seed", str(seed), "--out-dir", str(reports)]
    res, err = _spawn(work / "result.json", "--trace" if traced else "--run",
                      argv, timeout)
    call = {"traced": traced, "problems": [], "hashes": {}}
    if res is None:
        call.update(failed=True, exit_code=None, problems=[err])
    else:
        code = res["exit_code"]
        call.update(exit_code=code, setup_s=res["setup_s"], wall_s=res["wall_s"],
                    peak_rss_mb=res["peak_rss_kib"] * 1024 / 1e6,
                    numpy=res["numpy"], scipy=res["scipy"], blas=res["blas"])
        if code is None:
            call["problems"].append(res["traceback"].strip().splitlines()[-1])
        elif code not in (0, 2):
            call["problems"].append(f"exit code {code}")
        else:
            call["problems"], call["hashes"] = check_outputs(name, reports, code)
        if traced:
            call["spans"] = res["spans"]
            call["missing_targets"] = res["missing_targets"]
            call["layers"] = layer_metrics(res["spans"], res["nv_dot_hits"],
                                           res["nv_dot_misses"])
            call["problems"] += _partition_problems(call["layers"], res["wall_s"])
        call["failed"] = bool(call["problems"])
    shutil.rmtree(work, ignore_errors=True)
    return call


def _partition_problems(layers: dict, wall: float) -> list:
    from tracer import LAYERS

    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    run_s = layers["cli.run_s"]
    # the root span sits inside the child's own timer, microseconds apart
    if (abs(total - run_s) > 1e-9 * max(run_s, 1.0)
            or abs(run_s - wall) > 1e-3 * (wall + 1)):
        return [f"layer self times {total:.6f} s do not partition cli.run "
                f"{run_s:.6f} s (child wall {wall:.6f} s)"]
    return []


def setup_probe(tag: str, timeout: float):
    work = OUT / f"probe-{os.getpid()}-{tag}"
    work.mkdir(parents=True, exist_ok=True)
    res, _ = _spawn(work / "result.json", "--setup-only", [], timeout)
    shutil.rmtree(work, ignore_errors=True)
    return None if res is None else res["setup_s"]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Calls until the next would end after `seconds`; then set-up probes."""
    t0 = time.perf_counter()
    calls = []
    while True:
        for traced in ((False, True) if trace else (False,)):
            left = RUN_LIMIT_S - (time.perf_counter() - t0)
            calls.append(run_call(name, seed, str(len(calls)), traced, left))
        elapsed = time.perf_counter() - t0
        per_round = elapsed / (len(calls) // (2 if trace else 1))
        if calls[-1]["exit_code"] is None or elapsed + per_round > seconds:
            break
    setups = [c["setup_s"] for c in calls if "setup_s" in c]
    for i in range(SETUP_PROBES):
        if time.perf_counter() - t0 > RUN_LIMIT_S - 10:
            break
        s = setup_probe(str(i), RUN_LIMIT_S - (time.perf_counter() - t0))
        if s is not None:
            setups.append(s)
    return {"calls": calls, "setups": setups}


# ---------------------------------------------------------------------------
# summary


def _quartiles(vals) -> tuple:
    vals = sorted(vals)
    if not vals:
        return (0.0,) * 3
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q2, q1, q3


def summarize(name: str, seed: int, data: dict, trace: bool) -> dict:
    calls = data["calls"]
    attempted = len(calls)
    failed = sum(c["failed"] for c in calls)
    passed = sum(c.get("exit_code") == 0 for c in calls)
    problems = sorted({p for c in calls for p in c["problems"]})
    det = {}
    for c in calls:
        for fname, digest in c["hashes"].items():
            if fname.endswith((".csv", ".kfl")):
                det.setdefault(fname, set()).add(digest)
    unstable = sorted(f for f, ds in det.items() if len(ds) > 1)
    if unstable:
        problems.append(f"same seed, different bytes across calls: {unstable}")
    ok_calls = [c for c in calls if not c["failed"]]
    stats = {}
    if trace:
        traced = [c["layers"] for c in ok_calls if c["traced"]]
        plain = [c["wall_s"] for c in ok_calls if not c["traced"]]
        for key in per_layer_names():
            vals = [t[key] for t in traced if key in t]
            if vals:
                stats[key] = _quartiles(vals)
        if traced and plain:
            base = statistics.median(plain)
            stats["trace.untraced_wall_s"] = _quartiles(plain)
            stats["trace_overhead_frac"] = (
                (statistics.median([t["cli.run_s"] for t in traced]) - base) / base,
            ) * 3
    else:
        for key, _ in END_TO_END:
            vals = data["setups"] if key == "setup_s" else [c[key] for c in ok_calls]
            stats[key] = _quartiles(vals)
    stats["cli.gate_pass_frac"] = (passed / attempted,) * 3
    stats["cli.error_frac"] = (failed / attempted,) * 3
    first = next((c for c in calls if "numpy" in c), {})
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "gate_passed": passed,
        "problems": problems,
        "correct": failed == 0 and not unstable,
        "stats": stats,
        "n_samples": {"calls": len(ok_calls), "setups": len(data["setups"])},
        "software": {k: first.get(k) for k in ("numpy", "scipy", "blas")},
        "hashes": calls[-1]["hashes"] if calls else {},
        "missing_targets": sorted(
            {m for c in calls for m in c.get("missing_targets", [])}
        ),
    }


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def print_summary(s: dict) -> None:
    print(f"== {s['workload']} seed={s['seed']} trace={int(s['trace'])}: "
          f"{s['attempted']} calls, {s['failed']} failed, exit 0 in "
          f"{s['gate_passed']} of {s['attempted']}")
    for p in s["problems"]:
        print(f"   problem: {p}")
    if s["missing_targets"]:
        print(f"   not traced (absent): {', '.join(s['missing_targets'])}")
    print(f"   {'metric':32} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12}")
    for key, (med, q1, q3) in s["stats"].items():
        print(f"   {key:32} {_unit(key):6} "
              f"{_fmt(med):>12} {_fmt(q1):>12} {_fmt(q3):>12}")
    print(f"   samples: {s['n_samples']['calls']} calls, "
          f"{s['n_samples']['setups']} set-ups; software: {s['software']}")
    if s["trace"]:
        med = {k: s["stats"].get(k, (0.0,))[0] for k in per_layer_names()}
        lookups = med["propagator.nv_dot_hits"] + med["propagator.nv_dot_misses"]
        print(f"   ratios: cache bypass in {med['collision.cache_bypass_calls']:g} of "
              f"{med['collision.gain_calls']:g} gain calls; nv_dot hits "
              f"{med['propagator.nv_dot_hits']:g} of {lookups:g} lookups; tracing "
              f"overhead {med['trace_overhead_frac']:+.3f} of untraced "
              f"{med['trace.untraced_wall_s']:.3f} s")
    for fname, digest in sorted(s["hashes"].items()):
        if not fname.endswith(".kfl"):
            print(f"   sha256 {fname} {digest}")


def print_layer_table(summaries: list) -> None:
    """Self time per layer as a share of the traced cli.run, per workload."""
    from tracer import LAYERS

    traced = [s for s in summaries if s["trace"]]
    if not traced:
        return
    head = "".join(f"{s['workload']:>22}" for s in traced)
    print(f"== layer self time, s (share of traced wall)\n   {'layer':12}{head}")
    for layer in LAYERS:
        row = ""
        for s in traced:
            own = s["stats"].get(f"{layer}.self_s", (0.0,))[0]
            wall = s["stats"].get("cli.run_s", (0.0,))[0] or 1.0
            row += f"{own:>13.3f} ({100 * own / wall:4.1f}%)"
        print(f"   {layer:12}{row}")


def result_line(summaries: list, prefix: bool) -> dict:
    metrics = {}
    for s in summaries:
        keys = per_layer_names() if s["trace"] else [k for k, _ in END_TO_END]
        for key in keys:
            med = s["stats"].get(key, (0.0,))[0]
            label = f"{s['workload']}.{key}" if prefix else key
            metrics[label] = {"value": med, "unit": _unit(key)}
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kflab" / "__init__.py").is_file():
        print(f"bench: no kflab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    OUT.mkdir(exist_ok=True)
    env = environment()
    print("environment:", json.dumps(env, sort_keys=True))
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    summaries = []
    for name, trace in plan:
        data = measure(name, args.seed, args.seconds, trace)
        s = summarize(name, args.seed, data, trace)
        summaries.append(s)
        print_summary(s)
        record = OUT / f"{name}-seed{args.seed}-trace{int(trace)}.json"
        record.write_text(json.dumps(
            {"environment": env, "summary": s, "calls": data["calls"],
             "setups": data["setups"]}, indent=1, default=list) + "\n")
    print_layer_table(summaries)
    print(json.dumps(result_line(summaries, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
