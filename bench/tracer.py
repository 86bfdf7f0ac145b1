"""Outside-in span tracer for kflab.

The tracer replaces selected module-level kflab functions by timing
wrappers.  A module that did ``from .collision import collide_trajectory``
holds its own reference, so each original is replaced in every loaded
kflab module (and class) that refers to it.  Spans are kept in memory as
``[name, start, end, parent, note]`` records; ``layer_metrics`` turns a
span list into the per-layer metrics of the benchmark.

Nothing here runs on import.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, attribute, span name).  The span name's first component is the
# layer.  A target that no longer exists is skipped and reported, so the
# benchmark keeps running when a later change removes an internal function.
TARGETS = (
    ("kflab.cli", "run", "cli.run"),
    ("kflab.cli", "_write_json", "reports.write_json"),
    ("kflab.reports", "ExperimentReport.write", "reports.write"),
    ("kflab.lab", "strichartz_scan", "lab.strichartz_scan"),
    ("kflab.lab", "gain_estimate_check", "lab.gain_estimate_check"),
    ("kflab.lab", "_free_l4_norm", "lab.free_l4_norm"),
    ("kflab.lab", "random_block_field", "lab.random_block_field"),
    ("kflab.lab", "_cutoff_free_trajectory", "lab.cutoff_free_trajectory"),
    ("kflab.solver", "duhamel_picard", "solver.duhamel_picard"),
    ("kflab.solver", "_picard_once", "solver.picard_once"),
    ("kflab.solver", "positivity_check", "solver.positivity_check"),
    ("kflab.solver", "conservation_drift", "solver.conservation_drift"),
    ("kflab.collision", "collide", "collision.collide"),
    ("kflab.collision", "collide_trajectory", "collision.collide_trajectory"),
    ("kflab.collision", "gain_bobylev", "collision.gain_bobylev"),
    ("kflab.collision", "_gain_columns", "collision.gain_columns"),
    ("kflab.collision", "loss_bobylev", "collision.loss"),
    ("kflab.collision", "moments", "collision.moments"),
    ("kflab.trajectory", "duhamel_integral", "trajectory.duhamel_integral"),
    ("kflab.trajectory", "time_dft", "trajectory.time_dft"),
    ("kflab.trajectory", "sample_free_evolution", "trajectory.free_evolution"),
    ("kflab.norms", "xsb_norm", "norms.xsb"),
    ("kflab.norms", "sobolev_norm", "norms.sobolev"),
    ("kflab.norms", "_slice_l4_xi_4", "norms.l4_slice"),
    ("kflab.lp", "project_x_shell", "lp.project"),
    ("kflab.lp", "project_x_block", "lp.project"),
    ("kflab.lp", "project_v_dyadic", "lp.project"),
    ("kflab.lp", "project_modulation", "lp.project"),
    ("kflab.counting", "counting_sweep", "counting.sweep"),
    ("kflab.counting", "measure_level_set", "counting.measure"),
    ("kflab.grid", "save_field", "grid.save_field"),
    ("kflab.grid", "x_synthesize", "grid.x_synthesize"),
)

LAYERS = (
    "cli", "lab", "solver", "collision", "trajectory", "norms", "lp",
    "counting", "grid", "reports",
)


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _gain_note(args, kwargs, out):
    """Columns processed, and whether the phase-matrix cache is bypassed:
    (nodes + 1) * P^(2d) * 16 B above the cache cap."""
    grid, quad, fv = args[:3]
    cap = getattr(sys.modules["kflab.collision"], "_MAT_CACHE_CAP_BYTES", None)
    nbytes = (quad.n_nodes + 1) * (grid.v_points**grid.d) ** 2 * 16
    return {"cols": int(fv.shape[1]), "bypass": cap is not None and nbytes > cap}


NOTES = {
    "collision.gain_columns": _gain_note,
    "counting.measure": lambda a, k, out: {
        "mc_samples": int(k.get("mc_samples", a[1] if len(a) > 1 else 10_000))
    },
    "grid.save_field": lambda a, k, out: {"bytes": _file_bytes([a[1]])},
    "reports.write": lambda a, k, out: {"bytes": _file_bytes(out)},
    "reports.write_json": lambda a, k, out: {"bytes": _file_bytes([out])},
    "lab.strichartz_scan": lambda a, k, out: {"rows": len(out.rows)},
    "lab.gain_estimate_check": lambda a, k, out: {"rows": len(out.rows)},
}


class Tracer:
    """Span registry plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._undo = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter()
            if note is not None:
                rec[4] = note(args, kwargs, out)
            return out

        return traced

    def install(self) -> "Tracer":
        """Patch every target in every loaded kflab module and class."""
        import kflab.cli  # noqa: F401  (loads the whole package)

        for mod_name, attr, span in TARGETS:
            owner = sys.modules.get(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, leaf, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.wrap(span, orig)
            for holder in _holders():
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, orig))
        return self

    def uninstall(self) -> None:
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()


def _holders():
    """kflab modules and the classes they define."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "kflab" or name.startswith("kflab.")):
            continue
        out.append(mod)
        out.extend(
            v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == name
        )
    return out


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _percentile(sorted_vals, q: float) -> float:
    if not sorted_vals:
        return 0.0
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (pos - lo) * (sorted_vals[hi] - sorted_vals[lo])


def layer_metrics(spans, nv_dot_hits: int = 0, nv_dot_misses: int = 0) -> dict:
    """Per-layer metrics from one traced cli.run (values only, no units)."""
    own = self_times(spans)
    incl, calls, selfs = {}, {}, {}
    for (name, start, end, _, _), s in zip(spans, own):
        incl[name] = incl.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        selfs[name] = selfs.get(name, 0.0) + s

    def notes(name, key):
        return [sp[4][key] for sp in spans if sp[0] == name and sp[4]]

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(n, 0) for n in names)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v for k, v in selfs.items() if k.split(".", 1)[0] == layer
        )
    gain_s = t("collision.gain_columns")
    gain_cols = sum(notes("collision.gain_columns", "cols"))
    collide = ("collision.collide_trajectory", "collision.collide")
    picard_parents = {
        i for i, sp in enumerate(spans) if sp[0] == "solver.picard_once"
    }
    measure = sorted(
        sp[2] - sp[1] for sp in spans if sp[0] == "counting.measure"
    )
    mc = sum(notes("counting.measure", "mc_samples"))
    m.update({
        "collision.collide_s": t(*collide),
        "collision.collide_self_s": sum(selfs.get(k, 0.0) for k in collide),
        "collision.gain_s": gain_s,
        "collision.gain_calls": n("collision.gain_columns"),
        "collision.gain_cols": gain_cols,
        "collision.gain_us_per_col": 1e6 * gain_s / gain_cols if gain_cols else 0.0,
        "collision.loss_s": t("collision.loss"),
        "collision.loss_calls": n("collision.loss"),
        "collision.cache_bypass_calls": sum(notes("collision.gain_columns", "bypass")),
        "collision.moments_s": t("collision.moments"),
        "solver.picard_s": t("solver.duhamel_picard"),
        "solver.picard_iters": sum(
            1 for sp in spans
            if sp[0] == "collision.collide_trajectory" and sp[3] in picard_parents
        ),
        "solver.halvings": n("solver.picard_once") - n("solver.duhamel_picard"),
        "solver.audit_s": t("solver.positivity_check", "solver.conservation_drift"),
        "trajectory.duhamel_s": t("trajectory.duhamel_integral"),
        "trajectory.time_dft_s": t("trajectory.time_dft"),
        "trajectory.free_evolution_s": t("trajectory.free_evolution"),
        "norms.xsb_s": t("norms.xsb"),
        "norms.sobolev_s": t("norms.sobolev"),
        "norms.l4_slice_s": t("norms.l4_slice"),
        "norms.l4_slice_calls": n("norms.l4_slice"),
        "propagator.nv_dot_hits": nv_dot_hits,
        "propagator.nv_dot_misses": nv_dot_misses,
        "lp.project_s": t("lp.project"),
        "lp.project_calls": n("lp.project"),
        "lab.cells": sum(notes("lab.strichartz_scan", "rows"))
        + sum(notes("lab.gain_estimate_check", "rows")),
        "counting.measure_s": t("counting.measure"),
        "counting.queries": len(measure),
        "counting.mc_samples": mc,
        "counting.samples_per_s": mc / sum(measure) if measure else 0.0,
        "counting.query_p50_ms": 1e3 * _percentile(measure, 0.50),
        "counting.query_p99_ms": 1e3 * _percentile(measure, 0.99),
        "grid.save_field_s": t("grid.save_field"),
        "grid.x_synthesize_s": t("grid.x_synthesize"),
        "grid.bytes_written": sum(notes("grid.save_field", "bytes")),
        "reports.write_s": t("reports.write", "reports.write_json"),
        "reports.bytes_written": sum(notes("reports.write", "bytes"))
        + sum(notes("reports.write_json", "bytes")),
        "cli.run_s": t("cli.run"),
        "trace.spans": len(spans),
    })
    return m
