"""Self-test of the benchmark's trace wrappers on tiny instances.

Run from the repository root:
    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402


@pytest.fixture
def traced_run():
    """Run kflab.cli.run under the tracer; yields (exit code, metrics)."""
    import kflab.cli
    from kflab import propagator

    tracer = Tracer().install()
    propagator._nv_dot.cache_clear()

    def call(argv):
        code = kflab.cli.run(argv)
        info = propagator._nv_dot.cache_info()
        return code, layer_metrics(tracer.spans, info.hits, info.misses)

    try:
        yield call
    finally:
        tracer.uninstall()
    assert not tracer.missing


def _assert_partition(m):
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(m["cli.run_s"], rel=1e-9)


def test_simulate_counts_and_partition(traced_run, tmp_path):
    # the shipped solver settings on a small grid take the same path as
    # the solve workload: 3 sweeps, one halving, then 12 sweeps to the cap
    code, m = traced_run(["simulate", "--out-dir", str(tmp_path),
                          "n_modes=4", "v_points=8"])
    report = json.loads((tmp_path / "iteration_report.json").read_text())
    assert code == 2 and not report["converged"]
    assert m["solver.picard_iters"] == 15
    assert m["solver.halvings"] == 1 == report["halvings"]
    assert m["solver.picard_iters"] == 3 * report["halvings"] + len(report["deltas_sup"])
    assert m["collision.gain_calls"] == 15
    assert m["collision.cache_bypass_calls"] == 0
    assert m["grid.bytes_written"] > 0 and m["reports.bytes_written"] > 0
    _assert_partition(m)


def test_gain_check_counts_cache_bypass(traced_run, tmp_path, monkeypatch):
    from kflab import collision

    monkeypatch.setattr(collision, "_MAT_CACHE_CAP_BYTES", 0)
    code, m = traced_run(["gain-check", "--out-dir", str(tmp_path), "n_modes=4",
                          "v_points=8", "Ts=0.125", "trials=1"])
    assert code == 0
    # 17 window samples on [-2T, 2T]; the 9 with |t| <= T get one gain call
    assert m["collision.gain_calls"] == 9 == m["collision.cache_bypass_calls"]
    assert m["lab.cells"] == 1
    assert m["norms.sobolev_s"] > 0 and m["norms.xsb_s"] > 0
    _assert_partition(m)


def test_uninstall_restores_functions():
    import kflab.lab
    import kflab.solver

    before = (kflab.solver.collide_trajectory, kflab.lab._slice_l4_xi_4)
    tracer = Tracer().install()
    assert kflab.solver.collide_trajectory is not before[0]
    assert kflab.lab._slice_l4_xi_4 is not before[1]
    tracer.uninstall()
    assert (kflab.solver.collide_trajectory, kflab.lab._slice_l4_xi_4) == before


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, run._unit(k)) for k in run.per_layer_names()
    ]
