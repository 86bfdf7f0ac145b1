"""Report serialization: determinism, finiteness gate, file outputs."""

import json
import time

import numpy as np
import pytest

from kflab import ExperimentReport
from kflab.reports import format_value


def _report():
    rep = ExperimentReport(
        experiment="demo",
        columns=["N", "ratio"],
        seed=3,
        grid_desc="grid",
        extra={"T": 0.5},
    )
    rep.add_row(2, 0.123456789012345)
    rep.add_row(4, 1.0 / 3.0)
    return rep


def test_format_value_roundtrip():
    x = 0.1 + 0.2
    assert float(format_value(x)) == x
    assert format_value(7) == "7"


def test_csv_deterministic_and_commented():
    a, b = _report(), _report()
    assert a.to_csv() == b.to_csv()
    text = a.to_csv()
    assert "# experiment = demo" in text
    assert "# seed = 3" in text
    assert "wall" not in text  # wall clock lives only in the JSON sidecar
    assert text.strip().splitlines()[-1].startswith("4,")


def test_json_has_wall_clock():
    rep = _report()
    rep.wall_clock = 1.25
    rep.telemetry["path"] = {"hit": 1}
    payload = json.loads(rep.to_json())
    assert payload["wall_clock_seconds"] == 1.25
    assert payload["telemetry"] == {"path": {"hit": 1}}
    assert payload["rows"][0][0] == 2
    assert "path" not in rep.to_csv()


def test_validate_finite():
    rep = ExperimentReport(experiment="demo", columns=["ratio"])
    rep.add_row(float("nan"))
    with pytest.raises(FloatingPointError):
        rep.validate_finite()
    rep2 = ExperimentReport(experiment="demo", columns=["ratio"])
    rep2.add_row(np.inf)
    with pytest.raises(FloatingPointError):
        rep2.validate_finite()


def test_finish_rejects_a_report_without_rows():
    with pytest.raises(ValueError, match="demo: the sweep has no rows"):
        ExperimentReport(experiment="demo", columns=["ratio"]).finish("ratio")


def test_finish_validates_and_times_from_construction():
    rep = _report()
    time.sleep(0.05)
    assert rep.finish("N", "ratio") is rep
    assert rep.wall_clock >= 0.05
    rep.add_row(8, float("nan"))
    rep.finish("N")
    with pytest.raises(FloatingPointError, match="non-finite ratio in row 2"):
        rep.finish("N", "ratio")


def test_column_access():
    rep = _report()
    assert rep.column("N") == [2, 4]
    with pytest.raises(ValueError):
        rep.column("missing")


def test_write_files(tmp_path):
    rep = _report()
    import pathlib

    csv_path, json_path = rep.write(tmp_path)
    csv_path, json_path = pathlib.Path(csv_path), pathlib.Path(json_path)
    assert csv_path.exists() and json_path.exists()
    assert csv_path.read_text() == rep.to_csv()
