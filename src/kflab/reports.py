"""Experiment report container with deterministic serialization.

CSV output is byte-identical for identical (seed, parameters, grid):
floats are rendered with repr (shortest round-trip), header keys are
sorted, and the wall-clock time and the telemetry are kept out of the
CSV (they live only in the JSON sidecar).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .conventions import VERSION as CONVENTIONS_VERSION

__all__ = ["ExperimentReport", "format_value"]


def format_value(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        # np.float64 subclasses float; coerce so repr is the plain
        # shortest round-trip form
        return repr(float(x))
    if isinstance(x, int):
        return str(x)
    if isinstance(x, np.integer):
        return str(int(x))
    if isinstance(x, np.floating):
        return repr(float(x))
    return str(x)


@dataclass
class ExperimentReport:
    """Rows of (parameters, measured LHS, RHS, ratio) plus provenance.

    Every row is reproducible from (seed, parameters, grid); the random
    data model is Gaussian block fields, so reported suprema are
    empirical, not worst-case (recorded in the header caveat).
    """

    experiment: str
    columns: list
    rows: list = field(default_factory=list)
    seed: int = 0
    grid_desc: str = ""
    wall_clock: float = 0.0
    extra: dict = field(default_factory=dict)
    # which code path ran; JSON only, like the wall clock
    telemetry: dict = field(default_factory=dict)
    # the run's clock starts when the report is built; finish() reads it
    _started: float = field(default_factory=time.time, init=False, repr=False, compare=False)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def validate_finite(self, name: str = "ratio") -> None:
        """Abort (raise) on any non-finite value in the named column."""
        vals = np.asarray(self.column(name), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise FloatingPointError(
                f"{self.experiment}: non-finite {name} in row {bad}: {self.rows[bad]}"
            )

    def finish(self, *columns) -> "ExperimentReport":
        """End the run: a report with no rows is a ValueError naming the
        experiment; validate_finite on each named column, then record the
        wall clock since the report was built; returns the report."""
        if not self.rows:
            raise ValueError(f"{self.experiment}: the sweep has no rows")
        for name in columns:
            self.validate_finite(name)
        self.wall_clock = time.time() - self._started
        return self

    def header_items(self) -> list:
        base = {
            "experiment": self.experiment,
            "conventions_version": CONVENTIONS_VERSION,
            "seed": self.seed,
            "grid": self.grid_desc,
            "data_model": "gaussian block fields; empirical suprema only",
        }
        base.update(self.extra)
        return sorted(base.items())

    def to_csv(self) -> str:
        lines = [f"# {k} = {format_value(v)}" for k, v in self.header_items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format_value(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = dict(self.header_items())
        payload["wall_clock_seconds"] = self.wall_clock
        payload["telemetry"] = self.telemetry
        payload["columns"] = list(self.columns)
        payload["rows"] = [[_jsonable(v) for v in row] for row in self.rows]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, out_dir) -> tuple:
        """Write <experiment>.csv and .json into out_dir; returns both paths."""
        os.makedirs(out_dir, exist_ok=True)
        csv_path = os.path.join(out_dir, self.experiment + ".csv")
        json_path = os.path.join(out_dir, self.experiment + ".json")
        with open(csv_path, "w") as fh:
            fh.write(self.to_csv())
        with open(json_path, "w") as fh:
            fh.write(self.to_json())
        return csv_path, json_path


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v
