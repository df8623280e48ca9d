"""Machine-readable export of experiment results (CSV / JSON).

The text tables of :mod:`repro.experiments.report` are for reading;
this module serializes the same structures for plotting pipelines and
archival: each figure becomes a long-format CSV (``series, x, y``),
each table a two-row CSV, and everything has a JSON form carrying the
full per-point detail (confidence intervals, retrials, request
counts).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Optional

from repro.experiments.figures import FigureResult
from repro.experiments.runner import PointResult
from repro.experiments.tables import TableResult


def _write(text: str, path: Optional[str]) -> str:
    if path is not None:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    return text


def figure_to_csv(figure: FigureResult, path: Optional[str] = None) -> str:
    """Long-format CSV of a figure: ``series,x,y`` rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["series", "arrival_rate", "value"])
    for label, values in figure.series.items():
        for x, y in zip(figure.x_values, values):
            writer.writerow([label, f"{x:g}", f"{y:.6f}"])
    return _write(buffer.getvalue(), path)


def table_to_csv(table: TableResult, path: Optional[str] = None) -> str:
    """CSV of an analysis-vs-simulation table."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["method"] + [f"{rate:g}" for rate in table.arrival_rates])
    writer.writerow(["analysis"] + [f"{v:.6f}" for v in table.analysis])
    writer.writerow(["simulation"] + [f"{v:.6f}" for v in table.simulation])
    return _write(buffer.getvalue(), path)


def _point_to_dict(point: PointResult) -> dict:
    return {
        "system": point.system_label,
        "arrival_rate": point.arrival_rate,
        "admission_probability": point.admission_probability,
        "ap_ci": [point.ap_ci_low, point.ap_ci_high],
        "mean_retrials": point.mean_retrials,
        "mean_attempts": point.mean_attempts,
        "requests": point.requests,
        "replications": point.replications,
    }


def figure_to_json(figure: FigureResult, path: Optional[str] = None) -> str:
    """Full-detail JSON of a figure, including per-point metadata."""
    payload = {
        "figure_id": figure.figure_id,
        "title": figure.title,
        "x_values": list(figure.x_values),
        "series": {label: list(values) for label, values in figure.series.items()},
        "points": [
            _point_to_dict(point)
            for sweep in figure.sweeps
            for point in sweep.points
        ],
    }
    return _write(json.dumps(payload, indent=2, default=str), path)


def table_to_json(table: TableResult, path: Optional[str] = None) -> str:
    """JSON of an analysis-vs-simulation table."""
    payload = {
        "table_id": table.table_id,
        "system": table.system_label,
        "arrival_rates": list(table.arrival_rates),
        "analysis": list(table.analysis),
        "simulation": list(table.simulation),
        "max_absolute_gap": table.max_absolute_gap,
    }
    return _write(json.dumps(payload, indent=2), path)
