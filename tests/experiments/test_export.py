"""Unit tests for result export (repro.experiments.export)."""

import csv
import io
import json

import pytest

from repro.experiments.export import (
    figure_to_csv,
    figure_to_json,
    table_to_csv,
    table_to_json,
)
from repro.experiments.figures import FigureResult
from repro.experiments.runner import PointResult, SweepResult
from repro.experiments.tables import TableResult


def make_point(label="<ED,2>", rate=20.0, ap=0.8):
    return PointResult(
        system_label=label,
        arrival_rate=rate,
        replications=2,
        admission_probability=ap,
        ap_ci_low=ap - 0.02,
        ap_ci_high=ap + 0.02,
        mean_retrials=0.3,
        mean_attempts=1.3,
        requests=1000,
    )


@pytest.fixture
def figure():
    sweep = SweepResult(
        system_label="<ED,2>",
        points=(make_point(rate=5.0, ap=1.0), make_point(rate=50.0, ap=0.5)),
    )
    return FigureResult(
        figure_id="fig6",
        title="test figure",
        x_values=(5.0, 50.0),
        series={"<ED,2>": [1.0, 0.5]},
        sweeps=(sweep,),
    )


@pytest.fixture
def table():
    return TableResult(
        table_id="tab1",
        system_label="<ED,1>",
        arrival_rates=(5.0, 50.0),
        analysis=(1.0, 0.49),
        simulation=(1.0, 0.5),
    )


class TestCsvExports:
    def test_figure_long_format(self, figure):
        text = figure_to_csv(figure)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["series", "arrival_rate", "value"]
        assert rows[1] == ["<ED,2>", "5", "1.000000"]
        assert rows[2] == ["<ED,2>", "50", "0.500000"]

    def test_table_rows(self, table):
        text = table_to_csv(table)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["method", "5", "50"]
        assert rows[1][0] == "analysis"
        assert rows[2][0] == "simulation"

    def test_write_to_file(self, figure, tmp_path):
        path = tmp_path / "fig.csv"
        text = figure_to_csv(figure, str(path))
        assert path.read_text() == text


class TestJsonExports:
    def test_figure_json_structure(self, figure):
        payload = json.loads(figure_to_json(figure))
        assert payload["figure_id"] == "fig6"
        assert payload["series"]["<ED,2>"] == [1.0, 0.5]
        assert len(payload["points"]) == 2
        assert payload["points"][0]["ap_ci"] == [0.98, 1.02]

    def test_table_json_structure(self, table):
        payload = json.loads(table_to_json(table))
        assert payload["table_id"] == "tab1"
        assert payload["max_absolute_gap"] == pytest.approx(0.01)

    def test_json_to_file(self, table, tmp_path):
        path = tmp_path / "tab.json"
        text = table_to_json(table, str(path))
        assert json.loads(path.read_text()) == json.loads(text)
