"""Unit tests for JSON export of experiment tables."""

import json

from repro.experiments.common import ExperimentTable
from repro.io import dump_json, table_to_dict


def test_table_to_dict():
    table = ExperimentTable("x", "demo", columns=["a"])
    table.add_row(a=1)
    table.notes.append("n")
    payload = table_to_dict(table)
    assert payload["experiment_id"] == "x"
    assert payload["rows"] == [{"a": 1}]
    assert payload["notes"] == ["n"]


def test_dump_and_load_json(tmp_path):
    path = tmp_path / "out.json"
    dump_json({"k": [1, 2]}, str(path))
    assert json.loads(path.read_text(encoding="utf-8")) == {"k": [1, 2]}


def test_cli_json_output(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "fig2.json"
    assert main(["run", "fig2", "--json", str(path)]) == 0
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["experiment_id"] == "fig2"
    assert len(payload["rows"]) == 4
