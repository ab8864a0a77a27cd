"""The benchmark suite's BENCH_<name>.json trajectory loader.

Every historical format must load without dropping a record: the
current single document, legacy JSONL, and a bare single record.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFTEST = ROOT / "benchmarks" / "conftest.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bare_record_is_the_first_entry(bench, tmp_path):
    path = tmp_path / "BENCH_x.json"
    record = {"bench": "x", "timestamp": "2026-01-01T00:00:00Z", "ms": 1.5}
    path.write_text(json.dumps(record, indent=2))
    assert bench._load_trajectory(path) == [record]


def test_jsonl_records_load_in_order(bench, tmp_path):
    path = tmp_path / "BENCH_x.json"
    path.write_text('{"bench": "x", "ms": 1}\n\n{"bench": "x", "ms": 2}\n')
    assert [r["ms"] for r in bench._load_trajectory(path)] == [1, 2]


def test_current_document_loads_its_trajectory(bench, tmp_path):
    path = tmp_path / "BENCH_x.json"
    trajectory = [{"ms": 1}, {"ms": 2}]
    path.write_text(
        json.dumps({"bench": "x", "latest": {"ms": 2}, "trajectory": trajectory})
    )
    assert bench._load_trajectory(path) == trajectory


def test_missing_file_is_an_empty_history(bench, tmp_path):
    assert bench._load_trajectory(tmp_path / "BENCH_none.json") == []


def test_record_bench_keeps_a_bare_record(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "REPO_ROOT", tmp_path)
    old = {"bench": "x", "timestamp": "2026-01-01T00:00:00Z", "ms": 1.5}
    (tmp_path / "BENCH_x.json").write_text(json.dumps(old))
    bench.record_bench("x", ms=2.0)
    payload = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert payload["trajectory"][0] == old
    assert payload["trajectory"][1]["ms"] == 2.0
    assert payload["latest"] == payload["trajectory"][-1]
