"""Shared helpers for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures and writes
the rendered table to ``benchmarks/results/`` so EXPERIMENTS.md can point
at concrete artifacts.  Absolute numbers differ from the paper (synthetic
workloads, pure-Python analysis, 2026 hardware vs a 2008 Xeon); the
benches assert the *shape*: who warns, who ranks high, what grows.
"""

import json
import pathlib
import time

import pytest

from repro import __version__
from repro.interfaces import apr_pools_interface, rc_regions_interface
from repro.tool import run_regionwiz

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def write_result(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(text + "\n")


def _load_trajectory(path: pathlib.Path) -> list:
    """Existing records from BENCH_<name>.json, tolerating both formats.

    The current format is one JSON document with a ``trajectory`` array.
    Early versions blindly *appended* a JSON object per run, producing a
    JSONL file that ``json.load`` rejects, or wrote one bare record (a
    dict without ``trajectory``) — either way the records are migrated
    into the array the first time the bench runs again.
    """
    try:
        text = path.read_text()
    except OSError:
        return []
    try:
        payload = json.loads(text)
        if isinstance(payload, dict):
            if "trajectory" not in payload:
                return [payload]  # one bare legacy record
            trajectory = payload["trajectory"]
            return trajectory if isinstance(trajectory, list) else []
        if isinstance(payload, list):
            return payload
    except ValueError:
        pass
    records = []  # legacy JSONL: one record per line
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def record_bench(name: str, **headline) -> None:
    """Append one machine-readable trajectory record for this bench.

    ``BENCH_<name>.json`` at the repo root is a single JSON document
    ``{"bench", "latest", "trajectory": [...]}`` — one trajectory entry
    per run, so plotting perf across PRs is
    ``json.load(open(...))["trajectory"]``.  Headline numbers are
    whatever the bench considers its key results; timestamp and version
    pin each record to a point in history.  Import the whole history
    into a run registry with ``regionwiz history --import-bench``.
    """
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "version": __version__,
        **headline,
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    trajectory = _load_trajectory(path)
    trajectory.append(record)
    payload = {"bench": name, "latest": record, "trajectory": trajectory}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def bench_seconds(benchmark):
    """Mean seconds per round, or None when the fixture collected nothing
    (e.g. ``--benchmark-disable``)."""
    try:
        return round(benchmark.stats.stats.mean, 6)
    except (AttributeError, TypeError):
        return None


def interface_for(kind: str):
    return rc_regions_interface() if kind == "rc" else apr_pools_interface()


def analyze_package(model):
    """Run the pipeline on every executable of a package model."""
    from repro.workloads import generate_package

    interface = interface_for(model.interface)
    reports = []
    for workload in generate_package(model):
        reports.append(
            run_regionwiz(
                workload.source, interface=interface, name=workload.name
            )
        )
    return reports


@pytest.fixture(scope="session")
def package_reports():
    """All six packages analyzed once per session (reused across benches)."""
    from repro.workloads import PACKAGES

    return {model.name: (model, analyze_package(model)) for model in PACKAGES}
