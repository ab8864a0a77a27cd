"""A single-file run is a one-unit sweep: ``regionwiz F --all --json``
and ``regionwiz --batch --json F`` give the same verdict for every F."""

import json
from pathlib import Path

import pytest

from repro.tool.batch import _FAILURE_EXIT_CODES
from repro.tool.cli import main
from repro.util import faults
from repro.workloads import FIGURES, figure

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: case -> (file name, source text or None for an unreadable file,
#: extra flags, fault point to arm).
CASES = {
    **{
        fig.name: (
            f"{fig.name}.{'rc' if fig.interface == 'rc' else 'c'}",
            fig.full_source,
            [],
            None,
        )
        for fig in FIGURES
    },
    **{
        path.name: (path.name, path.read_text(), [], None)
        for path in sorted(EXAMPLES.glob("*.rc"))
    },
    "unreadable": ("missing.c", None, [], None),
    "parse-error": ("bad.c", "int main( {", [], None),
    "budget-exhausted": (
        "fig2c.c",
        figure("fig2c").full_source,
        ["--max-derived", "1"],
        None,
    ),
    "internal-error": ("fig1.c", FIGURES[0].full_source, [], "correlation"),
}


def run(argv, fault):
    if fault is None:
        return main(argv)
    with faults.injected(fault, message="injected crash"):
        return main(argv)


@pytest.mark.parametrize("name", list(CASES))
def test_single_file_run_is_a_one_unit_sweep(tmp_path, capsys, name):
    filename, source, flags, fault = CASES[name]
    path = tmp_path / filename
    if source is not None:
        path.write_text(source)
    single_code = run([str(path), "--all", "--json", *flags], fault)
    single = capsys.readouterr()
    batch_code = run(["--batch", "--json", str(path), *flags], fault)
    batch = capsys.readouterr()
    assert single_code == batch_code
    if source is None:  # nothing to analyze: both stop before any unit
        assert single_code == 2
        assert single.out == batch.out == ""
        assert single.err == batch.err
        return
    [outcome] = json.loads(batch.out)["results"]
    assert outcome["exit_code"] == single_code
    if single_code in (0, 1):
        warnings = json.loads(single.out)["warnings"]
        assert outcome["warnings"] == len(warnings)
        assert outcome["high"] == sum(w["rank"] == "high" for w in warnings)
        assert outcome.get("fingerprints", []) == [
            w["fingerprint"] for w in warnings
        ]
        return
    assert single.out == ""
    assert _FAILURE_EXIT_CODES[outcome["status"]] == single_code
    if outcome["status"] == "internal-error":
        assert f"{outcome['error_type']}: {outcome['error']}\n" in single.err
        assert single.err.endswith("regionwiz: internal error\n")
    else:
        assert single.err == f"regionwiz: {outcome['error']}\n"
