"""The solver's packed points-to maps and their decoding.

The pointer engine keeps locations as ints (object number and offset
code) and variables as dense slots; ``PointerAnalysisResult.var_pts`` and
``heap_pts`` decode them on first read.  These tests pin the codec, the
pickled form, that the verdict path never decodes, and that the packed
payload does not depend on the string-hash seed.
"""

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.interfaces import apr_pools_interface, rc_regions_interface
from repro.pointer import AnalysisOptions, analyze_pointers
from repro.pointer.analysis import PackedPointsTo
from repro.tool import run_regionwiz
from repro.tool.report import format_report, report_to_json
from repro.workloads import FIGURES
from tests.conftest import compile_graph, run_pointer_analysis

ROOT = Path(__file__).resolve().parents[2]


def _figure_results(options=None):
    for program in FIGURES:
        interface = (
            rc_regions_interface()
            if program.interface == "rc"
            else apr_pools_interface()
        )
        graph = compile_graph(program.full_source, entry=program.entry)
        yield program.name, analyze_pointers(graph, interface, options)


@pytest.mark.parametrize(
    "options",
    [AnalysisOptions(), AnalysisOptions(track_unknown_offsets=True)],
    ids=["default", "unknown_offsets"],
)
def test_a_pickled_result_decodes_to_the_same_maps(options):
    for name, result in _figure_results(options):
        clone = pickle.loads(pickle.dumps(result))
        assert clone.var_pts == result.var_pts, name
        assert clone.heap_pts == result.heap_pts, name
        assert clone.accesses == result.accesses, name


def test_pickling_keeps_only_the_packed_form():
    _, result = next(_figure_results())
    before = pickle.dumps(result.packed)
    assert result.var_pts and result.heap_pts  # decoded and kept
    assert pickle.dumps(result.packed) == before


OFFSETS_PROGRAM = """
int main(void) {
    apr_pool_t *p;
    apr_pool_create(&p, NULL);
    char *base = apr_palloc(p, 64);
    int i = 3;
    char *at_zero = base + 0;
    char *at_max = base + LIMIT;
    char *at_min = base - LIMIT;
    char *past_max = base + PAST;
    char *past_min = base - PAST;
    char *dynamic = base + i;
    char *back = at_max - LIMIT;
    return 0;
}
"""

EXPECTED_OFFSETS = {
    "at_zero": lambda limit: 0,
    "at_max": lambda limit: limit,
    "at_min": lambda limit: -limit,
    "past_max": lambda limit: None,
    "past_min": lambda limit: None,
    "dynamic": lambda limit: None,
    "back": lambda limit: 0,
}


@pytest.mark.parametrize("limit", [1 << 12, 8])
def test_offsets_round_trip_through_the_packed_codes(limit):
    options = AnalysisOptions(max_field_offset=limit)
    source = OFFSETS_PROGRAM.replace("LIMIT", str(limit)).replace(
        "PAST", str(limit + 1)
    )
    result = run_pointer_analysis(source, options=options, with_apr_header=True)
    found = {}
    for (function, _, variable), locations in result.var_pts.items():
        name = variable.split(".")[0]  # sema suffixes locals: "base.2"
        if function == "main" and name in EXPECTED_OFFSETS:
            found[name] = {offset for _, offset in locations}
    assert found == {
        variable: {expected(limit)}
        for variable, expected in EXPECTED_OFFSETS.items()
    }
    # Every decoded location re-encodes to the packed int it came from:
    # the local slot list (None marks a slot never written) and the
    # global slots.
    packed = result.packed
    cells = [locs for locs in packed.var if locs is not None]
    cells += packed.global_var.values()
    assert cells
    for locs in cells:
        for loc in locs:
            obj, offset = packed.location(loc)
            code = 2 * packed.bias + 1 if offset is None else offset + packed.bias
            assert packed.table.number(obj) << packed.offset_bits | code == loc


def test_the_verdict_path_never_decodes(monkeypatch):
    def refuse(self):
        raise AssertionError("points-to maps decoded on the verdict path")

    monkeypatch.setattr(PackedPointsTo, "var_pts", refuse)
    monkeypatch.setattr(PackedPointsTo, "heap_pts", refuse)
    for program in FIGURES:
        report = run_regionwiz(
            program.full_source,
            interface=(
                rc_regions_interface()
                if program.interface == "rc"
                else apr_pools_interface()
            ),
            entry=program.entry,
            name=program.name,
        )
        assert format_report(report)
        assert report_to_json(report)


DECODED_VIEWS = (
    "regions", "objects", "subregion", "ownership", "accesses", "cleanups"
)


def test_a_run_decodes_only_the_violators_objects():
    """The answer path works on engine numbers: after a clean run no
    decoded view is built and no object is decoded; after a run with
    warnings only the violating accesses' objects and owners are."""
    clean = flagged = 0
    for program in FIGURES:
        report = run_regionwiz(
            program.full_source,
            interface=(
                rc_regions_interface()
                if program.interface == "rc"
                else apr_pools_interface()
            ),
            entry=program.entry,
            name=program.name,
        )
        analysis = report.analysis
        for view in DECODED_VIEWS:
            assert not getattr(analysis, view).is_decoded, (program.name, view)
        assert analysis._access_sites is None, program.name
        table = analysis.packed.table
        expected = {
            table.number(obj)
            for pair in report.consistency.object_pairs
            for obj in (
                pair.source,
                pair.target,
                *pair.source_owners,
                *pair.target_owners,
            )
        }
        assert table.decoded == expected, program.name
        clean += not report.warnings
        flagged += bool(report.warnings)
    assert clean and flagged


PAYLOAD_SCRIPT = """
import hashlib, pickle
from repro.interfaces import apr_pools_interface, rc_regions_interface
from repro.pointer import analyze_pointers
from repro.workloads import FIGURES, WorkloadSpec, generate_workload
from tests.conftest import compile_graph
digest = hashlib.sha256()
units = [(p.full_source, p.interface, p.entry) for p in FIGURES]
spec = WorkloadSpec(name="seeded", interface="apr", stages=3, fanout=2,
                    helpers_per_stage=1, utility_functions=1,
                    utility_call_sites=1, bugs={"cross_sibling": 1})
units.append((generate_workload(spec).source, "apr", "main"))
for source, interface, entry in units:
    interface = (rc_regions_interface() if interface == "rc"
                 else apr_pools_interface())
    result = analyze_pointers(compile_graph(source, entry=entry), interface)
    digest.update(pickle.dumps(result.packed))
print(digest.hexdigest())
"""


def test_the_packed_payload_does_not_depend_on_the_hash_seed():
    digests = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
        )
        completed = subprocess.run(
            [sys.executable, "-c", PAYLOAD_SCRIPT],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(completed.stdout.strip())
    assert len(digests) == 1


ROUND_TRIP_SCRIPT = """
import pickle, sys
from repro.core import check_consistency
from repro.interfaces import apr_pools_interface
from repro.pointer import analyze_pointers
from repro.workloads import FIGURES
from tests.conftest import compile_graph
program = next(p for p in FIGURES if p.interface == "apr")
result = analyze_pointers(
    compile_graph(program.full_source, entry=program.entry),
    apr_pools_interface(),
)
path = sys.argv[1]
if sys.argv[2] == "write":
    with open(path, "wb") as handle:
        pickle.dump(result, handle)
else:
    with open(path, "rb") as handle:
        clone = pickle.load(handle)
    for name in ("regions", "objects", "subregion", "ownership", "accesses"):
        assert getattr(clone, name) == getattr(result, name), name
    for obj in result.objects:
        assert obj in clone.objects and obj in set(clone.objects), obj
    assert clone.var_pts == result.var_pts
    assert clone.heap_pts == result.heap_pts
    local = check_consistency(result)
    remote = check_consistency(clone)
    assert remote.object_pairs == local.object_pairs
    assert remote.region_pair_count == local.region_pair_count
    print("ok")
"""


def test_objects_pickled_under_one_hash_seed_work_under_another(tmp_path):
    """Objects cache their hash; a hash made under one string-hash seed
    must not cross to a process with another, where it would miss every
    set and dict lookup.  The packed points-to cells decode to the same
    maps on the other side."""
    path = str(tmp_path / "result.pickle")
    outputs = []
    for seed, mode in (("1", "write"), ("2", "read")):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
        )
        completed = subprocess.run(
            [sys.executable, "-c", ROUND_TRIP_SCRIPT, path, mode],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout.strip())
    assert outputs == ["", "ok"]


def test_global_slots_do_not_follow_the_hash_seed():
    """A global the solver only takes the address of gets its slot while
    the plans are built; the slots come in name order, not in the
    string-hash order of a set of names."""
    result = run_pointer_analysis(
        "void *ga; void *gb; void *gc; void *gd; void *ge; void *gf;\n"
        "int main(void) {\n"
        "    void **p = &gf; p = &ge; p = &gd; p = &gc; p = &gb; p = &ga;\n"
        "    return 0;\n"
        "}\n",
        with_apr_header=True,
    )
    assert result.packed.globals == ("ga", "gb", "gc", "gd", "ge", "gf")
