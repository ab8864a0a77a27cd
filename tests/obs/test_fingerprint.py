"""Fingerprint stability: the identity that makes warnings diffable."""

from pathlib import Path

import pytest

from repro.core.datalog_check import build_consistency_program
from repro.interfaces import rc_regions_interface
from repro.lang import SourceLocation
from repro.obs.fingerprint import (
    loc_span,
    normalize_owner,
    normalized_owners,
    pair_fingerprint,
    warning_fingerprint,
)
from repro.obs.history import diff_entries, entries_from_report
from repro.tool.batch import run_batch
from repro.tool.regionwiz import Warning_, run_regionwiz
from repro.workloads import figure_units

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run_example(filename, name):
    source = (EXAMPLES / filename).read_text()
    return run_regionwiz(
        source,
        filename=filename,
        interface=rc_regions_interface(),
        name=name,
    )


def _warning(description, source=("a.c", 3, 1), target=("a.c", 7, 9), **kw):
    defaults = dict(
        source_site=1,
        target_site=2,
        source_loc=SourceLocation(*source),
        target_loc=SourceLocation(*target),
        store_locs=(),
        high_ranked=True,
        num_contexts=1,
        description=description,
    )
    defaults.update(kw)
    return Warning_(**defaults)


DESCRIPTION = (
    "object allocated at a.c:3:1 may hold a dangling pointer to object"
    " allocated at a.c:7:9 (owners: r#1, r#2 vs s; 3 context(s))"
)


class TestNormalization:
    def test_normalize_owner_strips_context_markers(self):
        assert normalize_owner("pool#12") == "pool"
        assert normalize_owner("pool") == "pool"
        assert normalize_owner(" newregion@24 ") == "newregion@24"

    def test_normalized_owners_parses_both_sides(self):
        source, target = normalized_owners(DESCRIPTION)
        assert source == ("r",)  # r#1 and r#2 collapse and dedupe
        assert target == ("s",)

    def test_description_without_owner_clause(self):
        assert normalized_owners("something else entirely") == ((), ())

    def test_loc_span_drops_column(self):
        assert loc_span(SourceLocation("x.c", 10, 99)) == "x.c:10"


class TestPairFingerprint:
    def test_deterministic(self):
        a = pair_fingerprint("rc", "a.c:3", "a.c:7", ["r"], ["s"])
        b = pair_fingerprint("rc", "a.c:3", "a.c:7", ["r"], ["s"])
        assert a == b
        assert len(a) == 16

    def test_owner_order_and_context_markers_ignored(self):
        a = pair_fingerprint("rc", "a.c:3", "a.c:7", ["r#1", "r#2"], ["s"])
        b = pair_fingerprint("rc", "a.c:3", "a.c:7", ["r#9", "r"], ["s#4"])
        assert a == b

    def test_interface_and_spans_are_identity(self):
        base = pair_fingerprint("rc", "a.c:3", "a.c:7")
        assert pair_fingerprint("apr", "a.c:3", "a.c:7") != base
        assert pair_fingerprint("rc", "a.c:4", "a.c:7") != base
        assert pair_fingerprint("rc", "a.c:3", "b.c:7") != base

    def test_kind_is_identity(self):
        assert pair_fingerprint(
            "rc", "a.c:3", "a.c:7", kind="other-rule"
        ) != pair_fingerprint("rc", "a.c:3", "a.c:7")


class TestWarningFingerprint:
    def test_rank_contexts_and_order_excluded(self):
        """Re-ranking or re-numbering a known finding keeps its identity."""
        a = warning_fingerprint(_warning(DESCRIPTION), "rc")
        b = warning_fingerprint(
            _warning(
                DESCRIPTION.replace("3 context(s)", "7 context(s)").replace(
                    "r#1, r#2", "r#5"
                ),
                high_ranked=False,
                num_contexts=7,
            ),
            "rc",
        )
        assert a == b

    def test_column_excluded(self):
        a = warning_fingerprint(_warning(DESCRIPTION, source=("a.c", 3, 1)), "rc")
        b = warning_fingerprint(_warning(DESCRIPTION, source=("a.c", 3, 40)), "rc")
        assert a == b

    def test_line_included(self):
        a = warning_fingerprint(_warning(DESCRIPTION, source=("a.c", 3, 1)), "rc")
        b = warning_fingerprint(_warning(DESCRIPTION, source=("a.c", 4, 1)), "rc")
        assert a != b

    def test_pipeline_populates_fingerprints(self):
        report = _run_example("fig1_connection_broken.rc", "fig1")
        assert report.warnings
        for warning in report.warnings:
            assert len(warning.fingerprint) == 16


class TestEngineInvariance:
    """The same corpus through every Datalog backend yields the same
    objectPair set, hence the same fingerprint set."""

    def _pair_fingerprints(self, analysis, backend):
        built = build_consistency_program(analysis, backend=backend)
        solution = built.program.solve()
        return {
            pair_fingerprint(
                "rc",
                str(built.entities[s]),
                str(built.entities[t]),
            )
            for s, _, t in solution.tuples("objectPair")
        }

    def test_set_and_bdd_agree(self):
        report = _run_example("fig1_connection_broken.rc", "fig1")
        indexed = self._pair_fingerprints(report.analysis, "set")
        bdd = self._pair_fingerprints(report.analysis, "bdd")
        assert indexed
        assert indexed == bdd


class TestShardingInvariance:
    def _fingerprints(self, result):
        return {
            (o.unit, fp)
            for o in result.outcomes
            if o.ok
            for fp in o.fingerprints
        }

    def test_jobs_1_vs_4_identical_fingerprint_sets(self):
        units = figure_units()
        serial = run_batch(units, keep_going=True, jobs=1)
        parallel = run_batch(units, keep_going=True, jobs=4)
        fingerprints = self._fingerprints(serial)
        assert fingerprints  # the corpus has warning-bearing figures
        assert fingerprints == self._fingerprints(parallel)


class TestDiffAcceptance:
    def test_self_diff_is_empty(self):
        report = _run_example("fig1_connection_broken.rc", "fig1")
        entries = entries_from_report(report)
        diff = diff_entries(entries, entries)
        assert diff.clean
        assert not diff.new and not diff.fixed
        assert len(diff.persisting) == len(entries)

    def test_broken_vs_clean_shows_exactly_the_new_warning(self):
        """fig1_connection.rc is the paper's consistent version; the
        broken variant adds exactly one region-lifetime inconsistency."""
        clean = _run_example("fig1_connection.rc", "fig1")
        broken = _run_example("fig1_connection_broken.rc", "fig1")
        diff = diff_entries(
            entries_from_report(broken), entries_from_report(clean)
        )
        assert len(diff.new) == 1
        assert not diff.fixed
        assert diff.new[0].rank == "high"
        assert "dangling pointer" in diff.new[0].description

    def test_fixing_direction(self):
        clean = _run_example("fig1_connection.rc", "fig1")
        broken = _run_example("fig1_connection_broken.rc", "fig1")
        diff = diff_entries(
            entries_from_report(clean), entries_from_report(broken)
        )
        assert not diff.new
        assert len(diff.fixed) == 1
