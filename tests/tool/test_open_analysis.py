"""Tests for open-program (library) analysis."""

import json

import pytest

from repro.interfaces import (
    APR_HEADER,
    RC_HEADER,
    apr_pools_interface,
    rc_regions_interface,
)
from repro.tool.cli import main
from repro.tool.open_analysis import (
    HARNESS_ENTRY,
    analyze_open_program,
    build_harness,
)
from repro.tool.regionwiz import run_regionwiz
from repro.workloads import figure

SAFE_LIBRARY = APR_HEADER + """
struct entry { struct entry *next; int value; };

struct entry *push(apr_pool_t *pool, struct entry *head, int value) {
    struct entry *e = apr_palloc(pool, sizeof(struct entry));
    e->value = value;
    e->next = NULL;
    return e;
}
"""

LEAKY_LIBRARY = APR_HEADER + """
struct parser { void *xp; apr_pool_t *pool; };
struct runner { struct parser *parser; };

struct parser *make_parser(apr_pool_t *pool) {
    apr_pool_t *subpool = svn_pool_create(pool);
    struct parser *p = apr_palloc(subpool, sizeof(struct parser));
    p->pool = subpool;
    return p;
}

void attach(apr_pool_t *pool, struct runner *r) {
    r->parser = make_parser(pool);
}
"""

CROSS_PARAM_LIBRARY = APR_HEADER + """
struct node { void *other; };

void link_objects(struct node *a, struct node *b) {
    a->other = b;   /* caller may own a and b in unrelated regions */
}
"""


class TestHarnessConstruction:
    def test_harness_calls_exported_functions(self):
        harness = build_harness(SAFE_LIBRARY, apr_pools_interface())
        assert HARNESS_ENTRY in harness
        assert "push(" in harness

    def test_harness_skips_interface_functions(self):
        # Interface functions are building blocks for arguments, never
        # harnessed exports themselves: `push` is the only exported call.
        harness = build_harness(SAFE_LIBRARY, apr_pools_interface())
        body = harness.split(HARNESS_ENTRY)[1]
        export_calls = [
            line.strip()
            for line in body.splitlines()
            if line.strip().endswith(");")
            and "=" not in line
            and "apr_pool_create" not in line
        ]
        assert export_calls and all(
            call.startswith("push(") for call in export_calls
        )

    def test_exports_filter(self):
        harness = build_harness(
            LEAKY_LIBRARY, apr_pools_interface(), exports=["attach"]
        )
        body = harness.split(HARNESS_ENTRY)[1]
        assert "attach(" in body
        assert "make_parser(" not in body

    def test_no_exports_raises(self):
        from repro.util.errors import InputError

        with pytest.raises(InputError):
            build_harness(APR_HEADER, apr_pools_interface())

    def test_rc_harness(self):
        source = RC_HEADER + """
        struct item { int x; };
        struct item *make(region r) { return ralloc(r, sizeof(struct item)); }
        """
        harness = build_harness(source, rc_regions_interface())
        assert "newregion()" in harness


class TestOpenVerdicts:
    def test_safe_library_is_consistent(self):
        report = analyze_open_program(SAFE_LIBRARY, apr_pools_interface())
        assert report.is_consistent

    def test_parser_library_flagged(self):
        """The Figure 12(b) shape as a library, no main required."""
        report = analyze_open_program(LEAKY_LIBRARY, apr_pools_interface())
        assert not report.is_consistent
        assert report.high_warnings

    def test_cross_parameter_pointer_flagged(self):
        """Two object parameters may live in unrelated regions; linking
        them is exactly the interprocedural hazard of Section 1 (callers
        'may be unaware of the implicit constraint')."""
        report = analyze_open_program(
            CROSS_PARAM_LIBRARY, apr_pools_interface()
        )
        assert not report.is_consistent

    def test_closed_analysis_would_miss_it(self):
        """Without the harness there is no entry, hence no finding --
        the motivation for the open extension."""
        from repro.tool import run_regionwiz

        report = run_regionwiz(CROSS_PARAM_LIBRARY, name="closed")
        assert report.is_consistent  # nothing reachable from main


class TestRefinement:
    """``--open --refine`` applies the Section 4.3 refinement, as a
    whole-program ``--refine`` run does."""

    # Figure 5 as a library: its main becomes an exported function.
    FIG5_LIBRARY = figure("fig5").full_source.replace(
        "int main(void) {", "void build(void) {"
    ).replace("    return 0;\n}", "}")

    def test_library_loses_the_low_ranked_warning(self):
        interface = apr_pools_interface()
        plain = analyze_open_program(self.FIG5_LIBRARY, interface)
        refined = analyze_open_program(self.FIG5_LIBRARY, interface, refine=True)
        assert len(plain.warnings) == 1
        assert not plain.high_warnings
        assert refined.warnings == []
        # The whole program agrees.
        program = figure("fig5").full_source
        assert len(run_regionwiz(program).warnings) == 1
        assert run_regionwiz(program, refine=True).warnings == []

    @pytest.mark.parametrize("refine", [False, True])
    def test_cli_passes_refine_to_the_harness(self, tmp_path, capsys, refine):
        path = tmp_path / "fig5lib.c"
        path.write_text(self.FIG5_LIBRARY)
        flags = ["--refine"] if refine else []
        main([str(path), "--open", "--all", "--json", *flags])
        warnings = json.loads(capsys.readouterr().out)["warnings"]
        assert len(warnings) == (0 if refine else 1)
