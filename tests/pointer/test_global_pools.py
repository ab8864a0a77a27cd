"""Regression tests: address-taken globals must behave like demoted locals.

The canonical APR idiom stores the process pool in a global:
``apr_pool_create(&global_pool, NULL)`` in init, ``apr_palloc(global_pool,
...)`` everywhere else.  Stores through ``&global_pool`` and direct reads
of the variable must meet, across functions, or the analysis silently
loses all ownership facts for the program.
"""

from tests.conftest import run_pointer_analysis

from repro.core import check_consistency
from repro.tool import run_regionwiz
from repro.interfaces import APR_HEADER


GLOBAL_POOL = """
apr_pool_t *global_pool;

void init(void) {
    apr_pool_create(&global_pool, NULL);
}

void *grab(void) {
    return apr_palloc(global_pool, 32);
}

int main(void) {
    init();
    void *obj = grab();
    return 0;
}
"""


class TestGlobalPoolIdiom:
    def test_ownership_established_through_global(self):
        result = run_pointer_analysis(GLOBAL_POOL, with_apr_header=True)
        owners = {
            region
            for region, obj in result.ownership
            if obj.kind == "heap"
        }
        assert any(r.kind == "region" for r in owners), (
            "allocation through a global pool lost its owner"
        )

    def test_same_global_from_two_functions_is_one_object(self):
        result = run_pointer_analysis(
            """
            int shared;
            void writer(void) { int *p = &shared; *p = 1; }
            void reader(void) { int *q = &shared; int v = *q; }
            int main(void) { writer(); reader(); return 0; }
            """,
            with_apr_header=True,
        )
        globals_seen = {
            obj for obj in result.objects if obj.kind == "global"
        }
        assert len(globals_seen) == 1

    def test_global_pool_inconsistency_detected(self):
        """A bug routed entirely through globals must still be found."""
        report = run_regionwiz(
            APR_HEADER + """
            struct cell { void *f; };
            apr_pool_t *pool_a;
            apr_pool_t *pool_b;
            int main(void) {
                apr_pool_create(&pool_a, NULL);
                apr_pool_create(&pool_b, NULL);
                struct cell *holder = apr_palloc(pool_a, sizeof(struct cell));
                void *victim = apr_palloc(pool_b, 8);
                holder->f = victim;
                apr_pool_destroy(pool_b);
                apr_pool_destroy(pool_a);
                return 0;
            }
            """,
            name="global-pools",
        )
        assert not report.is_consistent
        assert report.high_warnings

    def test_global_initializer_with_demotion(self):
        """A demoted global with an initializer still gets its value."""
        result = run_pointer_analysis(
            """
            char *name = "prog";
            int main(void) {
                char **p = &name;
                char *got = *p;
                return 0;
            }
            """,
            with_apr_header=True,
        )
        got = set()
        for (fn, _, var), locations in result.var_pts.items():
            if fn == "main" and var.startswith("got"):
                got |= {obj for obj, _ in locations}
        assert any(obj.kind == "string" for obj in got)

    def test_consistent_global_program_stays_clean(self):
        result = run_pointer_analysis(GLOBAL_POOL, with_apr_header=True)
        assert check_consistency(result).is_consistent


class TestAddressTakenInGlobalInitializer:
    """``int **gp = &g;`` at file scope takes ``g``'s address just as
    ``gp = &g;`` in a function does: ``g`` must be demoted either way, or
    a store through ``*gp`` never reaches a direct read of ``g``."""

    AT_FILE_SCOPE = """
    int *g;
    int **gp = &g;
    int other;
    int main(void) { int *x; *gp = &other; x = g; return 0; }
    """
    IN_MAIN = """
    int *g;
    int **gp;
    int other;
    int main(void) { int *x; gp = &g; *gp = &other; x = g; return 0; }
    """

    @staticmethod
    def _x_points_to(source):
        result = run_pointer_analysis(source)
        return {
            str(obj)
            for (function, _, variable), locations in result.var_pts.items()
            if function == "main" and variable.startswith("x.")
            for obj, _ in locations
        }

    def test_both_spellings_give_the_same_points_to_set(self):
        assert self._x_points_to(self.AT_FILE_SCOPE) == {"&other"}
        assert self._x_points_to(self.IN_MAIN) == {"&other"}
