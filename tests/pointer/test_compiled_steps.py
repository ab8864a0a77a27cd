"""Every compiled plan step shape against the Datalog oracle.

The solver compiles each plan step into a closure specialized on its
operands' kinds: a local slot is read and written in line, any other
operand (a global slot, a null or function-address constant, a string
literal) goes through a shared reader or writer.  One small program per
(step kind x operand kind) drives each shape, and its points-to maps and
effects must equal :mod:`repro.pointer.datalog_pta`'s under every option
set of ``test_golden_results``.  Cleanup registrations and the data flow
of implicit calls, which the oracle does not state, are pinned by hand.

Each program calls every function once, so every function has one
context and heap cloning names nothing differently; each object is
accessed at one field only, so a field-insensitive run equals the
oracle's facts with every offset read as 0.
"""

import pytest

from repro.callgraph import build_call_graph
from repro.interfaces import APR_HEADER, apr_pools_interface
from repro.pointer import analyze_pointers
from repro.pointer.analysis import _Engine
from repro.pointer.datalog_pta import run_datalog_pta
from tests.conftest import compile_module
from tests.pointer.test_dirty_edges import spawn_registry
from tests.pointer.test_golden_results import OPTION_SETS

PRELUDE = APR_HEADER + """
struct box { void *first; void *second; };
void my_spawn(void (*fn)(void *), void *data);
void *gptr;
void *gdst;
void *gv;
void **gpp;
apr_pool_t *gpool;
apr_pool_t **gpoolp;
void (*gfn)(void *);
int n;
void fn(void *d) { }
"""

# main's set-up: a local pool, a local and a global pointer to heap
# objects, and a box whose first field is in use.  None of these is
# address-taken, so each is a local or a global slot.
SETUP = """
    apr_pool_t *pool = svn_pool_create(NULL);
    gpool = svn_pool_create(pool);
    void *lp = apr_palloc(pool, 8);
    gptr = apr_palloc(gpool, 8);
    struct box *b = apr_palloc(pool, sizeof(struct box));
"""

# A pointer-valued source operand of each kind.
SOURCES = {
    "local": "lp",
    "global": "gptr",
    "null": "NULL",
    "string": '"text"',
    "function": "fn",
}


def _main(body, before=""):
    return f"{PRELUDE}{before}\nint main(void) {{{SETUP}{body}\n    return 0;\n}}\n"


def _rows():
    for kind, value in SOURCES.items():
        yield f"assign-{kind}", _main(
            f"    void *x = {value};\n    gdst = {value};"
        )
        # A constant add, read back through the shifted slot.
        yield f"add-const-{kind}", _main(
            f"    void **slot = (void **)((char *){value} + 8);\n"
            "    *slot = lp;\n    void *got = *slot;"
        )
        yield f"add-dynamic-{kind}", _main(f"    char *d = (char *){value} + n;")
        yield f"store-src-{kind}", _main(
            f"    b->first = {value};\n    void *got = b->first;"
        )
        yield f"call-arg-{kind}", _main(
            f"    void *r = take({value});",
            before="void *take(void *a) { return a; }\n",
        )
        # give returns a local of its own, or the same operand as main.
        mine = "mine" if kind == "local" else value
        yield f"call-return-{kind}", _main(
            "    void *r = give();",
            before=(
                "void *give(void) {\n"
                "    void *mine = apr_palloc(NULL, 8);\n"
                f"    return {mine};\n}}\n"
            ),
        )
    # A constant add moving an unknown offset, overflowing the offset
    # range, and shifting two locations at once.
    yield "add-const-unknown", _main(
        "    char *d = (char *)((char *)lp + n) + 8;"
    )
    yield "add-const-overflow", _main("    char *d = (char *)lp + 8192;")
    yield "add-const-two", _main(
        "    void *two = lp;\n    if (n) two = gptr;\n"
        "    void **slot = (void **)((char *)two + 8);\n"
        "    *slot = lp;\n    void *got = *slot;"
    )
    for kind, var in (("local", "lv"), ("global", "gv")):
        declare = "    void *lv = NULL;\n" if kind == "local" else ""
        yield f"addrof-{kind}", _main(
            f"{declare}    void **a = &{var};\n    *a = lp;\n    void *back = *a;"
        )
    # Loads and stores through an address operand of each kind.
    addresses = {
        "local": ("    void **lpp = &b->first;\n", "lpp"),
        "global": ("    gpp = &b->first;\n", "gpp"),
        "null": ("", "(void **)NULL"),
        "string": ("", '(void **)"text"'),
        "function": ("", "(void **)fn"),
    }
    for kind, (setup, address) in addresses.items():
        yield f"load-{kind}", _main(
            f"    b->first = lp;\n{setup}    void *x = *{address};"
        )
        yield f"store-addr-{kind}", _main(
            f"{setup}    *{address} = lp;\n    *{address} = \"text\";\n"
            "    void *x = b->first;"
        )
    # An integer store compiles to no step at all.
    yield "store-src-int", _main("    b->first = 0;\n    void *x = b->first;")
    pools = {"local": "pool", "global": "gpool", "null": "NULL"}
    for kind, region in pools.items():
        yield f"alloc-{kind}", _main(f"    void *o = apr_palloc({region}, 8);")
        yield f"create-parent-{kind}", _main(
            f"    apr_pool_t *sub;\n    apr_pool_create(&sub, {region});\n"
            f"    apr_pool_t *ret = svn_pool_create({region});"
        )
    # A region argument that may also be null, or is no region at all.
    yield "alloc-maybe-null", _main(
        "    apr_pool_t *maybe = NULL;\n    if (n) maybe = pool;\n"
        "    void *o = apr_palloc(maybe, 8);"
    )
    yield "alloc-nonregion", _main(
        "    void *o = apr_palloc((apr_pool_t *)lp, 8);"
    )
    yield "create-parent-maybe-null", _main(
        "    apr_pool_t *maybe = NULL;\n    if (n) maybe = pool;\n"
        "    apr_pool_t *ret = svn_pool_create(maybe);"
    )
    yield "create-out-global", _main(
        "    apr_pool_t *slot = NULL;\n    gpoolp = &slot;\n"
        "    apr_pool_create(gpoolp, pool);\n    apr_pool_t *got = slot;"
    )


ROWS = dict(_rows())

# Cleanup registrations: (data operand, function operand).
CLEANUPS = {
    "local-data": ("lp", "fn"),
    "global-data": ("gptr", "fn"),
    "null-data": ("NULL", "fn"),
    "string-data": ('"text"', "fn"),
    "local-function": ("lp", "lf"),
    "global-function": ("lp", "gfn"),
}

# Implicit spawns: (entry operand, data operand).
SPAWNS = {
    "function-local": ("worker", "lp"),
    "function-global": ("worker", "gptr"),
    "function-null": ("worker", "NULL"),
    "function-string": ("worker", '"text"'),
    "local-local": ("lf", "lp"),
    "global-local": ("gfn", "lp"),
    # Entries that take no data: declared only, without parameters, and
    # handed an integer.
    "prototype-local": ("declared", "lp"),
    "noparams-local": ("bare", "lp"),
    "function-int": ("worker", "0"),
}


def _graph(source, registry=None):
    return build_call_graph(compile_module(source), registry=registry)


def _native(result, field_sensitive):
    """The result's facts by label; unknown offsets dropped, every offset
    read as 0 when ``field_sensitive`` is off (as the solver reads it)."""

    def located(obj, offset):
        return str(obj), offset

    variables = {
        (function, variable) + located(obj, offset)
        for (function, _, variable), locations in result.var_pts.items()
        for obj, offset in locations
        if offset is not None
    }
    heap = {
        located(*source) + located(*target)
        for source, targets in result.heap_pts.items()
        for target in targets
        if source[1] is not None and target[1] is not None
    }
    return {
        "variables": variables,
        "heap": heap,
        "subregion": {(str(a), str(b)) for a, b in result.subregion if a != b},
        "ownership": {(str(a), str(b)) for a, b in result.ownership},
        "access": {
            (str(a), offset, str(b))
            for a, offset, b in result.accesses
            if offset is not None
        },
    }


def _oracle(pta, field_sensitive):
    """The oracle's facts by label, its own variables dropped."""
    solution = pta.solution
    names = {index: key for key, index in pta._variables.items()}

    def offset(n):
        return pta.offset_list[n] if field_sensitive else 0

    variables = {
        names[v] + (pta._label(h), offset(n))
        for v, h, n in solution.tuples("loc")
        if not names[v][1].startswith("__")
    }
    heap = {
        (pta._label(h1), offset(n), pta._label(h2), offset(m))
        for h1, n, h2, m in solution.tuples("hP")
    }
    return {
        "variables": variables,
        "heap": heap,
        "subregion": pta.subregion_labels(),
        "ownership": pta.ownership_labels(),
        "access": {
            (a, n if field_sensitive else 0, b)
            for a, n, b in pta.access_labels()
        },
    }


def _compare(graph, options, skip_functions=(), oracle_graph=None):
    """Native facts == oracle facts; ``oracle_graph`` is the program the
    oracle states the same facts of, when it is not ``graph``'s."""
    native = _native(
        analyze_pointers(graph, apr_pools_interface(), options),
        options.field_sensitive,
    )
    oracle = _oracle(
        run_datalog_pta(oracle_graph or graph, apr_pools_interface()),
        options.field_sensitive,
    )
    for facts in (native, oracle):
        facts["variables"] = {
            fact for fact in facts["variables"] if fact[0] not in skip_functions
        }
    assert native == oracle


@pytest.mark.parametrize("option_set", sorted(OPTION_SETS))
@pytest.mark.parametrize("row", sorted(ROWS))
def test_step_shape_matches_the_oracle(row, option_set):
    options = OPTION_SETS[option_set]
    source = ROWS[row]
    oracle_graph = None
    if not options.field_sensitive:
        # A field-insensitive run discards every offset, so its dynamic
        # or out-of-range add is the add of 0, which the oracle states
        # (it drops both, as paper mode does).
        oracle_graph = _graph(
            source.replace(" + n", " + 0").replace(" + 8192", " + 0")
        )
    _compare(_graph(source), options, oracle_graph=oracle_graph)


def test_rows_cover_every_step_kind():
    kinds = {
        "assign", "add-const", "add-dynamic", "load", "store-src",
        "store-addr", "addrof", "alloc", "create-parent", "create-out",
        "call-arg", "call-return",
    }
    for row in ROWS:
        assert any(row.startswith(f"{kind}-") for kind in kinds), row
    for kind in kinds:
        assert any(row.startswith(f"{kind}-") for row in ROWS), kind


def _data_label(source, data):
    """The label of the object a data operand of SETUP denotes."""
    if data == "NULL":
        return "<null>"
    if data.startswith('"'):
        return "str"  # a literal's label carries its site
    assignment = {"lp": "void *lp = apr_palloc", "gptr": "gptr = apr_palloc"}
    line = next(
        number
        for number, text in enumerate(source.splitlines(), 1)
        if assignment[data] in text
    )
    return f"apr_palloc@{line}"


def _matches(label, expected):
    return label.startswith("str") if expected == "str" else label == expected


@pytest.mark.parametrize("option_set", sorted(OPTION_SETS))
@pytest.mark.parametrize("row", sorted(CLEANUPS))
def test_cleanup_registration(row, option_set):
    data, function = CLEANUPS[row]
    source = _main(
        "    void (*lf)(void *) = fn;\n    gfn = fn;\n"
        f"    apr_pool_cleanup_register(pool, {data}, {function}, NULL);"
    )
    graph = _graph(source)
    options = OPTION_SETS[option_set]
    # The registry makes the cleanup an implicit call of fn(data), whose
    # data flow the oracle does not state.
    _compare(graph, options, skip_functions={"fn"})
    # Nor does it state cleanup registrations.
    result = analyze_pointers(graph, apr_pools_interface(), options)
    ((region, name, obj),) = result.cleanups
    assert str(region).startswith("svn_pool_create@")
    assert name == "fn"
    assert _matches(str(obj), _data_label(source, data))


@pytest.mark.parametrize("option_set", sorted(OPTION_SETS))
@pytest.mark.parametrize("row", sorted(SPAWNS))
def test_implicit_spawn(row, option_set):
    entry, data = SPAWNS[row]
    source = _main(
        "    void (*lf)(void *) = worker;\n    gfn = worker;\n"
        f"    my_spawn({entry}, {data});",
        before=(
            "void worker(void *arg) { void *seen = arg; }\n"
            "void declared(void *arg);\nvoid bare(void) { }\n"
        ),
    )
    graph = _graph(source, registry=spawn_registry())
    options = OPTION_SETS[option_set]
    # The oracle binds no data argument to an entry's parameter: the
    # entry's facts are pinned here instead.
    _compare(graph, options, skip_functions={"worker"})
    result = analyze_pointers(graph, apr_pools_interface(), options)
    seen = {
        str(obj)
        for (function, _, variable), locations in result.var_pts.items()
        if function == "worker" and variable.startswith("seen.")
        for obj, _ in locations
    }
    if entry in ("declared", "bare") or data == "0":
        # No data reaches worker; the positional binding of the call
        # itself still hands worker its own address when it is the entry.
        assert not any(label.startswith("apr_palloc") for label in seen)
    else:
        expected = _data_label(source, data)
        assert any(_matches(label, expected) for label in seen)


def test_no_step_holds_the_engine():
    """A step holds the engine's containers and the shared visit state,
    never the engine or a bound method of it, at any depth of nested
    functions: the engine, its functions and their plans form no cycle."""
    source = ROWS["call-arg-local"]
    engine = _Engine(_graph(source), apr_pools_interface(), OPTION_SETS["default"])
    functions = engine._build_plans()
    seen = set()
    stack = [step for meta in functions for step in meta.plan]
    assert stack
    while stack:
        function = stack.pop()
        if id(function) in seen:
            continue
        seen.add(id(function))
        cells = [cell.cell_contents for cell in function.__closure__ or ()]
        for value in cells + list(function.__defaults__ or ()):
            assert value is not engine
            assert getattr(value, "__self__", None) is not engine
            if hasattr(value, "__code__"):
                stack.append(value)
