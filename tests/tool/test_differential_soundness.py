"""Differential soundness: random C region programs, runtime vs static.

Composite Hypothesis strategies build random but *runtime-valid* APR
programs (pool creation with random parents, allocation from live pools,
inter-object pointer stores, pool destruction in random order).  Each
program is executed on the region runtime (ground truth) and analyzed
with RegionWiz.  The soundness property:

    a run that creates an object-to-object dangling pointer
    (``dangling-created``) implies at least one static warning.

Two program classes are drawn.  ``region_programs`` is straight-line
code in one procedure.  ``helper_programs`` spreads the same ops over
2-4 helper functions, called from several sites, directly and through
function pointers, with pools and objects passed as arguments and
returned, plus registered APR cleanups; its property is checked under
every sound :class:`AnalysisOptions` set.  Both classes are loop-free
and spawn-free, and every allocation or pool-creation site runs at most
once, so no abstract object stands for two concrete ones (the
loop-site merging gap) and no context is clamped: the property must hold
unconditionally.  Faults *through stack cells* (``dangling-deref`` on
locals) are outside the paper's object model and excluded on purpose.
"""

from hypothesis import example, given, settings, strategies as st

from repro.interfaces import APR_HEADER, apr_pools_interface
from repro.lang import analyze, parse
from repro.pointer import AnalysisOptions
from repro.runtime import run_program
from repro.tool import run_regionwiz

PRELUDE = APR_HEADER + """
struct payload { struct payload *link; int tag; };
"""


@st.composite
def region_programs(draw):
    """A valid op sequence rendered to C, with liveness tracked so the
    program never allocates from or re-destroys a dead pool."""
    ops = []
    pools = []          # pool index -> parent index (None = root)
    alive = []          # pool index -> bool
    objects = []        # object index -> pool index
    num_ops = draw(st.integers(min_value=4, max_value=22))

    def live_pools():
        return [i for i, is_alive in enumerate(alive) if is_alive]

    def kill(pool):
        alive[pool] = False
        for child, parent in enumerate(pools):
            if parent == pool and alive[child]:
                kill(child)

    for _ in range(num_ops):
        candidates = ["create"]
        if live_pools():
            candidates += ["alloc", "destroy"]
        if len(objects) >= 2:
            candidates += ["store", "store", "copy"]  # stores weighted up
        op = draw(st.sampled_from(candidates))
        if op == "create":
            parent_options = [None] + live_pools()
            parent = draw(st.sampled_from(parent_options))
            pools.append(parent)
            alive.append(True)
            ops.append(("create", len(pools) - 1, parent))
        elif op == "alloc":
            pool = draw(st.sampled_from(live_pools()))
            objects.append(pool)
            ops.append(("alloc", len(objects) - 1, pool))
        elif op == "destroy":
            pool = draw(st.sampled_from(live_pools()))
            kill(pool)
            ops.append(("destroy", pool))
        elif op == "store":
            source = draw(st.integers(0, len(objects) - 1))
            target = draw(st.integers(0, len(objects) - 1))
            ops.append(("store", source, target))
        elif op == "copy":
            source = draw(st.integers(0, len(objects) - 1))
            target = draw(st.integers(0, len(objects) - 1))
            ops.append(("copy", source, target))
    return render(ops, len(pools), len(objects))


def render(ops, num_pools, num_objects):
    lines = ["int main(void) {"]
    for index in range(num_pools):
        lines.append(f"    apr_pool_t *p{index};")
    for index in range(num_objects):
        lines.append(f"    struct payload *o{index} = NULL;")
    for op in ops:
        if op[0] == "create":
            _, pool, parent = op
            parent_text = "NULL" if parent is None else f"p{parent}"
            lines.append(f"    apr_pool_create(&p{pool}, {parent_text});")
        elif op[0] == "alloc":
            _, obj, pool = op
            lines.append(
                f"    o{obj} = apr_palloc(p{pool}, sizeof(struct payload));"
            )
        elif op[0] == "destroy":
            lines.append(f"    apr_pool_destroy(p{op[1]});")
        elif op[0] == "store":
            _, source, target = op
            lines.append(f"    if (o{source}) o{source}->link = o{target};")
        elif op[0] == "copy":
            _, source, target = op
            lines.append(f"    o{target} = o{source};")
    lines.append("    return 0;")
    lines.append("}")
    return PRELUDE + "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(region_programs())
def test_runtime_dangling_implies_static_warning(source):
    sema = analyze(parse(source))
    execution = run_program(sema, apr_pools_interface())
    created = [
        fault for fault in execution.faults if fault.kind == "dangling-created"
    ]
    if not created:
        return
    report = run_regionwiz(source, name="differential")
    assert report.warnings, (
        "runtime dangling pointer without a static warning:\n"
        + source
        + "\nfaults:\n"
        + "\n".join(str(fault) for fault in created)
    )


@settings(max_examples=60, deadline=None)
@given(region_programs())
def test_static_clean_implies_no_object_dangling(source):
    """The converse direction on this restricted program class: with
    whole-program knowledge, straight-line code, and exact (singleton)
    parent resolution, a consistent verdict means the concrete run cannot
    create object-to-object dangling pointers."""
    report = run_regionwiz(source, name="differential")
    if not report.is_consistent:
        return
    sema = analyze(parse(source))
    execution = run_program(sema, apr_pools_interface())
    created = [
        fault for fault in execution.faults if fault.kind == "dangling-created"
    ]
    assert not created, (
        "statically consistent program faulted at runtime:\n"
        + source
        + "\nfaults:\n"
        + "\n".join(str(fault) for fault in created)
    )


# ---------------------------------------------------------------------------
# Interprocedural programs: helpers, function pointers, cleanups
# ---------------------------------------------------------------------------

#: Every sound option set; the property must hold under each.
SOUND_OPTIONS = {
    "default": AnalysisOptions(),
    "context_insensitive": AnalysisOptions(context_sensitive=False),
    "no_heap_cloning": AnalysisOptions(heap_cloning=False),
    "field_insensitive": AnalysisOptions(field_sensitive=False),
    "unknown_offsets": AnalysisOptions(track_unknown_offsets=True),
}

#: Helper kind -> (C definition, function-pointer declarator format).
#: ``mk_pool`` and ``mk_obj`` hold an allocation site, so each is called
#: at most once per program; the others may be called from any number
#: of sites.
HELPERS = {
    "mk_pool": (
        "apr_pool_t *mk_pool(apr_pool_t *parent) {\n"
        "    apr_pool_t *p;\n"
        "    apr_pool_create(&p, parent);\n"
        "    return p;\n"
        "}",
        "apr_pool_t *(*{})(apr_pool_t *)",
    ),
    "mk_obj": (
        "struct payload *mk_obj(apr_pool_t *pool) {\n"
        "    return apr_palloc(pool, sizeof(struct payload));\n"
        "}",
        "struct payload *(*{})(apr_pool_t *)",
    ),
    "kill": (
        "void kill(apr_pool_t *pool) {\n"
        "    apr_pool_destroy(pool);\n"
        "}",
        "void (*{})(apr_pool_t *)",
    ),
    "link_to": (
        "void link_to(struct payload *from, struct payload *to) {\n"
        "    if (from) from->link = to;\n"
        "}",
        "void (*{})(struct payload *, struct payload *)",
    ),
    "pick": (
        "struct payload *pick(struct payload *o) {\n"
        "    return o;\n"
        "}",
        "struct payload *(*{})(struct payload *)",
    ),
    "guard": (
        "void guard(apr_pool_t *pool, struct payload *o) {\n"
        "    apr_pool_cleanup_register(pool, o, on_cleanup, NULL);\n"
        "}",
        "void (*{})(apr_pool_t *, struct payload *)",
    ),
}

#: The op each helper performs.
HELPER_OF = {
    "create": "mk_pool",
    "alloc": "mk_obj",
    "destroy": "kill",
    "store": "link_to",
    "copy": "pick",
    "cleanup": "guard",
}

#: Run when its pool dies: the object the data object points to gets a
#: pointer back to the data object, which dangles once the data object's
#: pool is gone.
ON_CLEANUP = """apr_status_t on_cleanup(void *data) {
    struct payload *d = data;
    if (d) {
        struct payload *t = d->link;
        if (t) t->link = d;
    }
    return 0;
}"""


@st.composite
def helper_programs(draw):
    """A valid op sequence over 2-4 helpers, rendered to C.

    Each op is written inline, as a direct helper call, or as a call
    through a function pointer.  Liveness is tracked as in
    :func:`region_programs`; a cleanup is registered on the live pool
    that owns its data object.
    """
    helpers = draw(
        st.lists(st.sampled_from(sorted(HELPERS)), min_size=2, max_size=4,
                 unique=True)
    )
    used_once = set()
    ops = []
    pools = []
    alive = []
    objects = []
    num_ops = draw(st.integers(min_value=6, max_value=24))

    def live_pools():
        return [i for i, is_alive in enumerate(alive) if is_alive]

    def kill(pool):
        alive[pool] = False
        for child, parent in enumerate(pools):
            if parent == pool and alive[child]:
                kill(child)

    def route(op):
        helper = HELPER_OF[op]
        if helper not in helpers or helper in used_once:
            return "inline", helper
        how = draw(st.sampled_from(("direct", "pointer", "inline")))
        if how != "inline" and helper in ("mk_pool", "mk_obj"):
            used_once.add(helper)
        return how, helper

    for _ in range(num_ops):
        candidates = ["create"]
        if live_pools():
            candidates += ["alloc", "alloc", "destroy"]
        if any(alive[pool] for pool in objects):
            candidates += ["cleanup"]
        if len(objects) >= 2:
            candidates += ["store", "store", "store", "copy"]
        op = draw(st.sampled_from(candidates))
        if op == "create":
            parent = draw(st.sampled_from([None] + live_pools()))
            pools.append(parent)
            alive.append(True)
            ops.append((route(op), op, len(pools) - 1, parent))
        elif op == "alloc":
            pool = draw(st.sampled_from(live_pools()))
            objects.append(pool)
            ops.append((route(op), op, len(objects) - 1, pool))
        elif op == "destroy":
            pool = draw(st.sampled_from(live_pools()))
            kill(pool)
            ops.append((route(op), op, pool))
        elif op == "cleanup":
            # APR's idiom: the cleanup goes on the pool that owns its data.
            data = draw(
                st.sampled_from(
                    [obj for obj, pool in enumerate(objects) if alive[pool]]
                )
            )
            ops.append((route(op), op, objects[data], data))
        else:  # store, copy
            source = draw(st.integers(0, len(objects) - 1))
            target = draw(st.integers(0, len(objects) - 1))
            ops.append((route(op), op, source, target))
    return render_with_helpers(helpers, ops, len(pools), len(objects))


def _call(how, helper, args):
    name = f"fp_{helper}" if how == "pointer" else helper
    return f"{name}({', '.join(args)})"


def render_with_helpers(helpers, ops, num_pools, num_objects):
    lines = [ON_CLEANUP]
    lines += [HELPERS[helper][0] for helper in sorted(helpers)]
    lines.append("int main(void) {")
    for helper in sorted(helpers):
        declarator = HELPERS[helper][1].format(f"fp_{helper}")
        lines.append(f"    {declarator} = {helper};")
    for index in range(num_pools):
        lines.append(f"    apr_pool_t *p{index};")
    for index in range(num_objects):
        lines.append(f"    struct payload *o{index} = NULL;")
    for (how, helper), op, *args in ops:
        if op == "create":
            pool, parent = args
            parent_text = "NULL" if parent is None else f"p{parent}"
            if how == "inline":
                text = f"apr_pool_create(&p{pool}, {parent_text})"
            else:
                text = f"p{pool} = " + _call(how, helper, [parent_text])
        elif op == "alloc":
            obj, pool = args
            if how == "inline":
                text = f"o{obj} = apr_palloc(p{pool}, sizeof(struct payload))"
            else:
                text = f"o{obj} = " + _call(how, helper, [f"p{pool}"])
        elif op == "destroy":
            (pool,) = args
            if how == "inline":
                text = f"apr_pool_destroy(p{pool})"
            else:
                text = _call(how, helper, [f"p{pool}"])
        elif op == "cleanup":
            pool, data = args
            if how == "inline":
                text = (
                    f"apr_pool_cleanup_register(p{pool}, o{data},"
                    " on_cleanup, NULL)"
                )
            else:
                text = _call(how, helper, [f"p{pool}", f"o{data}"])
        elif op == "store":
            source, target = args
            if how == "inline":
                text = f"if (o{source}) o{source}->link = o{target}"
            else:
                text = _call(how, helper, [f"o{source}", f"o{target}"])
        else:  # copy
            source, target = args
            if how == "inline":
                text = f"o{target} = o{source}"
            else:
                text = f"o{target} = " + _call(how, helper, [f"o{source}"])
        lines.append(f"    {text};")
    lines.append("    return 0;")
    lines.append("}")
    return PRELUDE + "\n".join(lines)


#: A dangle only a cleanup makes: o1 (child pool p1) points up to o0
#: (parent pool p0), which is safe; the cleanup run by destroying p1 makes
#: o0 point back down at o1, which then dies.  Random draws seldom line
#: this up, so it is always run.
CLEANUP_DANGLE = render_with_helpers(
    ["guard", "kill"],
    [
        (("inline", "mk_pool"), "create", 0, None),
        (("inline", "mk_pool"), "create", 1, 0),
        (("inline", "mk_obj"), "alloc", 0, 0),
        (("inline", "mk_obj"), "alloc", 1, 1),
        (("inline", "link_to"), "store", 1, 0),
        (("pointer", "guard"), "cleanup", 1, 1),
        (("direct", "kill"), "destroy", 1),
    ],
    num_pools=2,
    num_objects=2,
)


@settings(max_examples=60, deadline=None)
@example(CLEANUP_DANGLE)
@given(helper_programs())
def test_runtime_dangling_implies_static_warning_across_calls(source):
    sema = analyze(parse(source))
    execution = run_program(sema, apr_pools_interface())
    created = [
        fault for fault in execution.faults if fault.kind == "dangling-created"
    ]
    if not created:
        return
    for option_set, options in SOUND_OPTIONS.items():
        report = run_regionwiz(source, name="differential", options=options)
        assert report.warnings, (
            f"runtime dangling pointer without a static warning"
            f" under {option_set}:\n"
            + source
            + "\nfaults:\n"
            + "\n".join(str(fault) for fault in created)
        )
