"""Call graph construction expressed as Datalog rules (Section 5.1).

"The algorithm for call graph construction is expressed as Datalog rules
and solved using the bddbddb deductive database over such IR
instructions."  This module is that formulation: IR facts are extracted
into input relations and the ``vF``/``call``/``reach`` computation runs on
the :mod:`repro.datalog` solver (either backend).  The native worklist
builder in :mod:`repro.callgraph.builder` is the production path; a test
cross-checks the two edge-for-edge.

Relations (domains ``I`` call sites, ``F`` functions, ``V`` variables):

* inputs -- ``assign(v2, v1)``, ``assignF(v, f)`` (function-address
  assignment), ``callsite(i, v)`` (indirect callee var), ``direct(i, f)``,
  ``actual(i, k, v)``, ``formal(f, k, v)``, ``retsrc(f, v)``,
  ``retdst(i, v)``, ``inFunc(i, f)``, ``storeF(v)``/``loadDst(v)``
  (escape analysis), ``implicitArg(i, k)``, ``entry(f)``;
* derived -- ``vF(v, f)``, ``call(i, f)``, ``reach(f)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.callgraph.builder import CallGraph
from repro.callgraph.implicit import ImplicitCallRegistry, default_registry
from repro.datalog import Program
from repro.ir import (
    Add,
    Assign,
    Call,
    FuncAddr,
    GLOBAL_INIT,
    IRModule,
    Load,
    Operand,
    Return,
    Store,
    Temp,
    VarOp,
)

__all__ = ["build_call_graph_datalog"]

RULES = """
# Function-pointer propagation along assignments.
vF(v2, f) :- assign(v2, v1), vF(v1, f).
vF(v, f)  :- assignF(v, f).

# Escaped function pointers may be loaded back anywhere.
escaped(f) :- storeF(v), vF(v, f).
vF(v, f)   :- loadDst(v), escaped(f).

# Call edges: direct, and indirect through vF.
call(i, f) :- direct(i, f).
call(i, f) :- callsite(i, v), vF(v, f).

# Interprocedural propagation through resolved edges.
vF(v2, f) :- call(i, g), actual(i, k, v1), formal(g, k, v2), vF(v1, f).
vF(v2, f) :- call(i, g), actualF(i, k, f), formal(g, k, v2).
vF(v2, f) :- call(i, g), retdst(i, v2), retsrc(g, v1), vF(v1, f).
vF(v2, f) :- call(i, g), retdst(i, v2), retsrcF(g, f).

# Implicit calls: the entry-function argument is invoked by the system.
call(i, f) :- call(i, g), implicitAt(g, k), actual(i, k, v), vF(v, f).
call(i, f) :- call(i, g), implicitAt(g, k), actualF(i, k, f).

# Reachability from the program entries.
reach(f) :- entry(f).
reach(g) :- reach(f), inFunc(i, f), call(i, g).
"""


def _collect_facts(module: IRModule, registry: ImplicitCallRegistry):
    """Index the module into dense fact tables."""
    functions: List[str] = sorted(
        set(module.functions) | set(module.prototypes)
    )
    f_index = {name: i for i, name in enumerate(functions)}

    variables: Dict[Tuple[str, str], int] = {}

    def var_id(func: str, operand: Operand) -> Optional[int]:
        if isinstance(operand, Temp):
            key = (func, f"t{operand.id}")
        elif isinstance(operand, VarOp):
            key = ("", operand.name) if operand.kind == "global" else (
                func, operand.name
            )
        else:
            return None
        return variables.setdefault(key, len(variables))

    calls: List[Tuple[str, Call]] = []
    facts: Dict[str, List[Tuple[int, ...]]] = {
        "assign": [], "assignF": [], "callsite": [], "direct": [],
        "actual": [], "actualF": [], "formal": [], "retsrc": [],
        "retsrcF": [], "retdst": [], "inFunc": [], "storeF": [], "loadDst": [],
        "implicitAt": [], "entry": [],
    }

    max_arity = 0
    for fname, instr in module.all_instrs():
        if isinstance(instr, Call):
            calls.append((fname, instr))
            max_arity = max(max_arity, len(instr.args))

    i_index = {instr.uid: i for i, (_, instr) in enumerate(calls)}

    for fname, instr in module.all_instrs():
        if isinstance(instr, Assign) or isinstance(instr, Add):
            src = instr.src if isinstance(instr, Assign) else instr.base
            dst_id = var_id(fname, instr.dst)
            if dst_id is None:
                continue
            if isinstance(src, FuncAddr):
                facts["assignF"].append((dst_id, f_index[src.name]))
            else:
                src_id = var_id(fname, src)
                if src_id is not None:
                    facts["assign"].append((dst_id, src_id))
        elif isinstance(instr, Store):
            if isinstance(instr.src, FuncAddr):
                # Model as a store of a temp holding the function.
                temp = var_id(fname, Temp(10_000_000 + instr.uid))
                facts["assignF"].append((temp, f_index[instr.src.name]))
                facts["storeF"].append((temp,))
            else:
                src_id = var_id(fname, instr.src)
                if src_id is not None:
                    facts["storeF"].append((src_id,))
        elif isinstance(instr, Load):
            dst_id = var_id(fname, instr.dst)
            if dst_id is not None:
                facts["loadDst"].append((dst_id,))

    for fname, instr in calls:
        site = i_index[instr.uid]
        facts["inFunc"].append((site, f_index[fname]))
        if isinstance(instr.callee, FuncAddr):
            facts["direct"].append((site, f_index[instr.callee.name]))
        else:
            callee_id = var_id(fname, instr.callee)
            if callee_id is not None:
                facts["callsite"].append((site, callee_id))
        for position, arg in enumerate(instr.args):
            if isinstance(arg, FuncAddr):
                facts["actualF"].append((site, position, f_index[arg.name]))
            else:
                arg_id = var_id(fname, arg)
                if arg_id is not None:
                    facts["actual"].append((site, position, arg_id))
        if instr.dst is not None:
            dst_id = var_id(fname, instr.dst)
            if dst_id is not None:
                facts["retdst"].append((site, dst_id))

    for name, function in module.functions.items():
        for position, param in enumerate(function.params):
            facts["formal"].append(
                (f_index[name], position, variables.setdefault(
                    (name, param), len(variables)
                ))
            )
            max_arity = max(max_arity, position + 1)
        for instr in function.instrs:
            if isinstance(instr, Return) and instr.src is not None:
                if isinstance(instr.src, FuncAddr):
                    facts["retsrcF"].append(
                        (f_index[name], f_index[instr.src.name])
                    )
                else:
                    src_id = var_id(name, instr.src)
                    if src_id is not None:
                        facts["retsrc"].append((f_index[name], src_id))

    for target, specs in registry.entries.items():
        if target in f_index:
            for spec in specs:
                facts["implicitAt"].append((f_index[target], spec.fn_arg))
                max_arity = max(max_arity, spec.fn_arg + 1)

    return functions, f_index, variables, calls, i_index, facts, max_arity


def build_call_graph_datalog(
    module: IRModule,
    entry: str = "main",
    registry: Optional[ImplicitCallRegistry] = None,
    backend: str = "set",
    stats_out: Optional[List] = None,
) -> CallGraph:
    """Solve the Section 5.1 rules and package the result as a CallGraph.

    When ``stats_out`` is given, the solve's
    :class:`~repro.datalog.SolverStats` is appended to it (the returned
    ``CallGraph`` is a plain dataclass with no slot for telemetry).
    """
    if registry is None:
        registry = default_registry()
    (functions, f_index, variables, calls, i_index, facts, max_arity) = (
        _collect_facts(module, registry)
    )

    program = Program(backend=backend)
    program.domain("F", max(len(functions), 1))
    program.domain("I", max(len(calls), 1))
    program.domain("V", max(len(variables), 1))
    program.domain("K", max(max_arity, 1))
    program.relation("assign", ["V", "V"])
    program.relation("assignF", ["V", "F"])
    program.relation("callsite", ["I", "V"])
    program.relation("direct", ["I", "F"])
    program.relation("actual", ["I", "K", "V"])
    program.relation("actualF", ["I", "K", "F"])
    program.relation("formal", ["F", "K", "V"])
    program.relation("retsrc", ["F", "V"])
    program.relation("retsrcF", ["F", "F"])
    program.relation("retdst", ["I", "V"])
    program.relation("inFunc", ["I", "F"])
    program.relation("storeF", ["V"])
    program.relation("loadDst", ["V"])
    program.relation("implicitAt", ["F", "K"])
    program.relation("entry", ["F"])
    program.relation("vF", ["V", "F"])
    program.relation("escaped", ["F"])
    program.relation("call", ["I", "F"])
    program.relation("reach", ["F"])
    program.rules(RULES)

    for name, tuples in facts.items():
        for values in tuples:
            program.fact(name, *values)
    for root in (entry, GLOBAL_INIT):
        if root in f_index:
            program.fact("entry", f_index[root])

    solution = program.solve()
    if stats_out is not None:
        stats_out.append(solution.stats)

    uid_of_site = {i: instr.uid for (_, instr), i in zip(calls, i_index.values())}
    # (i_index preserves enumeration order, but be explicit:)
    uid_of_site = {i_index[instr.uid]: instr.uid for _, instr in calls}

    edges: Dict[int, set] = {}
    implicit_edges: Dict[int, set] = {}
    implicit_positions = {
        f_index[name]: {spec.fn_arg for spec in specs}
        for name, specs in registry.entries.items()
        if name in f_index
    }
    direct_or_indirect = {
        (site, func) for site, func in solution.tuples("direct")
    }
    vf_solution = solution.tuples("vF")
    vf_by_var: Dict[int, set] = {}
    for var, func in vf_solution:
        vf_by_var.setdefault(var, set()).add(func)
    callsites = dict(solution.tuples("callsite"))
    for site, func in callsites.items():
        for target in vf_by_var.get(func, ()):
            direct_or_indirect.add((site, target))

    for site, func in solution.tuples("call"):
        uid = uid_of_site[site]
        name = functions[func]
        if (site, func) in direct_or_indirect:
            edges.setdefault(uid, set()).add(name)
        else:
            implicit_edges.setdefault(uid, set()).add(name)

    reachable = {functions[f] for (f,) in solution.tuples("reach")}

    vf: Dict[Tuple[str, str], frozenset] = {}
    index_to_key = {index: key for key, index in variables.items()}
    for var, func in vf_solution:
        key = index_to_key[var]
        vf.setdefault(key, set()).add(functions[func])  # type: ignore[arg-type]

    return CallGraph(
        module=module,
        entry=entry,
        edges={uid: frozenset(t) for uid, t in edges.items()},
        implicit_edges={
            uid: frozenset(t) for uid, t in implicit_edges.items()
        },
        reachable=frozenset(reachable),
        vf={key: frozenset(funcs) for key, funcs in vf.items()},
        registry=registry,
    )
