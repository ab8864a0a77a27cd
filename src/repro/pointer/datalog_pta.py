"""The points-to/effect computation as Datalog rules (Section 5.3).

The paper solves its effect computation on bddbddb; this module states
the context-insensitive core of that computation as Datalog over IR facts
and runs it on :mod:`repro.datalog`.  It covers the full instruction
vocabulary -- copies, address-of, field-offset adds, loads, stores,
call/return bindings, with a null, string-literal or function-address
constant in any operand position -- plus the interface effects
``subregion``, ``ownership``, and ``access``.  Cleanup registrations and
the data flow of implicit calls are not stated.

It is deliberately the *context-insensitive* configuration: Datalog with
explicit context domains reproduces the cloned analysis too, but at toy
scale the value is the executable specification and the cross-check
against the native engine (``tests/pointer/test_datalog_pta.py`` requires
tuple-for-tuple agreement with ``AnalysisOptions(context_sensitive=False,
heap_cloning=False)``), not performance.

Domains: ``V`` variables, ``H`` abstract objects (allocation sites),
``N`` field offsets, ``F`` functions, ``I`` call sites, ``K`` argument
positions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.callgraph import CallGraph
from repro.interfaces import RegionInterface
from repro.ir import (
    Add,
    AddrOf,
    Assign,
    Call,
    FuncAddr,
    Load,
    NullConst,
    Operand,
    Return,
    Store,
    StrConst,
    Temp,
    VarOp,
)
from repro.datalog import Program

__all__ = ["DatalogPTA", "run_datalog_pta"]

# The largest offset the lattice holds, as the native engine's default
# max_field_offset: beyond it an offset is unknown, and dropped.
_OFFSET_BOUND = 1 << 12

RULES = """
# Base points-to: address-of, allocation results, region handles.
vP(v, h) :- newObj(v, h).

# Copies (both whole-object pointers and interior pointers).
vP(v2, h) :- copy(v2, v1), vP(v1, h).
loc(v2, h, n) :- copy(v2, v1), loc(v1, h, n).

# Field-offset arithmetic: locations are (object, offset) pairs; the
# offset lattice is pre-flattened into shiftTo facts per Add instruction.
loc(v, h, n) :- vP(v, h), zero(n).
loc(v2, h, n2) :- shift(v2, v1, d), loc(v1, h, n1), offAdd(n1, d, n2).

# Loads and stores through (object, offset) locations; null and function
# objects hold no fields.  Silent stores (the interface's out-parameter
# writes) update the heap but are not program-level accesses.
hP(h1, n, h2, m) :- store(va, vs), loc(va, h1, n), isStorable(h1), loc(vs, h2, m).
hP(h1, n, h2, m) :- storeSilent(va, vs), loc(va, h1, n), isStorable(h1), loc(vs, h2, m).
loc(v, h2, m) :- load(v, va), loc(va, h1, n), hP(h1, n, h2, m).
vP(v, h) :- loc(v, h, n), zero(n).

# Interprocedural copy edges.
vP(v2, h) :- callEdge(i, f), actual(i, k, v1), formal(f, k, v2), vP(v1, h).
vP(v2, h) :- callEdge(i, f), retdst(i, v2), retsrc(f, v1), vP(v1, h).
loc(v2, h, n) :- callEdge(i, f), actual(i, k, v1), formal(f, k, v2), loc(v1, h, n).
loc(v2, h, n) :- callEdge(i, f), retdst(i, v2), retsrc(f, v1), loc(v1, h, n).

# Region effects.
subregion(r, p) :- createAt(i, r), createParentVar(i, v), vP(v, p), isRegion(p).
subregion(r, p) :- createAt(i, r), createParentRoot(i), root(p).
subregion(r, p) :- createAt(i, r), createParentVar(i, v), vP(v, q), isNull(q), root(p).
ownership(r, h) :- allocAt(i, h), allocRegionVar(i, v), vP(v, r), isRegion(r).
ownership(r, h) :- allocAt(i, h), allocRegionVar(i, v), vP(v, q), isNull(q), root(r).

# Access effect: a normal object storing a pointer to an object/region
# through a *program* store (silent interface writes excluded).
access(h1, n, h2) :-
    store(va, vs), loc(va, h1, n), loc(vs, h2, m),
    isNormal(h1), isTracked(h2).
"""


class DatalogPTA:
    """Facts + solved relations for the Datalog points-to formulation."""

    def __init__(
        self,
        graph: CallGraph,
        interface: RegionInterface,
        backend: str = "set",
    ) -> None:
        self.graph = graph
        self.module = graph.module
        self.interface = interface
        self.backend = backend
        # (kind, site, label); a function object's site is its name.
        self.objects: List[Tuple[str, object, str]] = []
        self._object_index: Dict[Tuple[str, object], int] = {}
        self._variables: Dict[Tuple[str, str], int] = {}
        self._offsets: Set[int] = {0}
        self._deltas: Set[int] = set()
        self.solution = None

    # -- indexing ----------------------------------------------------------

    def _object(self, kind: str, site: object, label: str) -> int:
        key = (kind, site)
        index = self._object_index.get(key)
        if index is None:
            index = len(self.objects)
            self.objects.append((kind, site, label))
            self._object_index[key] = index
        return index

    def _function_object(self, name: str) -> int:
        return self._object("func", name, f"&{name}")

    def _var(self, func: str, operand: Operand) -> Optional[int]:
        if isinstance(operand, Temp):
            key = (func, f"t{operand.id}")
        elif isinstance(operand, VarOp):
            key = ("", operand.name) if operand.kind == "global" else (
                func, operand.name
            )
        else:
            return None
        return self._variables.setdefault(key, len(self._variables))

    # -- fact extraction -----------------------------------------------------

    def solve(self):
        root = self._object("root", 0, "<root>")
        null = self._object("null", -1, "<null>")

        copies: List[Tuple[int, int]] = []
        new_objs: List[Tuple[int, int]] = []
        shifts: List[Tuple[int, int, int]] = []
        loads: List[Tuple[int, int]] = []
        stores: List[Tuple[int, int]] = []
        silent_stores: List[Tuple[int, int]] = []
        creates: List[Tuple[int, int, Optional[int], bool]] = []
        allocs: List[Tuple[int, int, Optional[int]]] = []
        call_edges: List[Tuple[int, int]] = []
        actuals: List[Tuple[int, int, int]] = []
        formals: List[Tuple[int, int, int]] = []
        retsrcs: List[Tuple[int, int]] = []
        retdsts: List[Tuple[int, int]] = []

        functions = sorted(set(self.module.functions) | set(self.module.prototypes))
        f_index = {name: i for i, name in enumerate(functions)}
        call_sites: Dict[int, int] = {}
        max_arity = 1
        stack_sites: Dict[Tuple[str, str], int] = {}

        reachable = {
            name
            for name in self.graph.reachable
            if name in self.module.functions
        }

        def operand(fname: str, instr, position: int, value: Operand):
            """The variable holding ``value``: its own, or for a null,
            string or function-address constant a fresh one that holds
            the constant's object."""
            if isinstance(value, NullConst):
                obj = null
            elif isinstance(value, StrConst):
                obj = self._object("string", value.site, f"str{value.site}")
            elif isinstance(value, FuncAddr):
                obj = self._function_object(value.name)
            else:
                return self._var(fname, value)
            var = self._variables.setdefault(
                (fname, f"__k{instr.uid}.{position}"), len(self._variables)
            )
            new_objs.append((var, obj))
            return var

        for fname in sorted(reachable):
            function = self.module.functions[fname]
            for instr in function.instrs:
                if isinstance(instr, Assign):
                    dst = self._var(fname, instr.dst)
                    if dst is None:
                        continue
                    if isinstance(instr.src, StrConst):
                        obj = self._object(
                            "string", instr.src.site, f"str{instr.src.site}"
                        )
                        new_objs.append((dst, obj))
                    elif isinstance(instr.src, NullConst):
                        new_objs.append((dst, null))
                    elif isinstance(instr.src, FuncAddr):
                        new_objs.append(
                            (dst, self._function_object(instr.src.name))
                        )
                    else:
                        src = self._var(fname, instr.src)
                        if src is not None:
                            copies.append((dst, src))
                elif isinstance(instr, AddrOf):
                    dst = self._var(fname, instr.dst)
                    if dst is None:
                        continue
                    var = instr.var
                    if var.kind == "global":
                        site = stack_sites.setdefault(
                            ("", var.name), instr.uid
                        )
                        obj = self._object("global", site, f"&{var.name}")
                    else:
                        site = stack_sites.setdefault(
                            (fname, var.name), instr.uid
                        )
                        obj = self._object(
                            "stack", site, f"&{fname}.{var.name}"
                        )
                    new_objs.append((dst, obj))
                elif isinstance(instr, Add):
                    dst = self._var(fname, instr.dst)
                    src = operand(fname, instr, 0, instr.base)
                    if dst is None or src is None or instr.offset is None:
                        continue  # paper mode: unknown offsets dropped
                    if instr.offset > _OFFSET_BOUND:
                        continue  # every result is out of range: dropped
                    shifts.append((dst, src, instr.offset))
                    self._deltas.add(instr.offset)
                elif isinstance(instr, Load):
                    dst = self._var(fname, instr.dst)
                    addr = operand(fname, instr, 0, instr.addr)
                    if dst is not None and addr is not None:
                        loads.append((dst, addr))
                elif isinstance(instr, Store):
                    addr = operand(fname, instr, 0, instr.addr)
                    src = operand(fname, instr, 1, instr.src)
                    if addr is not None and src is not None:
                        stores.append((addr, src))
                elif isinstance(instr, Return):
                    if instr.src is not None:
                        src = operand(fname, instr, 0, instr.src)
                        if src is not None:
                            retsrcs.append((f_index[fname], src))
                elif isinstance(instr, Call):
                    site = call_sites.setdefault(instr.uid, len(call_sites))
                    max_arity = max(max_arity, len(instr.args))
                    for target in self.graph.targets(instr.uid):
                        if target in self.interface.creates:
                            spec = self.interface.creates[target]
                            region = self._object(
                                "region", instr.uid, f"{target}@{instr.loc.line}"
                            )
                            parent_var = None
                            parent_root = spec.parent_arg is None
                            if (
                                spec.parent_arg is not None
                                and spec.parent_arg < len(instr.args)
                            ):
                                arg = instr.args[spec.parent_arg]
                                if isinstance(arg, NullConst):
                                    parent_root = True
                                else:
                                    parent_var = self._var(fname, arg)
                            creates.append(
                                (site, region, parent_var, parent_root)
                            )
                            if spec.out_arg is None and instr.dst is not None:
                                dst = self._var(fname, instr.dst)
                                if dst is not None:
                                    new_objs.append((dst, region))
                            elif (
                                spec.out_arg is not None
                                and spec.out_arg < len(instr.args)
                            ):
                                out = self._var(
                                    fname, instr.args[spec.out_arg]
                                )
                                if out is not None:
                                    # *(out) = region: a silent store of a
                                    # fresh temp holding the region.
                                    temp = self._variables.setdefault(
                                        (fname, f"__r{instr.uid}"),
                                        len(self._variables),
                                    )
                                    new_objs.append((temp, region))
                                    silent_stores.append((out, temp))
                        elif target in self.interface.allocs:
                            spec = self.interface.allocs[target]
                            obj = self._object(
                                "heap", instr.uid, f"{target}@{instr.loc.line}"
                            )
                            region_var = None
                            if spec.region_arg < len(instr.args):
                                arg = instr.args[spec.region_arg]
                                if isinstance(arg, NullConst):
                                    region_var = None
                                else:
                                    region_var = self._var(fname, arg)
                            allocs.append((site, obj, region_var))
                            if region_var is None:
                                # Null region: owned by the root.
                                temp = self._variables.setdefault(
                                    (fname, f"__n{instr.uid}"),
                                    len(self._variables),
                                )
                                new_objs.append((temp, null))
                                allocs[-1] = (site, obj, temp)
                            if instr.dst is not None:
                                dst = self._var(fname, instr.dst)
                                if dst is not None:
                                    new_objs.append((dst, obj))
                        elif target in reachable:
                            call_edges.append((site, f_index[target]))
                            callee = self.module.functions[target]
                            for k, arg in enumerate(instr.args):
                                if k >= len(callee.params):
                                    break
                                arg_id = operand(fname, instr, k, arg)
                                if arg_id is not None:
                                    actuals.append((site, k, arg_id))
                            if instr.dst is not None:
                                dst = self._var(fname, instr.dst)
                                if dst is not None:
                                    retdsts.append((site, dst))

        for fname in sorted(reachable):
            function = self.module.functions[fname]
            for k, param in enumerate(function.params):
                formals.append(
                    (
                        f_index[fname],
                        k,
                        self._variables.setdefault(
                            (fname, param), len(self._variables)
                        ),
                    )
                )
                max_arity = max(max_arity, k + 1)

        # Offset lattice: sums of shift deltas reachable from 0.  Closed
        # to a bounded chain depth -- Add chains in straight-line code are
        # short, and the magnitude clamp mirrors the native engine's
        # max_field_offset cutoff (beyond which offsets become unknown and
        # are dropped in paper mode).
        offsets: Set[int] = {0}
        bound = _OFFSET_BOUND
        frontier = {0}
        for _ in range(6):  # max interior-pointer chain depth
            next_frontier: Set[int] = set()
            for base in frontier:
                for delta in self._deltas:
                    total = base + delta
                    if 0 <= total <= bound and total not in offsets:
                        offsets.add(total)
                        next_frontier.add(total)
            if not next_frontier:
                break
            frontier = next_frontier
        offset_list = sorted(offsets)
        offset_index = {offset: i for i, offset in enumerate(offset_list)}
        self.offset_list = offset_list

        program = Program(backend=self.backend)
        program.domain("V", max(len(self._variables), 1))
        program.domain("H", max(len(self.objects), 1))
        program.domain("N", max(len(offset_list), 1))
        program.domain("F", max(len(functions), 1))
        program.domain("I", max(len(call_sites), 1))
        program.domain("K", max(max_arity, 1))
        for name, domains in [
            ("newObj", ["V", "H"]), ("copy", ["V", "V"]),
            ("shift", ["V", "V", "N"]), ("offAdd", ["N", "N", "N"]),
            ("zero", ["N"]), ("load", ["V", "V"]), ("store", ["V", "V"]),
            ("storeSilent", ["V", "V"]),
            ("callEdge", ["I", "F"]), ("actual", ["I", "K", "V"]),
            ("formal", ["F", "K", "V"]), ("retsrc", ["F", "V"]),
            ("retdst", ["I", "V"]),
            ("createAt", ["I", "H"]), ("createParentVar", ["I", "V"]),
            ("createParentRoot", ["I"]),
            ("allocAt", ["I", "H"]), ("allocRegionVar", ["I", "V"]),
            ("isRegion", ["H"]), ("isNull", ["H"]), ("isNormal", ["H"]),
            ("isTracked", ["H"]), ("isStorable", ["H"]), ("root", ["H"]),
            ("vP", ["V", "H"]), ("loc", ["V", "H", "N"]),
            ("hP", ["H", "N", "H", "N"]),
            ("subregion", ["H", "H"]), ("ownership", ["H", "H"]),
            ("access", ["H", "N", "H"]),
        ]:
            program.relation(name, domains)
        program.rules(RULES)

        program.fact("zero", offset_index[0])
        for n1 in offset_list:
            for delta in self._deltas:
                total = n1 + delta
                if total in offset_index:
                    program.fact(
                        "offAdd",
                        offset_index[n1],
                        offset_index[delta],
                        offset_index[total],
                    )
        for dst, src in copies:
            program.fact("copy", dst, src)
        for dst, obj in new_objs:
            program.fact("newObj", dst, obj)
        for dst, src, delta in shifts:
            program.fact("shift", dst, src, offset_index[delta])
        for dst, addr in loads:
            program.fact("load", dst, addr)
        for addr, src in stores:
            program.fact("store", addr, src)
        for addr, src in silent_stores:
            program.fact("storeSilent", addr, src)
        for site, target in call_edges:
            program.fact("callEdge", site, target)
        for site, k, var in actuals:
            program.fact("actual", site, k, var)
        for func, k, var in formals:
            program.fact("formal", func, k, var)
        for func, var in retsrcs:
            program.fact("retsrc", func, var)
        for site, var in retdsts:
            program.fact("retdst", site, var)
        for site, region, parent_var, parent_root in creates:
            program.fact("createAt", site, region)
            if parent_var is not None:
                program.fact("createParentVar", site, parent_var)
            if parent_root:
                program.fact("createParentRoot", site)
        for site, obj, region_var in allocs:
            program.fact("allocAt", site, obj)
            if region_var is not None:
                program.fact("allocRegionVar", site, region_var)
        for index, (kind, _, _) in enumerate(self.objects):
            if kind in ("region", "root"):
                program.fact("isRegion", index)
            if kind == "null":
                program.fact("isNull", index)
            if kind in ("heap", "stack", "global", "string"):
                program.fact("isNormal", index)
            if kind in ("heap", "stack", "global", "string", "region", "root"):
                program.fact("isTracked", index)
            if kind not in ("null", "func"):
                program.fact("isStorable", index)
        program.fact("root", root)

        self.solution = program.solve()
        return self

    # -- result views --------------------------------------------------------

    @property
    def stats(self):
        """:class:`~repro.datalog.SolverStats` of the solve, or None."""
        return None if self.solution is None else self.solution.stats

    def _label(self, index: int) -> str:
        return self.objects[index][2]

    def subregion_labels(self) -> Set[Tuple[str, str]]:
        assert self.solution is not None
        return {
            (self._label(a), self._label(b))
            for a, b in self.solution.tuples("subregion")
            if a != b
        }

    def ownership_labels(self) -> Set[Tuple[str, str]]:
        assert self.solution is not None
        return {
            (self._label(a), self._label(b))
            for a, b in self.solution.tuples("ownership")
        }

    def access_labels(self) -> Set[Tuple[str, int, str]]:
        assert self.solution is not None
        return {
            (self._label(a), self.offset_list[n], self._label(b))
            for a, n, b in self.solution.tuples("access")
        }


def run_datalog_pta(
    graph: CallGraph, interface: RegionInterface, backend: str = "set"
) -> DatalogPTA:
    """Extract facts, solve the Section 5.3 rules, return the result."""
    return DatalogPTA(graph, interface, backend).solve()
