"""Context-insensitive call graph construction (Section 5.1).

Computes ``call : I x F`` -- for each CALL instruction, the set of possible
target functions -- from three sources:

* **direct calls**: the callee operand is a function address;
* **indirect calls**: the paper's ``vF : V x F`` set, seeded by
  function-address assignments and propagated along intraprocedural
  assignments and interprocedural call/return edges until convergence.
  Function pointers that *escape* into memory (stored through a pointer,
  e.g. into a struct field or a global table) are handled conservatively:
  any value loaded from memory may be any escaped function;
* **implicit calls**: thread-creation and callback-registration functions
  from the :mod:`repro.callgraph.implicit` registry contribute an extra
  edge from the call instruction to the entry-function argument.

Finally a reachability pass from the entry point (plus the synthetic
``_global_init``) prunes functions never called directly or indirectly
from ``main``, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Union

from repro.callgraph.implicit import ImplicitCallRegistry, default_registry
from repro.obs.hub import trace_span
from repro.util.budget import BudgetMeter
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

__all__ = ["CallGraph", "build_call_graph"]

# A variable key: (owning function, name).  Globals use owner "".
VarKey = Tuple[str, str]

_NO_TARGETS: FrozenSet[str] = frozenset()


def _operand_key(func: str, operand: Operand) -> Optional[VarKey]:
    if isinstance(operand, Temp):
        return (func, f"t{operand.id}")
    if isinstance(operand, VarOp):
        if operand.kind == "global":
            return ("", operand.name)
        return (func, operand.name)
    return None


@dataclass
class CallGraph:
    """The result: per-call-site targets plus derived indexes."""

    module: IRModule
    entry: str
    edges: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    implicit_edges: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    reachable: FrozenSet[str] = frozenset()
    vf: Dict[VarKey, FrozenSet[str]] = field(default_factory=dict)
    #: The implicit-call knowledge the graph was built with; the pointer
    #: analysis reads its data-flow specs from here, so a caller's custom
    #: registry reaches every phase.
    registry: ImplicitCallRegistry = field(
        default_factory=default_registry, repr=False, compare=False
    )
    _targets: Dict[int, FrozenSet[str]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Merge each site's direct and implicit targets once: the pointer
        # analysis asks for them on every visit of every call.
        self._targets = dict(self.edges)
        for uid, implicit in self.implicit_edges.items():
            direct = self._targets.get(uid)
            self._targets[uid] = implicit if direct is None else direct | implicit

    def targets(self, uid: int) -> FrozenSet[str]:
        """All targets of a call instruction (direct+indirect+implicit)."""
        return self._targets.get(uid, _NO_TARGETS)

    def callers_of(self, name: str) -> List[int]:
        return [
            uid
            for uid, targets in self.edges.items()
            if name in targets
        ] + [
            uid
            for uid, targets in self.implicit_edges.items()
            if name in targets and name not in self.edges.get(uid, frozenset())
        ]

    def successors(self) -> Dict[str, Set[str]]:
        """Function-level successor map over *reachable, defined* functions."""
        result: Dict[str, Set[str]] = {name: set() for name in self.reachable}
        for name in self.reachable:
            function = self.module.functions.get(name)
            if function is None:
                continue
            for call in function.calls():
                for target in self.targets(call.uid):
                    if target in self.reachable:
                        result[name].add(target)
        return result

    @property
    def num_edges(self) -> int:
        return sum(len(t) for t in self.edges.values()) + sum(
            len(t) for t in self.implicit_edges.values()
        )


# A node of the worklist: a variable's VarKey, ``(function,)`` for a
# function's return value, a call uid for that site's implicit entries,
# or ``()`` for the functions that escaped into memory.
_Node = Union[VarKey, Tuple[str], int, Tuple[()]]
_ESCAPED: _Node = ()


class _Builder:
    """The call graph in one walk over the IR plus a worklist.

    The walk collects every fact the ``vF`` propagation reads: the
    function-address seeds, the copy edges (assignments and pointer
    adds), the escaping stores and the load destinations, the call sites
    and the return operands.  Each is a copy edge between two
    :data:`_Node` values or a function seeded into one; a copy edge
    unions its source's function set into its destination.  A call site
    watches its callee's node: each function that reaches it becomes a
    target, and the target's parameters, return value and registry
    entry positions get their copy edges then.  The worklist runs to the
    least fixpoint of those rules.
    """

    def __init__(
        self,
        module: IRModule,
        entry: str,
        registry: ImplicitCallRegistry,
        meter: Optional[BudgetMeter] = None,
    ) -> None:
        self.module = module
        self.entry = entry
        self.registry = registry
        self.meter = meter
        self.edges: Dict[int, Set[str]] = {}
        self.implicit_edges: Dict[int, Set[str]] = {}
        # Per node: its functions (if any) and the nodes it copies into.
        self._funcs: Dict[_Node, Set[str]] = {}
        self._copies: Dict[_Node, List[_Node]] = {}
        # Callee node -> the call sites it names, as (caller, instr).
        self._watchers: Dict[_Node, List[Tuple[str, Call]]] = {}
        self._worklist: List[_Node] = []

    # ------------------------------------------------------------------

    def run(self) -> CallGraph:
        with trace_span("callgraph.fixpoint") as span:
            if self.meter is not None:
                self.meter.checkpoint("call-graph")
            self._collect()
            iterations = self._propagate()
            vf: Dict[VarKey, FrozenSet[str]] = {}
            for node, funcs in self._funcs.items():
                if node.__class__ is int:
                    self.implicit_edges[node] = funcs
                elif len(node) == 2:
                    vf[node] = frozenset(funcs)
            reachable = self._compute_reachable()
            span.set(iterations=iterations, reachable=len(reachable))
        return CallGraph(
            module=self.module,
            entry=self.entry,
            edges={uid: frozenset(t) for uid, t in self.edges.items()},
            implicit_edges={
                uid: frozenset(t) for uid, t in self.implicit_edges.items()
            },
            reachable=frozenset(reachable),
            vf=vf,
            registry=self.registry,
        )

    # ------------------------------------------------------------------
    # The walk and the worklist
    # ------------------------------------------------------------------

    def _add(self, node: _Node, funcs: Iterable[str]) -> None:
        bucket = self._funcs.get(node)
        if bucket is None:
            bucket = self._funcs[node] = set()
        before = len(bucket)
        bucket.update(funcs)
        if len(bucket) != before:
            self._worklist.append(node)

    def _flow(self, func: str, operand: Operand, node: _Node) -> None:
        """Whatever functions ``operand`` denotes flow into ``node``:
        its function now, or its variable's set from now on."""
        if isinstance(operand, FuncAddr):
            self._add(node, (operand.name,))
            return
        source = _operand_key(func, operand)
        if source is not None:
            self._copies.setdefault(source, []).append(node)
            if source in self._funcs:
                self._add(node, self._funcs[source])

    def _collect(self) -> None:
        for fname, instr in self.module.all_instrs():
            cls = instr.__class__
            if cls is Assign or cls is Add:
                # A pointer-offset copy preserves the function set (covers
                # &table[i]-style indexing of function-pointer arrays).
                dst = _operand_key(fname, instr.dst)
                if dst is not None:
                    source = instr.src if cls is Assign else instr.base
                    self._flow(fname, source, dst)
            elif cls is Store:
                # Escaped functions may be loaded back from anywhere.
                self._flow(fname, instr.src, _ESCAPED)
            elif cls is Load:
                dst = _operand_key(fname, instr.dst)
                if dst is not None:
                    self._copies.setdefault(_ESCAPED, []).append(dst)
            elif cls is Return:
                if instr.src is not None:
                    self._flow(fname, instr.src, (fname,))
            elif cls is Call:
                self.edges[instr.uid] = set()
                if isinstance(instr.callee, FuncAddr):
                    self._target(fname, instr, instr.callee.name)
                else:
                    callee = _operand_key(fname, instr.callee)
                    if callee is not None:
                        self._watchers.setdefault(callee, []).append(
                            (fname, instr)
                        )

    def _propagate(self) -> int:
        """Run the worklist dry; returns the number of nodes it popped."""
        funcs, copies, watchers = self._funcs, self._copies, self._watchers
        worklist = self._worklist
        popped = 0
        while worklist:
            if self.meter is not None and popped % 4096 == 0:
                self.meter.checkpoint("call-graph")
            node = worklist.pop()
            popped += 1
            bucket = funcs[node]
            for successor in copies.get(node, ()):
                self._add(successor, bucket)
            for fname, instr in watchers.get(node, ()):
                for target in sorted(bucket - self.edges[instr.uid]):
                    self._target(fname, instr, target)
        return popped

    def _target(self, fname: str, instr: Call, target: str) -> None:
        """``target`` becomes a target of call site ``instr`` in
        ``fname``: an entry argument at one of its registry positions
        flows into the site's implicit targets, and, for a defined
        target, arguments into its parameters and its return value into
        the call's destination."""
        self.edges[instr.uid].add(target)
        args = instr.args
        for position in self.registry.positions(target):
            if position < len(args):
                self._flow(fname, args[position], instr.uid)
        function = self.module.functions.get(target)
        if function is None:
            return
        for arg, param in zip(args, function.params):
            self._flow(fname, arg, (target, param))
        if instr.dst is not None:
            dst = _operand_key(fname, instr.dst)
            if dst is not None:
                returned = (target,)
                self._copies.setdefault(returned, []).append(dst)
                if returned in self._funcs:
                    self._add(dst, self._funcs[returned])

    def _compute_reachable(self) -> Set[str]:
        roots = [
            name
            for name in (self.entry, GLOBAL_INIT)
            if name in self.module.functions or name in self.module.prototypes
        ]
        seen: Set[str] = set()
        frontier = list(roots)
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            function = self.module.functions.get(name)
            if function is None:
                continue
            for call in function.calls():
                for target in self.edges.get(call.uid, ()):
                    if target not in seen:
                        frontier.append(target)
                for target in self.implicit_edges.get(call.uid, ()):
                    if target not in seen:
                        frontier.append(target)
        return seen


def build_call_graph(
    module: IRModule,
    entry: str = "main",
    registry: Optional[ImplicitCallRegistry] = None,
    meter: Optional[BudgetMeter] = None,
) -> CallGraph:
    """Build the context-insensitive call graph for a module.

    ``meter`` (a started :class:`~repro.util.budget.BudgetMeter`) adds a
    cooperative wall-clock checkpoint to every fixpoint round.
    """
    if registry is None:
        registry = default_registry()
    return _Builder(module, entry, registry, meter).run()
