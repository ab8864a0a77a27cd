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
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

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


class _Builder:
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
        self.vf: Dict[VarKey, Set[str]] = {}
        self.escaped: Set[str] = set()
        self._load_dsts: Set[VarKey] = set()
        self.edges: Dict[int, Set[str]] = {}
        self.implicit_edges: Dict[int, Set[str]] = {}

    # ------------------------------------------------------------------

    def run(self) -> CallGraph:
        with trace_span("callgraph.fixpoint") as span:
            iterations = 0
            changed = True
            while changed:
                if self.meter is not None:
                    self.meter.checkpoint("call-graph")
                iterations += 1
                changed = False
                changed |= self._propagate_intraprocedural()
                changed |= self._update_call_edges()
                changed |= self._propagate_interprocedural()
            reachable = self._compute_reachable()
            span.set(iterations=iterations, reachable=len(reachable))
        graph = CallGraph(
            module=self.module,
            entry=self.entry,
            edges={uid: frozenset(t) for uid, t in self.edges.items()},
            implicit_edges={
                uid: frozenset(t) for uid, t in self.implicit_edges.items()
            },
            reachable=frozenset(reachable),
            vf={key: frozenset(funcs) for key, funcs in self.vf.items()},
            registry=self.registry,
        )
        return graph

    def _funcs_of(self, func: str, operand: Operand) -> Set[str]:
        if isinstance(operand, FuncAddr):
            return {operand.name}
        key = _operand_key(func, operand)
        if key is None:
            return set()
        return self.vf.get(key, set())

    def _add_vf(self, key: VarKey, funcs: Iterable[str]) -> bool:
        bucket = self.vf.setdefault(key, set())
        before = len(bucket)
        bucket.update(funcs)
        return len(bucket) != before

    def _propagate_intraprocedural(self) -> bool:
        changed = False
        for fname, instr in self.module.all_instrs():
            if isinstance(instr, Assign):
                funcs = self._funcs_of(fname, instr.src)
                if funcs:
                    key = _operand_key(fname, instr.dst)
                    if key is not None:
                        changed |= self._add_vf(key, funcs)
            elif isinstance(instr, Add):
                # A pointer-offset copy preserves the function set (covers
                # &table[i]-style indexing of function-pointer arrays).
                funcs = self._funcs_of(fname, instr.base)
                if funcs:
                    key = _operand_key(fname, instr.dst)
                    if key is not None:
                        changed |= self._add_vf(key, funcs)
            elif isinstance(instr, Store):
                funcs = self._funcs_of(fname, instr.src)
                if funcs and not funcs <= self.escaped:
                    self.escaped.update(funcs)
                    changed = True
            elif isinstance(instr, Load):
                key = _operand_key(fname, instr.dst)
                if key is not None:
                    self._load_dsts.add(key)
        # Escaped functions may be loaded back from anywhere.
        if self.escaped:
            for key in self._load_dsts:
                changed |= self._add_vf(key, self.escaped)
        return changed

    def _update_call_edges(self) -> bool:
        changed = False
        for fname, instr in self.module.all_instrs():
            if not isinstance(instr, Call):
                continue
            targets = self.edges.setdefault(instr.uid, set())
            before = len(targets)
            targets.update(self._funcs_of(fname, instr.callee))
            changed |= len(targets) != before
            # Implicit edges from the registry.
            for callee in set(targets):
                positions = self.registry.positions(callee)
                for position in positions:
                    if position < len(instr.args):
                        entry_funcs = self._funcs_of(fname, instr.args[position])
                        if entry_funcs:
                            bucket = self.implicit_edges.setdefault(
                                instr.uid, set()
                            )
                            implicit_before = len(bucket)
                            bucket.update(entry_funcs)
                            changed |= len(bucket) != implicit_before
        return changed

    def _propagate_interprocedural(self) -> bool:
        changed = False
        # Pre-index return sources per function.
        returns: Dict[str, Set[str]] = {}
        for fname, instr in self.module.all_instrs():
            if isinstance(instr, Return) and instr.src is not None:
                funcs = self._funcs_of(fname, instr.src)
                if funcs:
                    returns.setdefault(fname, set()).update(funcs)
        for fname, instr in self.module.all_instrs():
            if not isinstance(instr, Call):
                continue
            for target in self.edges.get(instr.uid, ()):
                function = self.module.functions.get(target)
                if function is None:
                    continue
                # Arguments flow into parameters.
                for position, arg in enumerate(instr.args):
                    if position >= len(function.params):
                        break
                    funcs = self._funcs_of(fname, arg)
                    if funcs:
                        changed |= self._add_vf(
                            (target, function.params[position]), funcs
                        )
                # Return values flow into the call destination.
                if instr.dst is not None and target in returns:
                    key = _operand_key(fname, instr.dst)
                    if key is not None:
                        changed |= self._add_vf(key, returns[target])
        return changed

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
