"""Context-sensitive, field-sensitive pointer analysis with heap cloning.

The effect-computation phase of RegionWiz (Section 5.3.1): an
Andersen-style, flow-insensitive points-to analysis where

* variables are identified per calling context ``(c, v)``;
* heap objects are *cloned* per context: an allocation site reached along
  two different call paths yields two abstract objects (Nystrom et al.'s
  heap specialization, which the paper argues is necessary here);
* fields are byte offsets (``heap : C x F x N x C x F``).

While propagating, calls to the region interface generate the three
effects of the formal model: ``subregion`` (rnew), ``ownership`` (ralloc),
and ``heap``/access (stores of inter-object pointers).  Every knob the
ablation benchmarks need -- context sensitivity, heap cloning, field
sensitivity, and the paper's declared unsoundness for dynamic offsets --
is an :class:`AnalysisOptions` flag.

The fixpoint is evaluated semi-naively, as bddbddb evaluates the paper's
Datalog rules: after the first round, a (function, context) pair is
re-visited only when a set it reads has grown since its last visit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.callgraph import CallGraph
from repro.callgraph.implicit import ImplicitCallSpec
from repro.interfaces import RegionInterface
from repro.ir import (
    Add,
    AddrOf,
    Assign,
    Call,
    FuncAddr,
    Instr,
    Load,
    NullConst,
    Operand,
    Return,
    Store,
    StrConst,
    Temp,
    VarOp,
)
from repro.obs.hub import trace_span
from repro.pointer.contexts import ContextNumbering, number_contexts
from repro.util.budget import BudgetMeter

__all__ = [
    "AbstractObject",
    "AnalysisOptions",
    "PointerAnalysisResult",
    "ROOT_REGION",
    "NULL_OBJECT",
    "analyze_pointers",
]


@dataclass(frozen=True)
class AbstractObject:
    """An abstract memory object: ``(allocation site, calling context)``.

    ``kind`` distinguishes regions from normal objects (the paper's
    ``R`` vs ``H``), plus stack/global/string/static-function storage.
    """

    kind: str  # 'region'|'heap'|'stack'|'global'|'string'|'func'|'root'|'null'
    site: int  # allocation instruction uid (0 for synthetic objects)
    ctx: int
    name: str

    def __str__(self) -> str:
        suffix = f"#{self.ctx}" if self.ctx else ""
        return f"{self.name}{suffix}"

    @property
    def is_region(self) -> bool:
        return self.kind in ("region", "root")

    @property
    def is_normal(self) -> bool:
        """A normal object in the paper's sense (H): region-allocatable
        storage plus statics/stack that can hold pointers."""
        return self.kind in ("heap", "stack", "global", "string")


ROOT_REGION = AbstractObject("root", 0, 0, "<root>")
NULL_OBJECT = AbstractObject("null", 0, 0, "<null>")

# A points-to target: an object plus a byte offset into it (None = unknown).
Location = Tuple[AbstractObject, Optional[int]]
VarKey = Tuple[str, int, str]  # (function, context, variable); globals ("",0,n)

# What every read of an unknown variable or slot returns: shared, never
# mutated, so a miss allocates nothing.
_NO_LOCATIONS: FrozenSet[Location] = frozenset()
_NULL_VALUE: FrozenSet[Location] = frozenset({(NULL_OBJECT, 0)})
# Marks an operand that names no variable in the operand-name memo.
_NOT_A_VARIABLE = (False, "")
# A call site's per-target steps and its implicit-call specs.
_CallPlan = Tuple[
    Tuple[Tuple[Callable[..., None], str], ...], Tuple[ImplicitCallSpec, ...]
]


@dataclass
class AnalysisOptions:
    """Precision knobs (each is an ablation axis)."""

    context_sensitive: bool = True
    heap_cloning: bool = True
    field_sensitive: bool = True
    max_contexts: int = 1 << 16
    # Paper mode: dynamic/overflowing offsets are ignored ("unsound for
    # more complex pointer operations such as arithmetic", Section 5.5).
    track_unknown_offsets: bool = False
    max_field_offset: int = 1 << 12


@dataclass
class PointerAnalysisResult:
    """Everything downstream phases need."""

    graph: CallGraph
    numbering: ContextNumbering
    options: AnalysisOptions
    interface: RegionInterface
    var_pts: Dict[VarKey, FrozenSet[Location]]
    heap_pts: Dict[Tuple[AbstractObject, Optional[int]], FrozenSet[Location]]
    regions: FrozenSet[AbstractObject]
    objects: FrozenSet[AbstractObject]
    subregion: FrozenSet[Tuple[AbstractObject, AbstractObject]]
    ownership: FrozenSet[Tuple[AbstractObject, AbstractObject]]
    accesses: FrozenSet[Tuple[AbstractObject, Optional[int], AbstractObject]]
    access_sites: Dict[
        Tuple[AbstractObject, Optional[int], AbstractObject], FrozenSet[int]
    ]
    cleanups: FrozenSet[Tuple[AbstractObject, str, AbstractObject]]
    iterations: int
    # (function, context) visits the solve ran, over all rounds.
    visits: int

    def points_to(self, function: str, variable: str, ctx: int = 0) -> Set[AbstractObject]:
        """Objects a variable may point to (offsets dropped), for tests."""
        key: VarKey = (function, ctx, variable)
        if (function, ctx, variable) not in self.var_pts and function == "":
            key = ("", 0, variable)
        return {obj for obj, _ in self.var_pts.get(key, frozenset())}

    def points_to_anywhere(self, function: str, variable: str) -> Set[AbstractObject]:
        """Union of a variable's points-to over all contexts."""
        result: Set[AbstractObject] = set()
        for (fn, _, var), locations in self.var_pts.items():
            if fn == function and var == variable:
                result.update(obj for obj, _ in locations)
        return result

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    @property
    def num_objects(self) -> int:
        return len(self.objects)


class _Engine:
    def __init__(
        self,
        graph: CallGraph,
        interface: RegionInterface,
        options: AnalysisOptions,
        numbering: Optional[ContextNumbering] = None,
        meter: Optional[BudgetMeter] = None,
    ) -> None:
        self.graph = graph
        self.module = graph.module
        self.interface = interface
        self.options = options
        self.meter = meter
        self.numbering = numbering or number_contexts(
            graph,
            context_sensitive=options.context_sensitive,
            max_contexts=options.max_contexts,
        )
        self.var_pts: Dict[VarKey, Set[Location]] = {}
        self.heap_pts: Dict[Tuple[AbstractObject, Optional[int]], Set[Location]] = {}
        self.regions: Set[AbstractObject] = {ROOT_REGION}
        self.objects: Set[AbstractObject] = set()
        self.subregion: Set[Tuple[AbstractObject, AbstractObject]] = set()
        self.ownership: Set[Tuple[AbstractObject, AbstractObject]] = set()
        self.accesses: Set[
            Tuple[AbstractObject, Optional[int], AbstractObject]
        ] = set()
        self.access_sites: Dict[
            Tuple[AbstractObject, Optional[int], AbstractObject], Set[int]
        ] = {}
        self.cleanups: Set[Tuple[AbstractObject, str, AbstractObject]] = set()
        self._stack_sites: Dict[Tuple[str, str], int] = {}
        # Operand -> (is_global, name), keyed by id(): the module keeps
        # every operand alive while the engine runs, and an int key skips
        # hashing the frozen operand dataclasses.
        self._names: Dict[int, Tuple[bool, str]] = {}
        # Operands naming the same variable share one memo value.
        self._distinct_names: Dict[Tuple[bool, str], Tuple[bool, str]] = {}
        # Per call site: what each visit does (see _call_plan).
        self._call_plans: Dict[int, _CallPlan] = {}
        self._changed = False
        # Semi-naive bookkeeping (see run): each reachable (function,
        # context) pair has the dense slot base[function] + context.
        self._base: Dict[str, int] = {}
        self._dirty = bytearray()
        # The pair being visited: its slot, function and context, and the
        # function's reread | returned locals (see _add_var).
        self._visiting_slot = -1
        self._visiting_function = ""
        self._visiting_ctx = -1
        self._visiting_watch: FrozenSet[str] = frozenset()
        # Per function: the locals a visit may read before it grows them.
        self._reread: Dict[str, FrozenSet[str]] = {}
        # Per function: the locals its return operands name.
        self._returned: Dict[str, FrozenSet[str]] = {}
        # Per function: reread | returned, the locals whose growth during
        # the function's own visit still marks a pair.
        self._watched: Dict[str, FrozenSet[str]] = {}
        # Per non-address-taken global: the slot ranges of the functions
        # whose operands read it, and the functions that return it.
        self._global_readers: Dict[str, List[Tuple[int, int]]] = {}
        self._global_returners: Dict[str, List[str]] = {}
        # Callee slot -> the caller slots that read its return operands.
        self._return_readers: Dict[int, Set[int]] = {}
        # Object -> the slots that loaded from any of its fields.
        self._heap_readers: Dict[AbstractObject, Set[int]] = {}
        # Derived-fact counter for budget accounting (points-to tuples
        # plus effect tuples); charged incrementally against the meter.
        self._derived = 0
        self._charged = 0

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _obj_ctx(self, ctx: int) -> int:
        return ctx if self.options.heap_cloning else 0

    def _norm_offset(self, offset: Optional[int]) -> Optional[int]:
        if not self.options.field_sensitive:
            return 0
        if offset is not None and abs(offset) > self.options.max_field_offset:
            return None
        return offset

    def _name_of(self, operand) -> Tuple[bool, str]:
        """Memoize ``operand``'s ``(is_global, name)``; name "" for a
        constant."""
        if isinstance(operand, Temp):
            named = (False, f"t{operand.id}")
        elif isinstance(operand, VarOp):
            named = (operand.kind == "global", operand.name)
        else:
            named = _NOT_A_VARIABLE
        named = self._distinct_names.setdefault(named, named)
        self._names[id(operand)] = named
        return named

    def _var_key(self, function: str, ctx: int, operand) -> Optional[VarKey]:
        is_global, variable = self._names.get(id(operand)) or self._name_of(
            operand
        )
        if not variable:
            return None
        if is_global:
            return ("", 0, variable)
        return (function, ctx, variable)

    def _value(
        self, function: str, ctx: int, operand: Operand
    ) -> AbstractSet[Location]:
        # _var_key inlined: this is the solver's most frequent read.
        is_global, variable = self._names.get(id(operand)) or self._name_of(
            operand
        )
        if variable:
            return self.var_pts.get(
                ("", 0, variable) if is_global else (function, ctx, variable),
                _NO_LOCATIONS,
            )
        if isinstance(operand, NullConst):
            return _NULL_VALUE
        if isinstance(operand, StrConst):
            obj = AbstractObject("string", operand.site, 0, f"str{operand.site}")
            if obj not in self.objects:
                self.objects.add(obj)
                self._changed = True
            return {(obj, 0)}
        if isinstance(operand, FuncAddr):
            return {(AbstractObject("func", 0, 0, f"&{operand.name}"), 0)}
        return _NO_LOCATIONS  # integer constants

    def _add_var(self, key: VarKey, locations: Iterable[Location]) -> None:
        bucket = self.var_pts.get(key)
        if bucket is None:
            bucket = self.var_pts[key] = set()
        before = len(bucket)
        bucket.update(locations)
        if len(bucket) != before:
            self._changed = True
            self._derived += len(bucket) - before
            function, ctx, variable = key
            # The common case, inlined: a local of the pair being visited
            # that only later instructions of this visit read.
            if (
                ctx != self._visiting_ctx
                or function != self._visiting_function
                or variable in self._visiting_watch
            ):
                self._mark_var_readers(function, ctx, variable)

    def _mark_var_readers(
        self, function: str, ctx: int, variable: str
    ) -> None:
        """Mark dirty every pair whose visit reads variable
        ``(function, ctx, variable)``."""
        dirty = self._dirty
        if not function:
            # A non-address-taken global: every context of every function
            # that reads it, and the callers of every function returning it.
            for low, high in self._global_readers.get(variable, ()):
                dirty[low:high] = b"\x01" * (high - low)
            for returner in self._global_returners.get(variable, ()):
                base = self._base[returner]
                contexts = self.numbering.contexts_of(returner)
                for slot in range(base, base + contexts):
                    for reader in self._return_readers.get(slot, ()):
                        dirty[reader] = 1
            return
        base = self._base.get(function)
        if base is None:
            return  # an implicit entry the call graph never reached
        slot = base + ctx
        # A growth inside the pair's own visit is seen by the rest of that
        # visit, unless a read of the variable precedes the growth.
        if slot != self._visiting_slot or variable in self._reread[function]:
            dirty[slot] = 1
        if variable in self._returned[function]:
            for reader in self._return_readers.get(slot, ()):
                dirty[reader] = 1

    def _add_heap(
        self, slot: Tuple[AbstractObject, Optional[int]], locations: Iterable[Location]
    ) -> None:
        bucket = self.heap_pts.get(slot)
        if bucket is None:
            bucket = self.heap_pts[slot] = set()
        before = len(bucket)
        bucket.update(locations)
        if len(bucket) != before:
            self._changed = True
            self._derived += len(bucket) - before
            dirty = self._dirty
            for reader in self._heap_readers.get(slot[0], ()):
                dirty[reader] = 1

    def _heap_read(
        self, obj: AbstractObject, offset: Optional[int]
    ) -> AbstractSet[Location]:
        if not self.options.track_unknown_offsets:
            if offset is None:
                return _NO_LOCATIONS
            return self.heap_pts.get((obj, offset), _NO_LOCATIONS)
        if offset is None:
            # Unknown offset reads every field, including the unknown slot.
            result: Set[Location] = set()
            for (other, _), locations in self.heap_pts.items():
                if other == obj:
                    result.update(locations)
            return result
        return self.heap_pts.get((obj, offset), _NO_LOCATIONS) | self.heap_pts.get(
            (obj, None), _NO_LOCATIONS
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> PointerAnalysisResult:
        # Dispatch table: the transfer function of each instruction type
        # that moves points-to facts (Return is pre-indexed below).
        handlers: Dict[type, Callable[[str, int, Instr], None]] = {
            Assign: self._process_assign,
            AddrOf: self._process_addrof,
            Add: self._process_add,
            Load: self._process_load,
            Store: self._process_store,
            Call: self._process_call,
        }
        # Per reachable defined function, in visiting order: its
        # (handler, instruction) pairs, plus its return operands.
        plans: Dict[str, List[Tuple[Callable[[str, int, Instr], None], Instr]]] = {}
        self._returns: Dict[str, List[Operand]] = {}
        pairs = 0
        for name in sorted(self.graph.reachable):
            function = self.module.functions.get(name)
            if function is None:
                continue
            plan = plans[name] = []
            for instr in function.instrs:
                handler = handlers.get(type(instr))
                if handler is not None:
                    plan.append((handler, instr))
                elif isinstance(instr, Return) and instr.src is not None:
                    self._returns.setdefault(name, []).append(instr.src)
            self._base[name] = pairs
            pairs += self.numbering.contexts_of(name)
            self._index_reads(
                name, function.params, plan, (self._base[name], pairs)
            )

        # Semi-naive rounds: the round-robin order is kept, but after the
        # first round a pair is visited only if something it reads has
        # grown since its last visit.  A visit is a deterministic function
        # of the sets it reads and only ever unions into sets, so a
        # skipped visit would have added nothing: every fact, and the
        # round count, match visiting every pair every round.
        dirty = self._dirty = bytearray(b"\x01") * pairs
        iterations = 0
        visits = 0
        with trace_span("pointer.solve") as span:
            while True:
                iterations += 1
                self._changed = False
                for name, plan in plans.items():
                    slot = self._base[name]
                    self._visiting_function = name
                    self._visiting_watch = self._watched[name]
                    for ctx in range(self.numbering.contexts_of(name)):
                        if dirty[slot]:
                            dirty[slot] = 0
                            self._visiting_slot = slot
                            self._visiting_ctx = ctx
                            visits += 1
                            for handler, instr in plan:
                                handler(name, ctx, instr)
                        slot += 1
                    if self.meter is not None:
                        self._charge_budget()
                if not self._changed:
                    break
            self._visiting_slot = self._visiting_ctx = -1
            span.set(
                iterations=iterations,
                visits=visits,
                regions=len(self.regions),
                objects=len(self.objects),
            )

        return PointerAnalysisResult(
            graph=self.graph,
            numbering=self.numbering,
            options=self.options,
            interface=self.interface,
            var_pts={k: frozenset(v) for k, v in self.var_pts.items()},
            heap_pts={k: frozenset(v) for k, v in self.heap_pts.items()},
            regions=frozenset(self.regions),
            objects=frozenset(self.objects),
            subregion=frozenset(self.subregion),
            ownership=frozenset(self.ownership),
            accesses=frozenset(self.accesses),
            access_sites={
                k: frozenset(v) for k, v in self.access_sites.items()
            },
            cleanups=frozenset(self.cleanups),
            iterations=iterations,
            visits=visits,
        )

    def _index_reads(
        self,
        name: str,
        params: Iterable[str],
        plan: List[Tuple[Callable[[str, int, Instr], None], Instr]],
        slots: Tuple[int, int],
    ) -> None:
        """Record, statically, which variables a visit of ``name`` (whose
        pairs are ``slots``) reads: the locals it may read before it
        grows them (``reread``: the parameters, plus every local defined
        at or after an instruction that reads it), its returned locals,
        and the globals it reads or returns."""
        read: Set[str] = set()
        reread: Set[str] = set(params)
        globals_read: Set[str] = set()
        for _, instr in plan:
            for operand in instr.operands():
                is_global, variable = self._name_of(operand)
                if is_global:
                    globals_read.add(variable)
                elif variable:
                    read.add(variable)
            dst = getattr(instr, "dst", None)
            if dst is not None:
                is_global, variable = self._name_of(dst)
                if not is_global and variable in read:
                    reread.add(variable)
        for variable in globals_read:
            self._global_readers.setdefault(variable, []).append(slots)
        returned: Set[str] = set()
        for operand in self._returns.get(name, ()):
            is_global, variable = self._name_of(operand)
            if is_global:
                self._global_returners.setdefault(variable, []).append(name)
            elif variable:
                returned.add(variable)
        self._reread[name] = frozenset(reread)
        self._returned[name] = frozenset(returned)
        self._watched[name] = frozenset(reread | returned)

    def _charge_budget(self) -> None:
        """Cooperative checkpoint: runs after each function is processed."""
        assert self.meter is not None
        self.meter.charge_tuples(self._derived - self._charged, "correlation")
        self._charged = self._derived
        self.meter.charge_objects(
            len(self.objects) + len(self.regions), "correlation"
        )

    def _process_assign(self, name: str, ctx: int, instr: Assign) -> None:
        key = self._var_key(name, ctx, instr.dst)
        if key is not None:
            self._add_var(key, self._value(name, ctx, instr.src))

    def _process_addrof(self, name: str, ctx: int, instr: AddrOf) -> None:
        var = instr.var
        if var.kind == "global":
            # One canonical object per global: every &g, from any
            # function, must denote the same storage.
            site = self._stack_sites.setdefault(("", var.name), instr.uid)
            obj = AbstractObject("global", site, 0, f"&{var.name}")
        else:
            site_key = (name, var.name)
            site = self._stack_sites.setdefault(site_key, instr.uid)
            obj = AbstractObject(
                "stack", site, self._obj_ctx(ctx), f"&{name}.{var.name}"
            )
        if obj not in self.objects:
            self.objects.add(obj)
        key = self._var_key(name, ctx, instr.dst)
        if key is not None:
            self._add_var(key, {(obj, 0)})

    def _process_add(self, name: str, ctx: int, instr: Add) -> None:
        key = self._var_key(name, ctx, instr.dst)
        if key is None:
            return
        shifted: Set[Location] = set()
        for obj, offset in self._value(name, ctx, instr.base):
            if instr.offset is None or offset is None:
                shifted.add((obj, self._norm_offset(None)))
            else:
                shifted.add((obj, self._norm_offset(offset + instr.offset)))
        self._add_var(key, shifted)

    def _process_load(self, name: str, ctx: int, instr: Load) -> None:
        key = self._var_key(name, ctx, instr.dst)
        if key is None:
            return
        result: Set[Location] = set()
        readers = self._heap_readers
        visiting = self._visiting_slot
        for obj, offset in self._value(name, ctx, instr.addr):
            if obj.kind in ("null", "func"):
                continue
            # Per object, not per slot: an unknown-offset read reads them all.
            slots = readers.get(obj)
            if slots is None:
                readers[obj] = {visiting}
            else:
                slots.add(visiting)
            result.update(self._heap_read(obj, offset))
        self._add_var(key, result)

    def _process_store(self, name: str, ctx: int, instr: Store) -> None:
        values = self._value(name, ctx, instr.src)
        if not values:
            return
        for obj, offset in self._value(name, ctx, instr.addr):
            if obj.kind in ("null", "func"):
                continue
            if offset is None and not self.options.track_unknown_offsets:
                continue
            self._add_heap((obj, offset), values)
            # Record the access effect: a normal object holding a pointer
            # to another object or to a region (sigma in the paper).
            if obj.is_normal:
                for target, _ in values:
                    if target.kind in ("null", "func"):
                        continue
                    access = (obj, offset, target)
                    # access_sites and accesses share keys: one lookup.
                    sites = self.access_sites.get(access)
                    if sites is None:
                        self.accesses.add(access)
                        self._changed = True
                        self._derived += 1
                        self.access_sites[access] = {instr.uid}
                    else:
                        sites.add(instr.uid)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _process_call(self, name: str, ctx: int, instr: Call) -> None:
        steps, specs = self._call_plans.get(instr.uid) or self._call_plan(instr)
        for step, target in steps:
            step(self, name, ctx, instr, target)
        if specs:
            self._propagate_implicit(name, ctx, instr, specs)

    def _call_plan(self, instr: Call) -> _CallPlan:
        """A call site's work, fixed by the call graph: per target, the
        interface effect and the parameter/return flow, in target order;
        then the implicit-call specs of all targets."""
        # Steps are plain functions, not bound methods: a bound method
        # stored on the engine would make a reference cycle that keeps
        # every points-to set alive until the cyclic collector runs.
        interface = self.interface
        registry = self.graph.registry
        targets = self.graph.targets(instr.uid)
        steps: List[Tuple[Callable[..., None], str]] = []
        for target in targets:
            if target in interface.creates:
                steps.append((_Engine._interface_create, target))
            elif target in interface.allocs:
                steps.append((_Engine._interface_alloc, target))
            elif target in interface.cleanups:
                steps.append((_Engine._interface_cleanup, target))
            # deletes have no static points-to effect.
            if self.module.is_defined(target):
                steps.append((_Engine._propagate_call, target))
        specs = tuple(spec for target in targets for spec in registry.specs(target))
        self._call_plans[instr.uid] = plan = (tuple(steps), specs)
        return plan

    def _region_args(
        self, name: str, ctx: int, operand: Operand
    ) -> Tuple[Set[AbstractObject], bool]:
        """Regions an operand may denote, plus whether it may be null."""
        regions: Set[AbstractObject] = set()
        may_be_null = isinstance(operand, NullConst)
        for obj, offset in self._value(name, ctx, operand):
            if obj.is_region and (offset == 0 or offset is None):
                regions.add(obj)
            elif obj.kind == "null":
                may_be_null = True
        return regions, may_be_null

    def _interface_create(
        self, name: str, ctx: int, instr: Call, target: str
    ) -> None:
        spec = self.interface.creates[target]
        region = AbstractObject(
            "region", instr.uid, self._obj_ctx(ctx), f"{target}@{instr.loc.line}"
        )
        if region not in self.regions:
            self.regions.add(region)
            self._changed = True
        parents: Set[AbstractObject] = set()
        if spec.parent_arg is None:
            parents.add(ROOT_REGION)
        elif spec.parent_arg < len(instr.args):
            found, may_be_null = self._region_args(
                name, ctx, instr.args[spec.parent_arg]
            )
            parents |= found
            if may_be_null:
                parents.add(ROOT_REGION)
        for parent in parents:
            if parent != region:
                edge = (region, parent)
                if edge not in self.subregion:
                    self.subregion.add(edge)
                    self._changed = True
        if spec.out_arg is None:
            if instr.dst is not None:
                key = self._var_key(name, ctx, instr.dst)
                if key is not None:
                    self._add_var(key, {(region, 0)})
        elif spec.out_arg < len(instr.args):
            for obj, offset in self._value(name, ctx, instr.args[spec.out_arg]):
                if obj.kind in ("null", "func"):
                    continue
                self._add_heap((obj, offset), {(region, 0)})

    def _interface_alloc(
        self, name: str, ctx: int, instr: Call, target: str
    ) -> None:
        spec = self.interface.allocs[target]
        obj = AbstractObject(
            "heap", instr.uid, self._obj_ctx(ctx), f"{target}@{instr.loc.line}"
        )
        if obj not in self.objects:
            self.objects.add(obj)
            self._changed = True
        owners: Set[AbstractObject] = set()
        if spec.region_arg < len(instr.args):
            found, may_be_null = self._region_args(
                name, ctx, instr.args[spec.region_arg]
            )
            owners |= found
            if may_be_null:
                owners.add(ROOT_REGION)
        for owner in owners:
            pair = (owner, obj)
            if pair not in self.ownership:
                self.ownership.add(pair)
                self._changed = True
        if instr.dst is not None:
            key = self._var_key(name, ctx, instr.dst)
            if key is not None:
                self._add_var(key, {(obj, 0)})

    def _interface_cleanup(
        self, name: str, ctx: int, instr: Call, target: str
    ) -> None:
        spec = self.interface.cleanups[target]
        regions: Set[AbstractObject] = set()
        if spec.region_arg < len(instr.args):
            regions, _ = self._region_args(name, ctx, instr.args[spec.region_arg])
        data_objs = {
            obj
            for obj, _ in self._value(name, ctx, instr.args[spec.data_arg])
            if obj.is_normal
        } if spec.data_arg < len(instr.args) else set()
        fn_names: Set[str] = set()
        for position in spec.fn_args:
            if position < len(instr.args):
                operand = instr.args[position]
                if isinstance(operand, FuncAddr):
                    fn_names.add(operand.name)
                else:
                    for obj, _ in self._value(name, ctx, operand):
                        if obj.kind == "func":
                            fn_names.add(obj.name.lstrip("&"))
        for region in regions:
            for fn_name in fn_names:
                for data in data_objs or {NULL_OBJECT}:
                    entry = (region, fn_name, data)
                    if entry not in self.cleanups:
                        self.cleanups.add(entry)
                        self._changed = True

    def _propagate_call(
        self, name: str, ctx: int, instr: Call, target: str
    ) -> None:
        callee_ctx = self.numbering.callee_context(ctx, instr.uid, target)
        if callee_ctx is None:
            return
        for arg, param in zip(instr.args, self.module.functions[target].params):
            values = self._value(name, ctx, arg)
            if values:
                self._add_var((target, callee_ctx, param), values)
        if instr.dst is not None and target in self._returns:
            key = self._var_key(name, ctx, instr.dst)
            if key is not None:
                callee_slot = self._base[target] + callee_ctx
                readers = self._return_readers.get(callee_slot)
                if readers is None:
                    self._return_readers[callee_slot] = {self._visiting_slot}
                else:
                    readers.add(self._visiting_slot)
                for operand in self._returns[target]:
                    self._add_var(
                        key, self._value(target, callee_ctx, operand)
                    )

    def _propagate_implicit(
        self,
        name: str,
        ctx: int,
        instr: Call,
        specs: Tuple[ImplicitCallSpec, ...],
    ) -> None:
        for spec in specs:
            if spec.fn_arg >= len(instr.args):
                continue
            entry_names: Set[str] = set()
            operand = instr.args[spec.fn_arg]
            if isinstance(operand, FuncAddr):
                entry_names.add(operand.name)
            else:
                for obj, _ in self._value(name, ctx, operand):
                    if obj.kind == "func":
                        entry_names.add(obj.name.lstrip("&"))
            for entry in entry_names:
                function = self.module.functions.get(entry)
                if function is None:
                    continue
                callee_ctx = self.numbering.callee_context(
                    ctx, instr.uid, entry
                )
                if callee_ctx is None:
                    callee_ctx = 0
                for src_arg, param_idx in spec.data_flow:
                    if (
                        src_arg < len(instr.args)
                        and param_idx < len(function.params)
                    ):
                        values = self._value(name, ctx, instr.args[src_arg])
                        if values:
                            self._add_var(
                                (entry, callee_ctx, function.params[param_idx]),
                                values,
                            )


def analyze_pointers(
    graph: CallGraph,
    interface: RegionInterface,
    options: Optional[AnalysisOptions] = None,
    numbering: Optional[ContextNumbering] = None,
    meter: Optional[BudgetMeter] = None,
) -> PointerAnalysisResult:
    """Run the effect-computation phase over a pruned call graph.

    ``meter`` adds cooperative budget checkpoints (wall clock, derived
    tuples, abstract objects) at per-function granularity inside the
    fixpoint, so a blowup raises ``BudgetExceeded`` promptly instead of
    running away.
    """
    if options is None:
        options = AnalysisOptions()
    return _Engine(graph, interface, options, numbering, meter).run()
