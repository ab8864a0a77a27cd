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

Like bddbddb, which numbers every domain before it solves, the solver
works on dense integers (see :class:`_Engine`): objects are numbered as
they are allocated, a location packs an object number with an offset
code, and a variable is a slot in a per-(function, context) layout.  With
heap cloning almost every slot holds one location, so a points-to set is
kept inline as a 1-tuple until a second location arrives.  Before the
solve, each reachable function's plan is compiled into step functions,
one per step, specialized on the kinds and slots of the step's operands;
a visit of a (function, context) pair just calls them in order.  The result
hands the effect relations over in that numbering too: consistency,
hierarchy and ranking work on the numbers, and an
:class:`AbstractObject` is built only for what someone reads -- a
reported warning, ``--explain``, or a decoded view.
"""

from __future__ import annotations

import collections.abc
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

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
from repro.obs.hub import trace_span
from repro.pointer.contexts import ContextNumbering, number_contexts
from repro.util.budget import BudgetMeter

__all__ = [
    "AbstractObject",
    "AnalysisOptions",
    "PointerAnalysisResult",
    "ROOT_REGION",
    "ROOT_REGION_ID",
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
        return _label(self.name, self.ctx)

    @property
    def is_region(self) -> bool:
        return self.kind in ("region", "root")

    @property
    def is_normal(self) -> bool:
        """A normal object in the paper's sense (H): region-allocatable
        storage plus statics/stack that can hold pointers."""
        return self.kind in ("heap", "stack", "global", "string")


def _label(name: str, ctx: int) -> str:
    """How an object renders: its name, suffixed with a nonzero context."""
    return f"{name}#{ctx}" if ctx else name


ROOT_REGION = AbstractObject("root", 0, 0, "<root>")
NULL_OBJECT = AbstractObject("null", 0, 0, "<null>")

# A points-to target: an object plus a byte offset into it (None = unknown).
Location = Tuple[AbstractObject, Optional[int]]
VarKey = Tuple[str, int, str]  # (function, context, variable); globals ("",0,n)
# An object's identity in the engine: (kind, site, ctx, name).
ObjectKey = Tuple[str, int, int, str]
# An access in the engine's numbering: (packed source location, target).
AccessKey = Tuple[int, int]
Access = Tuple[AbstractObject, Optional[int], AbstractObject]

# A cell: the value of one variable slot, heap slot, implicit-entry
# parameter, access (its store uids) or reader list.  It holds a 1-tuple
# until a second distinct element arrives, and only then a set of its own;
# () is a cell that was written but is empty.  A tuple is immutable, so
# one may sit in many cells (``b = a`` shares it); a set never does.
_Cell = Union[Tuple[int, ...], Set[int]]

# Per-object flags, indexed by object number.
_NULL = 1
_FUNC = 2
_SKIP = _NULL | _FUNC  # loads and stores pass these by
_REGION = 4  # the paper's R: regions and the root
_NORMAL = 8  # the paper's H: heap, stack, global and string storage
_KIND_FLAGS = {
    "null": _NULL,
    "func": _FUNC,
    "region": _REGION,
    "root": _REGION,
    "heap": _NORMAL,
    "stack": _NORMAL,
    "global": _NORMAL,
    "string": _NORMAL,
}
# NULL_OBJECT and ROOT_REGION are numbered before the solve starts.
_NULL_ID = 0
#: ROOT_REGION's number in every result's object table.
ROOT_REGION_ID = 1

# A pre-resolved operand: an int names a variable (a local's index in its
# function's layout, or a global's negative slot), a tuple is a
# constant's locations (at most one), and a StrConst is a string literal,
# whose object is allocated when first read.
_Ref = Union[int, Tuple[int, ...], StrConst]
# A local of a function, as the solver keys it: a temp's id, or a
# variable's name.
_LocalKey = Union[int, str]
# A compiled plan step: called with the first variable slot of the
# (function, context) pair being visited.
_Step = Callable[[int], None]


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


class ObjectTable:
    """The engine's objects by number.

    It keeps each object's :data:`ObjectKey` and builds the
    :class:`AbstractObject` only when the number is first read, so a run
    that reports nothing builds none.  Pickling keeps the keys alone.
    """

    def __init__(
        self,
        keys: Tuple[ObjectKey, ...],
        numbers: Optional[Dict[ObjectKey, int]] = None,
    ) -> None:
        self.keys = keys
        self._objects: List[Optional[AbstractObject]] = [None] * len(keys)
        self._numbers = numbers

    def __getstate__(self):
        return {"keys": self.keys}

    def __setstate__(self, state) -> None:
        self.__init__(state["keys"])

    def __len__(self) -> int:
        return len(self.keys)

    def object(self, number: int) -> AbstractObject:
        obj = self._objects[number]
        if obj is None:
            obj = self._objects[number] = AbstractObject(*self.keys[number])
        return obj

    def number(self, obj: AbstractObject) -> int:
        """The inverse of :meth:`object`."""
        if self._numbers is None:
            self._numbers = {key: n for n, key in enumerate(self.keys)}
        return self._numbers[(obj.kind, obj.site, obj.ctx, obj.name)]

    def label(self, number: int) -> str:
        """``str`` of the object, without building it."""
        key = self.keys[number]
        return _label(key[3], key[2])

    def pair(self, pair: Tuple[int, int]) -> Tuple[AbstractObject, AbstractObject]:
        return self.object(pair[0]), self.object(pair[1])

    def cleanup(
        self, entry: Tuple[int, str, int]
    ) -> Tuple[AbstractObject, str, AbstractObject]:
        return self.object(entry[0]), entry[1], self.object(entry[2])

    @property
    def decoded(self) -> FrozenSet[int]:
        """The numbers whose objects have been built."""
        return frozenset(
            n for n, obj in enumerate(self._objects) if obj is not None
        )


class DecodedSet(collections.abc.Set):
    """A relation over engine numbers, read as a frozenset of objects.

    Its size is the int form's; any other read decodes every item once
    with ``decode`` and keeps the result.  Pickling keeps the int form.
    """

    __slots__ = ("items", "_decode", "_decoded")

    def __init__(self, items: Collection, decode: Callable[[Any], Any]) -> None:
        self.items = items
        self._decode = decode
        self._decoded: Optional[FrozenSet] = None

    def __reduce__(self):
        return (DecodedSet, (self.items, self._decode))

    @classmethod
    def _from_iterable(cls, iterable: Iterable) -> FrozenSet:
        return frozenset(iterable)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.decode())

    def __contains__(self, item: object) -> bool:
        return item in self.decode()

    @property
    def is_decoded(self) -> bool:
        return self._decoded is not None

    def decode(self) -> FrozenSet:
        if self._decoded is None:
            self._decoded = frozenset(map(self._decode, self.items))
        return self._decoded


class PackedPointsTo:
    """The solver's points-to maps in its own dense numbering.

    A location is ``object << offset_bits | code``, where the offset code
    is ``offset + bias`` and ``2 * bias + 1`` stands for the unknown
    offset (None).  Variable slots follow the solver's layout: ``var`` is
    one list over the locals, and those of function ``f`` in context
    ``c`` start at ``var_base + c * size``; ``None`` marks a slot never
    written.  Globals have negative slots ``~index``, kept in
    ``global_var``.  Parameters of implicit entries the call graph never
    reached are kept by :data:`VarKey` in ``extra``.  Every points-to set
    is a :data:`_Cell`: a tuple of at most one location, or a set of two
    or more.

    :meth:`var_pts` and :meth:`heap_pts` decode on first call and keep
    the decoded maps; pickling keeps only the packed form.
    """

    def __init__(
        self,
        table: ObjectTable,
        offset_bits: int,
        bias: int,
        functions: Tuple[Tuple[str, int, int, Tuple[str, ...]], ...],
        globals_: Tuple[str, ...],
        var: List[Optional[_Cell]],
        global_var: Dict[int, _Cell],
        extra: Dict[VarKey, _Cell],
        heap: Dict[int, _Cell],
    ) -> None:
        self.table = table
        self.offset_bits = offset_bits
        self.bias = bias
        # (name, var_base, size, local names), by ascending var_base.
        self.functions = functions
        self.globals = globals_
        self.var = var
        self.global_var = global_var
        self.extra = extra
        self.heap = heap
        self._var_pts: Optional[Dict[VarKey, FrozenSet[Location]]] = None
        self._heap_pts: Optional[Dict[Location, FrozenSet[Location]]] = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_var_pts"] = state["_heap_pts"] = None
        return state

    def location(self, loc: int) -> Location:
        """The ``(object, offset)`` a packed location stands for."""
        code = loc & ((1 << self.offset_bits) - 1)
        offset = None if code == 2 * self.bias + 1 else code - self.bias
        return self.table.object(loc >> self.offset_bits), offset

    def access(self, key: AccessKey) -> Access:
        """The ``(source, offset, target)`` triple an access key stands for."""
        loc, target = key
        return (*self.location(loc), self.table.object(target))

    def access_key(self, access: Access) -> AccessKey:
        """The inverse of :meth:`access`."""
        source, offset, target = access
        code = 2 * self.bias + 1 if offset is None else offset + self.bias
        return (
            self.table.number(source) << self.offset_bits | code,
            self.table.number(target),
        )

    def _decoder(self) -> Callable[[Iterable[int]], FrozenSet[Location]]:
        memo: Dict[int, Location] = {}

        def decode(locs: Iterable[int]) -> FrozenSet[Location]:
            out = []
            for loc in locs:
                location = memo.get(loc)
                if location is None:
                    location = memo[loc] = self.location(loc)
                out.append(location)
            return frozenset(out)

        return decode

    def var_pts(self) -> Dict[VarKey, FrozenSet[Location]]:
        if self._var_pts is None:
            decode = self._decoder()
            var = self.var
            decoded: Dict[VarKey, FrozenSet[Location]] = {}
            ends = [base for _, base, _, _ in self.functions[1:]] + [len(var)]
            for (name, base, size, names), end in zip(self.functions, ends):
                for slot in range(base, end):
                    locs = var[slot]
                    if locs is not None:
                        ctx, index = divmod(slot - base, size)
                        decoded[(name, ctx, names[index])] = decode(locs)
            for slot, locs in self.global_var.items():
                decoded[("", 0, self.globals[~slot])] = decode(locs)
            for key, locs in self.extra.items():
                decoded[key] = decode(locs)
            self._var_pts = decoded
        return self._var_pts

    def heap_pts(self) -> Dict[Location, FrozenSet[Location]]:
        if self._heap_pts is None:
            decode = self._decoder()
            self._heap_pts = {
                self.location(loc): decode(locs)
                for loc, locs in self.heap.items()
            }
        return self._heap_pts


@dataclass
class PointerAnalysisResult:
    """Everything downstream phases need.

    The effect relations are kept in the engine's numbering (the ``*_ids``
    fields): an object is its number in ``packed.table``, and an access
    is keyed by its packed source location and target number.  The
    object-form relations (``regions``, ``objects``, ``subregion``,
    ``ownership``, ``accesses``, ``cleanups``) are :class:`DecodedSet`
    views and ``access_sites`` a mapping, each decoded on first read;
    their sizes and the ``num_*`` counts never decode.
    """

    graph: CallGraph
    numbering: ContextNumbering
    options: AnalysisOptions
    interface: RegionInterface
    region_ids: FrozenSet[int]
    object_ids: FrozenSet[int]
    subregion_ids: FrozenSet[Tuple[int, int]]
    ownership_ids: FrozenSet[Tuple[int, int]]
    # Access key -> the uids of the stores that made the access.
    access_site_ids: Dict[AccessKey, _Cell]
    cleanup_ids: FrozenSet[Tuple[int, str, int]]
    iterations: int
    # (function, context) visits the solve ran, over all rounds.
    visits: int
    # The points-to maps, decoded by var_pts/heap_pts on first read.
    packed: PackedPointsTo
    # The decoded views of the effect relations.
    regions: DecodedSet = field(init=False, repr=False, compare=False)
    objects: DecodedSet = field(init=False, repr=False, compare=False)
    subregion: DecodedSet = field(init=False, repr=False, compare=False)
    ownership: DecodedSet = field(init=False, repr=False, compare=False)
    accesses: DecodedSet = field(init=False, repr=False, compare=False)
    cleanups: DecodedSet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table = self.packed.table
        self.regions = DecodedSet(self.region_ids, table.object)
        self.objects = DecodedSet(self.object_ids, table.object)
        self.subregion = DecodedSet(self.subregion_ids, table.pair)
        self.ownership = DecodedSet(self.ownership_ids, table.pair)
        self.accesses = DecodedSet(self.access_site_ids, self.packed.access)
        self.cleanups = DecodedSet(self.cleanup_ids, table.cleanup)
        self._access_sites: Optional[Dict[Access, FrozenSet[int]]] = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_access_sites"] = None
        return state

    @property
    def access_sites(self) -> Dict[Access, FrozenSet[int]]:
        if self._access_sites is None:
            access = self.packed.access
            self._access_sites = {
                access(key): frozenset(sites)
                for key, sites in self.access_site_ids.items()
            }
        return self._access_sites

    @property
    def var_pts(self) -> Dict[VarKey, FrozenSet[Location]]:
        return self.packed.var_pts()

    @property
    def heap_pts(self) -> Dict[Location, FrozenSet[Location]]:
        return self.packed.heap_pts()

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
        return len(self.region_ids)

    @property
    def num_objects(self) -> int:
        return len(self.object_ids)


class _Locals(dict):
    """A function's locals, key -> index in order of first use: a temp's
    key is its id, a variable's its name.  Reading a new key numbers it."""

    def __missing__(self, key: _LocalKey) -> int:
        index = self[key] = len(self)
        return index

    def names(self) -> Tuple[str, ...]:
        """The locals' names by index; a temp is named ``t<id>``."""
        return tuple(f"t{key}" if key.__class__ is int else key for key in self)


class _Function:
    """A reachable defined function's place in the dense layout.

    Its (function, context) pairs are ``pair_base + c``; its locals in
    context ``c`` are the variable slots ``var_base + c * size + index``,
    parameters first.  ``plan`` is its compiled steps.
    """

    __slots__ = (
        "name",
        "arity",
        "pair_base",
        "contexts",
        "var_base",
        "size",
        "index",
        "names",
        "plan",
        "returns",
        "reread",
        "returned",
    )

    def __init__(
        self, name: str, params: List[str], pair_base: int, contexts: int
    ) -> None:
        self.name = name
        self.arity = len(params)
        self.pair_base = pair_base
        self.contexts = contexts
        self.var_base = 0
        # Filled while the plans are resolved; then only the names stay.
        self.index: Optional[_Locals] = _Locals(
            (param, index) for index, param in enumerate(params)
        )
        self.names: Tuple[str, ...] = ()
        self.size = len(self.index)
        self.plan: List[_Step] = []
        # The function's return operands.
        self.returns: List[_Ref] = []
        # Per local index: read before it may grow (reread), or named by
        # a return operand (returned); see _index_reads.
        self.reread = self.returned = bytearray()



class _Visit:
    """What the compiled steps share with the solve loop.

    ``changed`` records that a step added a fact this round, ``derived``
    counts the facts added (for the budget meter), and ``pair``/``ctx``
    name the (function, context) pair being visited.  A step holds this
    object and the engine's containers, never the engine or a bound
    method of it, so a plan forms no reference cycle with its engine.
    """

    __slots__ = ("changed", "derived", "pair", "ctx")

    def __init__(self) -> None:
        self.changed = False
        self.derived = 0
        self.pair = -1
        self.ctx = -1


class _Engine:
    """The semi-naive solver, on dense integers.

    * **Objects** are numbered when first allocated (``_number``);
      ``_table`` keeps one :data:`ObjectKey` per number, memoised per
      key, and ``_flags`` its kind bits.  The result builds an
      :class:`AbstractObject` only for a number someone reads
      (:class:`ObjectTable`).
    * **Locations** are ints: ``object << _shift | offset code`` (see
      :class:`PackedPointsTo`).
    * **Variables** are int slots: ``_pts`` is one list over the local
      slots, sized by :meth:`_build_plans`, and ``_global_pts`` maps the
      negative global slots.
    * **Plans** are compiled once, by :meth:`_build_plans`: each step is
      a function specialized on its operands' kinds (local slot, global
      slot, constant, string literal), so a visit is ``for step in
      plan: step(vslot)`` and looks nothing up by name or kind.  The
      steps share the round's state through one :class:`_Visit`; the
      plans are freed when the solve ends.
    * **Points-to sets** are :data:`_Cell` values, grown by :func:`_grow`.
    """

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
        # Offset codes: offset + bias for offsets within +-max_field_offset,
        # _none for the unknown offset.
        self._bias = bias = max(options.max_field_offset, 0)
        self._none = 2 * bias + 1
        self._shift = self._none.bit_length()
        self._mask = (1 << self._shift) - 1
        # A constant shift is exact while the code stays in [_low, _high].
        self._low = bias - options.max_field_offset
        self._high = bias + options.max_field_offset
        self._table: List[ObjectKey] = []
        self._flags = bytearray()
        self._object_ids: Dict[ObjectKey, int] = {}
        self._number = _numbering(self._table, self._flags, self._object_ids)
        self._number(("null", 0, 0, "<null>"))
        self._number(("root", 0, 0, "<root>"))
        self._null_value = (_NULL_ID << self._shift | bias,)
        self._strings: Dict[int, Tuple[int]] = {}
        self._pts: List[Optional[_Cell]] = []
        self._global_pts: Dict[int, _Cell] = {}
        self._extra: Dict[VarKey, _Cell] = {}
        self._heap: Dict[int, _Cell] = {}
        # Object -> its heap slots, for unknown-offset reads.
        self._fields: Dict[int, List[int]] = {}
        self._regions: Set[int] = {ROOT_REGION_ID}
        self._objects: Set[int] = set()
        self._subregion: Set[Tuple[int, int]] = set()
        self._ownership: Set[Tuple[int, int]] = set()
        # (location, target object) -> the store uids that made the access.
        self._access_sites: Dict[Tuple[int, int], _Cell] = {}
        self._cleanups: Set[Tuple[int, str, int]] = set()
        self._functions: Dict[str, _Function] = {}
        self._globals: Dict[str, int] = {}
        self._state = _Visit()
        # Semi-naive bookkeeping (see run): one dirty mark per pair.
        self._dirty = bytearray()
        # Per global slot: the pair ranges of the functions whose operands
        # read it, and the functions that return it.
        self._global_readers: Dict[int, List[Tuple[int, int]]] = {}
        self._global_returners: Dict[int, List[_Function]] = {}
        # Callee pair -> the caller pairs that read its return operands.
        self._return_readers: Dict[int, _Cell] = {}
        # Object -> the pairs that loaded from any of its fields.
        self._heap_readers: Dict[int, _Cell] = {}
        # Budget accounting: the derived facts (points-to tuples plus
        # effect tuples, counted in _state) already charged to the meter.
        self._charged = 0
        # Compiled helpers the steps share: putters per kind of local,
        # readers per operand, writers per destination (see _putter,
        # _reader and _writer).
        self._putters: Dict[Tuple[int, int], Callable[[int, Collection[int]], None]] = {}
        self._readers: Dict[Any, Callable[[int], _Cell]] = {}
        self._writers: Dict[Any, Callable[[int, Collection[int]], None]] = {}
        self._add_heap = self._heap_writer()
        self._store_into = self._store_writer()
        self._shift_all = _shifter(self._mask, self._none, self._low, self._high)
        self._layouts: Optional[Dict[str, tuple]] = None
        # Call target -> what a call to it does (see _target).
        self._targets: Dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # Operands
    # ------------------------------------------------------------------

    def _loc(self, obj: int) -> int:
        """``obj`` at offset 0."""
        return obj << self._shift | self._bias

    def _resolve(self, function: _Function, operand: Operand) -> _Ref:
        cls = operand.__class__
        if cls is Temp:
            return function.index[operand.id]
        if cls is VarOp:
            if operand.kind == "global":
                return self._global(operand.name)
            return function.index[operand.name]
        if cls is NullConst:
            return self._null_value
        if cls is StrConst:
            return operand
        if cls is FuncAddr:
            func = self._number(("func", 0, 0, f"&{operand.name}"))
            return (self._loc(func),)
        return ()  # integer constants

    def _global(self, name: str) -> int:
        slot = self._globals.get(name)
        if slot is None:
            slot = self._globals[name] = ~len(self._globals)
        return slot

    def _dst(self, meta: _Function, operand) -> Optional[int]:
        ref = None if operand is None else self._resolve(meta, operand)
        return ref if ref.__class__ is int else None

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------

    def _build_plans(self) -> List[_Function]:
        """Per reachable defined function, in visiting order: its pairs,
        its variable layout and its compiled plan.

        The first pass resolves every operand in instruction order, so
        locals, globals and function objects get their numbers in that
        order, and fixes each function's layout and read sets.  The
        second compiles each resolved step into a step function; it runs
        once every layout is known, so a call step knows its callee's
        slots.
        """
        functions: List[_Function] = []
        pairs = 0
        for name in sorted(self.graph.reachable):
            function = self.module.functions.get(name)
            if function is None:
                continue
            contexts = self.numbering.contexts_of(name)
            meta = _Function(name, function.params, pairs, contexts)
            self._functions[name] = meta
            functions.append(meta)
            pairs += contexts
        # Stack and global objects: one site per (function, variable),
        # resp. per global, the first address-of in visiting order.
        stack_sites: Dict[Tuple[str, str], int] = {}
        resolved: List[List[tuple]] = []
        var_base = 0
        for meta in functions:
            function = self.module.functions[meta.name]
            read: Set[_LocalKey] = set()
            reread: Set[_LocalKey] = set(function.params)
            globals_read: Set[str] = set()
            steps: List[tuple] = []
            for instr in function.instrs:
                if self._plan_step(meta, instr, stack_sites, steps):
                    self._index_reads(instr, read, reread, globals_read)
                elif instr.__class__ is Return and instr.src is not None:
                    meta.returns.append(self._resolve(meta, instr.src))
            resolved.append(steps)
            pair_range = (meta.pair_base, meta.pair_base + meta.contexts)
            # Sorted: a global only address-taken or called through gets
            # its slot here, and a set of names iterates in hash order.
            for variable in sorted(globals_read):
                slot = self._global(variable)
                self._global_readers.setdefault(slot, []).append(pair_range)
            returned: Set[int] = set()
            for ref in meta.returns:
                if ref.__class__ is not int:
                    continue
                if ref < 0:
                    self._global_returners.setdefault(ref, []).append(meta)
                else:
                    returned.add(ref)
            meta.size = len(meta.index)
            meta.var_base = var_base
            var_base += meta.contexts * meta.size
            meta.reread = bytearray(meta.size)
            for variable in reread:
                index = meta.index.get(variable)
                if index is not None:
                    meta.reread[index] = 1
            meta.returned = bytearray(meta.size)
            for index in returned:
                meta.returned[index] = 1
            meta.names = meta.index.names()
            meta.index = None
        # Sized in place: the shared writers already hold both.
        self._dirty.extend(b"\x01" * pairs)
        self._pts.extend([None] * var_base)
        for meta, steps in zip(functions, resolved):
            for compile_step, operands in steps:
                step = compile_step(self, meta, *operands)
                if step is not None:
                    meta.plan.append(step)
        return functions

    def _index_reads(
        self,
        instr,
        read: Set[_LocalKey],
        reread: Set[_LocalKey],
        globals_read: Set[str],
    ) -> None:
        """Record, statically, which variables a visit reads: the locals
        it may read before it grows them (``reread``: the parameters,
        plus every local defined at or after an instruction that reads
        it), and the globals it reads."""
        for operand in instr.operands():
            cls = operand.__class__
            if cls is Temp:
                read.add(operand.id)
            elif cls is VarOp:
                if operand.kind == "global":
                    globals_read.add(operand.name)
                else:
                    read.add(operand.name)
        dst = getattr(instr, "dst", None)
        cls = dst.__class__
        if cls is Temp:
            if dst.id in read:
                reread.add(dst.id)
        elif cls is VarOp and dst.kind != "global":
            if dst.name in read:
                reread.add(dst.name)

    def _plan_step(
        self,
        meta: _Function,
        instr,
        stack_sites: Dict[Tuple[str, str], int],
        steps: List[Tuple[Callable[..., Optional[_Step]], tuple]],
    ) -> bool:
        """Append ``instr``'s steps to ``steps``, each a compiler and the
        pre-resolved operands it is called with.  False for an
        instruction that moves no points-to facts."""
        cls = instr.__class__
        if cls is Assign:
            steps.append((_Engine._assign_step, (
                self._dst(meta, instr.dst), self._resolve(meta, instr.src)
            )))
        elif cls is AddrOf:
            var = instr.var
            if var.kind == "global":
                # One canonical object per global: every &g, from any
                # function, must denote the same storage.
                site = stack_sites.setdefault(("", var.name), instr.uid)
                target = ("global", site, False, f"&{var.name}")
            else:
                site = stack_sites.setdefault((meta.name, var.name), instr.uid)
                target = (
                    "stack",
                    site,
                    self.options.heap_cloning,
                    f"&{meta.name}.{var.name}",
                )
            steps.append((_Engine._addrof_step, (
                (self._dst(meta, instr.dst),) + target
            )))
        elif cls is Add:
            operands = (
                self._dst(meta, instr.dst), self._resolve(meta, instr.base)
            )
            if not self.options.field_sensitive:
                steps.append((_Engine._add_fixed_step, operands + (self._bias,)))
            elif instr.offset is None:
                steps.append((_Engine._add_fixed_step, operands + (self._none,)))
            else:
                steps.append((_Engine._add_shift_step, operands + (instr.offset,)))
        elif cls is Load:
            steps.append((_Engine._load_step, (
                self._dst(meta, instr.dst), self._resolve(meta, instr.addr)
            )))
        elif cls is Store:
            addr = self._resolve(meta, instr.addr)
            src = self._resolve(meta, instr.src)
            if src.__class__ is tuple and not src:
                return False  # an integer never adds a fact
            steps.append((_Engine._store_step, (addr, src, instr.uid)))
        elif cls is Call:
            self._call_plan(meta, instr, steps)
        else:
            return False
        return True

    def _call_plan(
        self,
        meta: _Function,
        instr: Call,
        steps: List[Tuple[Callable[..., Optional[_Step]], tuple]],
    ) -> None:
        """A call site's steps, fixed by the call graph: per target (in
        name order), its interface effect and its parameter/return flow;
        then one step for the implicit calls of all targets."""
        targets = sorted(self.graph.targets(instr.uid))
        # Arguments, then the destination: locals and function objects
        # are numbered in that order.
        args = tuple(self._resolve(meta, arg) for arg in instr.args)
        uid = instr.uid
        call = (self._dst(meta, instr.dst), args, uid)
        edge_info = self.numbering.edge_info
        specs: tuple = ()
        for target in targets:
            effect, spec, defined, target_specs = self._target(target)
            if effect is _Engine._cleanup_step:
                steps.append((effect, call + (spec,)))
            elif effect is not None:
                name = f"{target}@{instr.loc.line}"
                steps.append((effect, call + (spec, name)))
            edge = edge_info.get((uid, target)) if defined else None
            if edge is not None:
                base, _, same_scc = edge
                steps.append((_Engine._propagate_step, call + (
                    target, base, same_scc
                )))
            specs += target_specs
        if specs:
            steps.append((_Engine._implicit_step, call + (specs,)))

    def _target(self, target: str) -> tuple:
        """What a call to ``target`` does at any site: its interface
        effect (a step compiler and spec, or None for none), whether it
        is a reachable defined function, and its implicit-call specs."""
        known = self._targets.get(target)
        if known is None:
            interface = self.interface
            effect = spec = None
            if target in interface.creates:
                effect, spec = _Engine._create_step, interface.creates[target]
            elif target in interface.allocs:
                effect, spec = _Engine._alloc_step, interface.allocs[target]
            elif target in interface.cleanups:
                effect, spec = _Engine._cleanup_step, interface.cleanups[target]
            # deletes have no static points-to effect.
            known = self._targets[target] = (
                effect,
                spec,
                target in self._functions,
                tuple(self.graph.registry.specs(target)),
            )
        return known

    # ------------------------------------------------------------------
    # Reading and writing variables
    # ------------------------------------------------------------------

    def _reader(self, ref: _Ref) -> Callable[[int], _Cell]:
        """``read(vslot)``: the locations ``ref`` holds in the pair whose
        locals start at variable slot ``vslot``.  The caller only reads
        the cell.  A string literal's object is allocated on first read.
        A reader depends on ``ref`` alone, so steps share it."""
        key = ref if ref.__class__ is not StrConst else ("str", ref.site)
        read = self._readers.get(key)
        if read is None:
            read = self._readers[key] = self._new_reader(ref)
        return read

    def _new_reader(self, ref: _Ref) -> Callable[[int], _Cell]:
        if ref.__class__ is int:
            if ref >= 0:
                pts = self._pts
                return lambda vslot: pts[vslot + ref] or ()
            global_pts = self._global_pts
            return lambda vslot: global_pts.get(ref, ())
        if ref.__class__ is tuple:
            return lambda vslot: ref
        strings, number, objects, state = (
            self._strings, self._number, self._objects, self._state
        )
        shift, bias = self._shift, self._bias
        site = ref.site

        def read_string(vslot: int) -> _Cell:
            value = strings.get(site)
            if value is None:
                obj = number(("string", site, 0, f"str{site}"))
                objects.add(obj)
                state.changed = True
                value = strings[site] = (obj << shift | bias,)
            return value

        return read_string

    def _putter(
        self, meta: _Function, index: int
    ) -> Callable[[int, Collection[int]], None]:
        """``put(slot, locations)``: union ``locations`` into local
        ``index`` of ``meta``, at variable slot ``slot`` of the visited
        pair, whose cell differs from them; then mark the pairs that read
        it.  An empty cell takes a 1-tuple as it is.

        The marks depend only on whether the local is read before it may
        grow and whether it is returned, so four putters serve a solve.
        """
        # A growth inside the pair's own visit is seen by the rest of that
        # visit, unless a read of the local precedes the growth.
        reread = meta.reread[index]
        returned = meta.returned[index]
        put = self._putters.get((reread, returned))
        if put is not None:
            return put
        pts, state, dirty = self._pts, self._state, self._dirty
        return_readers = self._return_readers

        def put(slot: int, locations: Collection[int]) -> None:
            cell = pts[slot]
            if not cell and locations.__class__ is tuple and len(locations) < 2:
                pts[slot] = locations
                if not locations:
                    return
                state.changed = True
                state.derived += 1
            elif not _grow(state, pts, slot, cell, locations):
                return
            if reread:
                dirty[state.pair] = 1
            if returned:
                for reader in return_readers.get(state.pair, ()):
                    dirty[reader] = 1

        self._putters[reread, returned] = put
        return put

    def _writer(
        self, meta: _Function, dst: int
    ) -> Callable[[int, Collection[int]], None]:
        """``write(vslot, locations)``: union ``locations`` into variable
        ``dst`` of the visited pair, a local index or a global slot.  A
        writer depends on ``dst`` and the local's marks alone, so steps
        share it."""
        key = (dst, meta.reread[dst], meta.returned[dst]) if dst >= 0 else dst
        write = self._writers.get(key)
        if write is not None:
            return write
        if dst >= 0:
            pts = self._pts
            put = self._putter(meta, dst)

            def write_local(vslot: int, locations: Collection[int]) -> None:
                slot = vslot + dst
                if pts[slot] != locations:
                    put(slot, locations)

            self._writers[key] = write_local
            return write_local
        global_pts, state, dirty = self._global_pts, self._state, self._dirty
        return_readers = self._return_readers
        # A non-address-taken global grew: mark every context of every
        # function that reads it, and the callers of every function
        # returning it.
        readers = tuple(self._global_readers.get(dst, ()))
        returners = tuple(
            range(returner.pair_base, returner.pair_base + returner.contexts)
            for returner in self._global_returners.get(dst, ())
        )

        def write(vslot: int, locations: Collection[int]) -> None:
            cell = global_pts.get(dst)
            if cell != locations and _grow(
                state, global_pts, dst, cell, locations
            ):
                for low, high in readers:
                    dirty[low:high] = b"\x01" * (high - low)
                for returner_pairs in returners:
                    for pair in returner_pairs:
                        for reader in return_readers.get(pair, ()):
                            dirty[reader] = 1

        self._writers[key] = write
        return write

    def _heap_writer(self) -> Callable[[int, Collection[int]], None]:
        """``add(loc, locations)``: union ``locations`` into heap slot
        ``loc`` and mark the pairs that loaded from its object."""
        heap, fields, state = self._heap, self._fields, self._state
        dirty, readers = self._dirty, self._heap_readers
        shift = self._shift
        track_unknown = self.options.track_unknown_offsets

        def add(loc: int, locations: Collection[int]) -> None:
            cell = heap.get(loc)
            if cell is None and track_unknown:
                fields.setdefault(loc >> shift, []).append(loc)
            if cell != locations and _grow(state, heap, loc, cell, locations):
                for reader in readers.get(loc >> shift, ()):
                    dirty[reader] = 1

        return add

    def _region_reader(
        self, ref: _Ref
    ) -> Callable[[int], Tuple[Set[int], bool]]:
        """``regions(vslot)``: the regions ``ref`` may denote, plus
        whether it may be null."""
        read = self._reader(ref)
        flags, shift, mask = self._flags, self._shift, self._mask
        whole = (self._bias, self._none)  # offset 0 or unknown

        def regions(vslot: int) -> Tuple[Set[int], bool]:
            found: Set[int] = set()
            may_be_null = False
            for loc in read(vslot):
                flag = flags[loc >> shift]
                if flag & _REGION and loc & mask in whole:
                    found.add(loc >> shift)
                elif flag & _NULL:
                    may_be_null = True
            return found, may_be_null

        return regions

    def _function_reader(self, ref: _Ref) -> Callable[[int], List[str]]:
        """``names(vslot)``: the functions ``ref`` may point to, in name
        order."""
        read = self._reader(ref)
        table, flags, shift = self._table, self._flags, self._shift

        def names(vslot: int) -> List[str]:
            return sorted({
                table[loc >> shift][3].lstrip("&")
                for loc in read(vslot)
                if flags[loc >> shift] & _FUNC
            })

        return names

    # ------------------------------------------------------------------
    # Step compilers: each takes its step's pre-resolved operands and
    # returns the function a visit calls, or None for a step that can
    # never add a fact.  A local source or destination is read in line;
    # any other goes through _reader/_writer.  A step function binds
    # what it reads as default arguments, not closure cells: a cell is
    # one more object per name per step, and with them a unit's plans
    # took twice the memory.
    # ------------------------------------------------------------------

    def _assign_step(
        self, meta: _Function, dst: Optional[int], src: _Ref
    ) -> Optional[_Step]:
        if dst is None:
            return None
        if dst >= 0 and src.__class__ is int and src >= 0:

            def assign_local(
                vslot: int, pts=self._pts, src=src, dst=dst,
                put=self._putter(meta, dst),
            ) -> None:
                locations = pts[vslot + src] or ()
                slot = vslot + dst
                if pts[slot] != locations:
                    put(slot, locations)

            return assign_local
        write = self._writer(meta, dst)
        if src.__class__ is tuple:
            return lambda vslot, write=write, src=src: write(vslot, src)
        return lambda vslot, write=write, read=self._reader(src): write(
            vslot, read(vslot)
        )

    def _addrof_step(
        self,
        meta: _Function,
        dst: Optional[int],
        kind: str,
        site: int,
        cloned: bool,
        name: str,
    ) -> _Step:
        """``dst = &var``: the stack (or global) object of ``var``, cloned
        per context with heap cloning.  ``memo`` maps a context to the
        object's location, so a repeat visit builds no key."""

        def addrof(
            vslot: int, key=(kind, site, name), cloned=cloned, memo={},
            write=None if dst is None else self._writer(meta, dst),
            number=self._number, objects=self._objects, state=self._state,
            shift=self._shift, bias=self._bias,
        ) -> None:
            ctx = state.ctx if cloned else 0
            value = memo.get(ctx)
            if value is None:
                obj = number((key[0], key[1], ctx, key[2]))
                objects.add(obj)
                value = memo[ctx] = (obj << shift | bias,)
            if write is not None:
                write(vslot, value)

        return addrof

    def _add_shift_step(
        self, meta: _Function, dst: Optional[int], base: _Ref, delta: int
    ) -> Optional[_Step]:
        """``dst = base + delta``: each offset code moves by ``delta``
        while it stays exact, and becomes the unknown code otherwise."""
        if dst is None:
            return None
        if dst >= 0 and base.__class__ is int and base >= 0:

            def add_local(
                vslot: int, pts=self._pts, base=base, dst=dst, delta=delta,
                put=self._putter(meta, dst), shift_all=self._shift_all,
                mask=self._mask, none=self._none, low=self._low,
                high=self._high,
            ) -> None:
                values = pts[vslot + base]
                if values.__class__ is tuple and values:
                    # The common case: one location.
                    (loc,) = values
                    code = loc & mask
                    if code == none:
                        locations = values
                    elif low <= code + delta <= high:
                        locations = (loc + delta,)
                    else:
                        locations = (loc - code + none,)
                else:
                    locations = shift_all(values or (), delta)
                slot = vslot + dst
                if pts[slot] != locations:
                    put(slot, locations)

            return add_local

        def add(
            vslot: int, read=self._reader(base), write=self._writer(meta, dst),
            shift_all=self._shift_all, delta=delta,
        ) -> None:
            write(vslot, shift_all(read(vslot), delta))

        return add

    def _add_fixed_step(
        self, meta: _Function, dst: Optional[int], base: _Ref, code: int
    ) -> Optional[_Step]:
        """An add whose result offset is one code whatever the base's: the
        unknown offset for a dynamic add, 0 when field-insensitive."""
        if dst is None:
            return None

        def add_fixed(
            vslot: int, read=self._reader(base), write=self._writer(meta, dst),
            mask=self._mask, code=code,
        ) -> None:
            moved = [loc - (loc & mask) + code for loc in read(vslot)]
            write(vslot, tuple(moved) if len(moved) < 2 else moved)

        return add_fixed

    def _load_step(
        self, meta: _Function, dst: Optional[int], addr: _Ref
    ) -> Optional[_Step]:
        """``dst = *addr``: the heap cells ``addr`` points to, read by
        reference; a single one is handed on as it is.  The visited pair
        becomes a reader of each object it loads from."""
        if dst is None:
            return None

        def load(
            vslot: int, read=self._reader(addr), write=self._writer(meta, dst),
            heap=self._heap, fields=self._fields, readers=self._heap_readers,
            flags=self._flags, state=self._state, shift=self._shift,
            mask=self._mask, none=self._none,
            track_unknown=self.options.track_unknown_offsets,
        ) -> None:
            cells: List[_Cell] = []
            visiting = state.pair
            for loc in read(vslot):
                obj = loc >> shift
                if flags[obj] & _SKIP:
                    continue
                # Per object, not per slot: an unknown-offset read reads
                # them all.
                _enter(readers, obj, visiting)
                code = loc & mask
                if not track_unknown:
                    if code != none:
                        cells.append(heap.get(loc, ()))
                elif code == none:
                    # Unknown offset reads every field, including the
                    # unknown slot.
                    for field_loc in fields.get(obj, ()):
                        cells.append(heap[field_loc])
                else:
                    cells.append(heap.get(loc, ()))
                    cells.append(heap.get(loc - code + none, ()))
            if len(cells) == 1:
                write(vslot, cells[0])
            else:
                write(vslot, set().union(*cells) if cells else ())

        return load

    def _store_writer(self) -> Callable[[_Cell, _Cell, int], None]:
        """``store_into(values, addrs, uid)``: store ``uid`` writes
        ``values`` through ``addrs``.  Every heap slot ``addrs`` points
        to grows by the values, and a normal object now holding a
        pointer to another object or a region makes an access (sigma in
        the paper)."""
        heap, access_sites, flags = self._heap, self._access_sites, self._flags
        state, add_heap = self._state, self._add_heap
        shift, mask, none = self._shift, self._mask, self._none
        skip_unknown = not self.options.track_unknown_offsets

        def store_into(values: _Cell, addrs: _Cell, uid: int) -> None:
            for loc in addrs:
                flag = flags[loc >> shift]
                if flag & _SKIP:
                    continue
                if skip_unknown and loc & mask == none:
                    continue
                if heap.get(loc) != values:
                    add_heap(loc, values)
                if flag & _NORMAL:
                    for value in values:
                        target = value >> shift
                        if flags[target] & _SKIP:
                            continue
                        key = (loc, target)
                        sites = access_sites.get(key)
                        if sites is None:
                            access_sites[key] = (uid,)
                            state.changed = True
                            state.derived += 1
                        elif sites.__class__ is tuple:
                            if sites[0] != uid:
                                access_sites[key] = {sites[0], uid}
                        else:
                            sites.add(uid)

        return store_into

    def _store_step(
        self, meta: _Function, addr: _Ref, src: _Ref, uid: int
    ) -> _Step:
        """``*addr = src`` (see :meth:`_store_writer`)."""
        if (
            src.__class__ is int and src >= 0
            and addr.__class__ is int and addr >= 0
        ):

            def store_local(
                vslot: int, pts=self._pts, src=src, addr=addr, uid=uid,
                store_into=self._store_into,
            ) -> None:
                values = pts[vslot + src]
                if values:
                    store_into(values, pts[vslot + addr] or (), uid)

            return store_local

        def store(
            vslot: int, read_src=self._reader(src),
            read_addr=self._reader(addr), uid=uid,
            store_into=self._store_into,
        ) -> None:
            values = read_src(vslot)
            if values:
                store_into(values, read_addr(vslot), uid)

        return store

    # ------------------------------------------------------------------
    # Call steps: each takes the call's (dst, args, uid), then its own
    # ------------------------------------------------------------------

    def _create_step(
        self,
        meta: _Function,
        dst: Optional[int],
        args: Tuple[_Ref, ...],
        uid: int,
        spec,
        name: str,
    ) -> _Step:
        """An interface region creation ``rnew``: the region of this site
        and heap context, a subregion of every region its parent argument
        may denote (of the root for none or null).  ``memo`` maps a heap
        context to the region's location."""
        root_parent = spec.parent_arg is None
        parents = (
            self._region_reader(args[spec.parent_arg])
            if not root_parent and spec.parent_arg < len(args)
            else None
        )
        write = read_out = None
        if spec.out_arg is None:
            if dst is not None:
                write = self._writer(meta, dst)
        elif spec.out_arg < len(args):
            read_out = self._reader(args[spec.out_arg])

        def create(
            vslot: int, key=("region", uid, name), memo={},
            root_parent=root_parent, parents=parents, write=write,
            read_out=read_out, add_heap=self._add_heap,
            cloning=self.options.heap_cloning, number=self._number,
            regions=self._regions, subregion=self._subregion,
            flags=self._flags, state=self._state, shift=self._shift,
            bias=self._bias,
        ) -> None:
            ctx = state.ctx if cloning else 0
            value = memo.get(ctx)
            if value is None:
                region = number((key[0], key[1], ctx, key[2]))
                value = memo[ctx] = (region << shift | bias,)
                if region not in regions:
                    regions.add(region)
                    state.changed = True
            region = value[0] >> shift
            found: Set[int] = set()
            if root_parent:
                found.add(ROOT_REGION_ID)
            elif parents is not None:
                found, may_be_null = parents(vslot)
                if may_be_null:
                    found.add(ROOT_REGION_ID)
            for parent in found:
                if parent != region:
                    edge = (region, parent)
                    if edge not in subregion:
                        subregion.add(edge)
                        state.changed = True
            if write is not None:
                write(vslot, value)
            elif read_out is not None:
                for loc in read_out(vslot):
                    if not flags[loc >> shift] & _SKIP:
                        add_heap(loc, value)

        return create

    def _alloc_step(
        self,
        meta: _Function,
        dst: Optional[int],
        args: Tuple[_Ref, ...],
        uid: int,
        spec,
        name: str,
    ) -> _Step:
        """An interface allocation ``ralloc``: the heap object of this
        site and heap context, owned by every region its region argument
        may denote (by the root for null).  ``memo`` maps a heap context
        to the object's location."""

        def alloc(
            vslot: int, key=("heap", uid, name), memo={},
            read=(
                self._reader(args[spec.region_arg])
                if spec.region_arg < len(args)
                else None
            ),
            write=None if dst is None else self._writer(meta, dst),
            cloning=self.options.heap_cloning, number=self._number,
            objects=self._objects, ownership=self._ownership,
            flags=self._flags, state=self._state, shift=self._shift,
            bias=self._bias, mask=self._mask,
            whole=(self._bias, self._none),  # offset 0 or unknown
        ) -> None:
            ctx = state.ctx if cloning else 0
            value = memo.get(ctx)
            if value is None:
                obj = number((key[0], key[1], ctx, key[2]))
                value = memo[ctx] = (obj << shift | bias,)
                if obj not in objects:
                    objects.add(obj)
                    state.changed = True
            obj = value[0] >> shift
            if read is not None:
                for loc in read(vslot):
                    flag = flags[loc >> shift]
                    if flag & _REGION and loc & mask in whole:
                        owned = (loc >> shift, obj)
                    elif flag & _NULL:
                        owned = (ROOT_REGION_ID, obj)
                    else:
                        continue
                    if owned not in ownership:
                        ownership.add(owned)
                        state.changed = True
            if write is not None:
                write(vslot, value)

        return alloc

    def _cleanup_step(
        self,
        meta: _Function,
        dst: Optional[int],
        args: Tuple[_Ref, ...],
        uid: int,
        spec,
    ) -> _Step:
        """A cleanup registration: (region, function, data object) for
        every region, function and normal data object (or null) its
        arguments may denote."""

        def cleanup(
            vslot: int,
            regions_of=(
                self._region_reader(args[spec.region_arg])
                if spec.region_arg < len(args)
                else None
            ),
            read_data=(
                self._reader(args[spec.data_arg])
                if spec.data_arg < len(args)
                else None
            ),
            function_readers=tuple(
                self._function_reader(args[position])
                for position in spec.fn_args
                if position < len(args)
            ),
            cleanups=self._cleanups, flags=self._flags, state=self._state,
            shift=self._shift,
        ) -> None:
            regions: Set[int] = set()
            if regions_of is not None:
                regions, _ = regions_of(vslot)
            data_objs: Set[int] = set()
            if read_data is not None:
                data_objs = {
                    loc >> shift
                    for loc in read_data(vslot)
                    if flags[loc >> shift] & _NORMAL
                }
            fn_names: Set[str] = set()
            for names in function_readers:
                fn_names.update(names(vslot))
            for region in regions:
                for fn_name in fn_names:
                    for data in data_objs or (_NULL_ID,):
                        entry = (region, fn_name, data)
                        if entry not in cleanups:
                            cleanups.add(entry)
                            state.changed = True

        return cleanup

    def _propagate_step(
        self,
        meta: _Function,
        dst: Optional[int],
        args: Tuple[_Ref, ...],
        uid: int,
        target: str,
        base: int,
        same_scc: bool,
    ) -> _Step:
        """The flow along one call edge: arguments into the callee's
        parameters and its return operands into ``dst``.  The callee's
        context is the caller's shifted by the edge's offset, or the
        caller's own inside a strongly connected component."""
        callee = self._functions[target]
        # Arguments in the caller's locals are read in line; the others
        # (globals, constants, string literals) through a reader.
        local_args = []
        other_args = []
        # A parameter's local index is its position.
        for index, arg in enumerate(args[:callee.arity]):
            if arg.__class__ is int and arg >= 0:
                local_args.append((arg, index, callee.returned[index]))
            else:
                other_args.append((self._reader(arg), index, callee.returned[index]))
        returns: Tuple[Callable[[int], _Cell], ...] = ()
        write = None
        if dst is not None and callee.returns:
            returns = tuple(map(self._reader, callee.returns))
            write = self._writer(meta, dst)

        def propagate(
            vslot: int, local_args=tuple(local_args),
            other_args=tuple(other_args), returns=returns, write=write,
            same_scc=same_scc, base=base, contexts=callee.contexts,
            pair_base=callee.pair_base, var_base=callee.var_base,
            size=callee.size, pts=self._pts, state=self._state,
            dirty=self._dirty, return_readers=self._return_readers,
        ) -> None:
            ctx = state.ctx
            callee_ctx = ctx if same_scc else (base + ctx) % contexts
            callee_slot = var_base + callee_ctx * size
            for arg, index, returned in local_args:
                values = pts[vslot + arg]
                if values:
                    slot = callee_slot + index
                    cell = pts[slot]
                    if cell != values and _grow(state, pts, slot, cell, values):
                        _mark_param(
                            dirty, return_readers, pair_base + callee_ctx, returned
                        )
            for read, index, returned in other_args:
                values = read(vslot)
                if values:
                    slot = callee_slot + index
                    cell = pts[slot]
                    if cell != values and _grow(state, pts, slot, cell, values):
                        _mark_param(
                            dirty, return_readers, pair_base + callee_ctx, returned
                        )
            if write is not None:
                _enter(return_readers, pair_base + callee_ctx, state.pair)
                for read in returns:
                    write(vslot, read(callee_slot))

        return propagate

    def _implicit_step(
        self,
        meta: _Function,
        dst: Optional[int],
        args: Tuple[_Ref, ...],
        uid: int,
        specs: tuple,
    ) -> _Step:
        """The implicit calls of a call site's targets (thread creation,
        callback registration): every entry function an entry argument
        may point to gets the data-flow arguments as parameters."""
        if self._layouts is None:
            # Entry name -> (pair_base, var_base, size, returned flags):
            # what a step needs of a callee's layout.
            self._layouts = {
                name: (
                    callee.pair_base,
                    callee.var_base,
                    callee.size,
                    callee.returned,
                )
                for name, callee in self._functions.items()
            }

        def implicit(
            vslot: int,
            calls=tuple(
                (
                    self._function_reader(args[spec.fn_arg]),
                    tuple(
                        (self._reader(args[src_arg]), param_idx)
                        for src_arg, param_idx in spec.data_flow
                        if src_arg < len(args)
                    ),
                )
                for spec in specs
                if spec.fn_arg < len(args)
            ),
            uid=uid, layouts=self._layouts,
            module_functions=self.module.functions, numbering=self.numbering,
            pts=self._pts, extra=self._extra, state=self._state,
            dirty=self._dirty, return_readers=self._return_readers,
        ) -> None:
            for entries, flows in calls:
                for entry in entries(vslot):
                    function = module_functions.get(entry)
                    if function is None:
                        continue
                    callee_ctx = numbering.callee_context(state.ctx, uid, entry)
                    if callee_ctx is None:
                        callee_ctx = 0
                    layout = layouts.get(entry)
                    params = function.params
                    for read, param_idx in flows:
                        if param_idx >= len(params):
                            continue
                        values = read(vslot)
                        if not values:
                            continue
                        if layout is None:
                            # An implicit entry the call graph never reached.
                            key = (entry, callee_ctx, params[param_idx])
                            cell = extra.get(key)
                            if cell != values:
                                _grow(state, extra, key, cell, values)
                            continue
                        # A parameter's local index is its position.
                        pair_base, var_base, size, returned = layout
                        slot = var_base + callee_ctx * size + param_idx
                        cell = pts[slot]
                        if cell != values and _grow(state, pts, slot, cell, values):
                            _mark_param(
                                dirty,
                                return_readers,
                                pair_base + callee_ctx,
                                returned[param_idx],
                            )

        return implicit

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> PointerAnalysisResult:
        functions = self._build_plans()
        # Semi-naive rounds: the round-robin order is kept, but after the
        # first round a pair is visited only if something it reads has
        # grown since its last visit.  A visit is a deterministic function
        # of the sets it reads and only ever unions into sets, so a
        # skipped visit would have added nothing: every fact, and the
        # round count, match visiting every pair every round.
        dirty = self._dirty
        state = self._state
        iterations = 0
        visits = 0
        with trace_span("pointer.solve") as span:
            while True:
                iterations += 1
                state.changed = False
                for meta in functions:
                    plan = meta.plan
                    pair = meta.pair_base
                    vslot = meta.var_base
                    size = meta.size
                    for ctx in range(meta.contexts):
                        if dirty[pair]:
                            dirty[pair] = 0
                            state.pair = pair
                            state.ctx = ctx
                            visits += 1
                            for step in plan:
                                step(vslot)
                        pair += 1
                        vslot += size
                    if self.meter is not None:
                        self._charge_budget()
                if not state.changed:
                    break
            span.set(
                iterations=iterations,
                visits=visits,
                regions=len(self._regions),
                objects=len(self._objects),
            )
        # The plans are spent.  Free them before the result copies the
        # effect sets, the moment a solve's memory would otherwise peak.
        for meta in functions:
            meta.plan = []
        return self._result(functions, iterations, visits)

    def _result(
        self, functions: List[_Function], iterations: int, visits: int
    ) -> PointerAnalysisResult:
        """Hand the effect relations and points-to maps over in the
        engine's numbering; nothing is decoded here."""
        packed = PackedPointsTo(
            table=ObjectTable(tuple(self._table), self._object_ids),
            offset_bits=self._shift,
            bias=self._bias,
            functions=tuple(
                (meta.name, meta.var_base, meta.size, meta.names)
                for meta in functions
            ),
            globals_=tuple(self._globals),
            var=self._pts,
            global_var=self._global_pts,
            extra=self._extra,
            heap=self._heap,
        )
        return PointerAnalysisResult(
            graph=self.graph,
            numbering=self.numbering,
            options=self.options,
            interface=self.interface,
            region_ids=frozenset(self._regions),
            object_ids=frozenset(self._objects),
            subregion_ids=frozenset(self._subregion),
            ownership_ids=frozenset(self._ownership),
            access_site_ids=self._access_sites,
            cleanup_ids=frozenset(self._cleanups),
            iterations=iterations,
            visits=visits,
            packed=packed,
        )

    def _charge_budget(self) -> None:
        """Cooperative checkpoint: runs after each function is processed."""
        assert self.meter is not None
        derived = self._state.derived
        self.meter.charge_tuples(derived - self._charged, "correlation")
        self._charged = derived
        self.meter.charge_objects(
            len(self._objects) + len(self._regions), "correlation"
        )


def _numbering(
    table: List[ObjectKey], flags: bytearray, numbers: Dict[ObjectKey, int]
) -> Callable[[ObjectKey], int]:
    """``number(key)``: the object number of ``key``, the next free one
    if the key is new."""

    def number(key: ObjectKey) -> int:
        found = numbers.get(key)
        if found is None:
            found = numbers[key] = len(table)
            table.append(key)
            flags.append(_KIND_FLAGS[key[0]])
        return found

    return number


def _shifter(
    mask: int, none: int, low: int, high: int
) -> Callable[[Collection[int], int], Collection[int]]:
    """``shift_all(values, delta)``: each location's offset code moved by
    ``delta`` while it stays in ``[low, high]``, the unknown code
    ``none`` otherwise; the unknown code stays."""

    def shift_all(values: Collection[int], delta: int) -> Collection[int]:
        shifted: List[int] = []
        for loc in values:
            code = loc & mask
            if code == none:
                shifted.append(loc)
            elif low <= code + delta <= high:
                shifted.append(loc + delta)
            else:
                shifted.append(loc - code + none)
        return tuple(shifted) if len(shifted) < 2 else shifted

    return shift_all


def _grow(
    state: _Visit,
    cells: Union[List[Optional[_Cell]], Dict[Any, _Cell]],
    key: Any,
    cell: Optional[_Cell],
    locations: Collection[int],
) -> bool:
    """Union ``locations`` into ``cell``, the value of ``cells[key]``
    (None when absent), and store the result; True if it grew.

    ``locations`` is only read: a 1-tuple may be stored as it is, any
    other collection is copied, so a set never sits in two cells.
    """
    if not cell:
        new = locations
        if new.__class__ is not tuple or len(new) > 1:
            new = set(new)
            if len(new) < 2:
                new = tuple(new)
        if not new:
            if cell is None:
                cells[key] = ()
            return False
        added = len(new)
    elif cell.__class__ is tuple:
        (only,) = cell
        if len(locations) == 1:
            (loc,) = locations
            if loc == only:
                return False
            new = {only, loc}
        else:
            new = set(locations)
            new.add(only)
            if len(new) == 1:
                return False
        added = len(new) - 1
    else:
        before = len(cell)
        cell.update(locations)
        added = len(cell) - before
        if not added:
            return False
        new = cell
    cells[key] = new
    state.changed = True
    state.derived += added
    return True


def _mark_param(
    dirty: bytearray, return_readers: Dict[int, _Cell], pair: int, returned: int
) -> None:
    """A parameter of callee pair ``pair`` grew: that pair re-reads it,
    and if the parameter is also returned, so do the pair's callers."""
    dirty[pair] = 1
    if returned:
        for reader in return_readers.get(pair, ()):
            dirty[reader] = 1


def _enter(cells: Dict[Any, _Cell], key: Any, item: int) -> bool:
    """Add ``item`` to the cell ``cells[key]``; True if the key is new."""
    cell = cells.get(key)
    if cell is None:
        cells[key] = (item,)
        return True
    if cell.__class__ is tuple:
        if cell[0] != item:
            cells[key] = {cell[0], item}
    else:
        cell.add(item)
    return False


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
