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
kept inline as a 1-tuple until a second location arrives.  The result
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
# One plan entry: a transfer function and its pre-resolved instruction.
_Step = Tuple[Callable[..., None], tuple]


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


class _Function:
    """A reachable defined function's place in the dense layout.

    Its (function, context) pairs are ``pair_base + c``; its locals in
    context ``c`` are the variable slots ``var_base + c * size + index``,
    parameters first.
    """

    __slots__ = (
        "name",
        "pair_base",
        "contexts",
        "var_base",
        "size",
        "index",
        "plan",
        "returns",
        "reread",
        "returned",
        "watch",
    )

    def __init__(
        self, name: str, params: List[str], pair_base: int, contexts: int
    ) -> None:
        self.name = name
        self.pair_base = pair_base
        self.contexts = contexts
        self.var_base = 0
        self.index: Dict[str, int] = {}
        for param in params:
            self.local(param)
        self.size = len(self.index)
        self.plan: List[_Step] = []
        # The function's return operands.
        self.returns: List[_Ref] = []
        # Per local index: read before it may grow (reread), named by a
        # return operand (returned), or either (watch); see _index_reads.
        self.reread = self.returned = self.watch = bytearray()

    def local(self, name: str) -> int:
        index = self.index.get(name)
        if index is None:
            index = self.index[name] = len(self.index)
        return index


class _Engine:
    """The semi-naive solver, on dense integers.

    * **Objects** are numbered when first allocated; ``_table`` keeps one
      :data:`ObjectKey` per number, memoised per key, and ``_flags`` its
      kind bits.  The result builds an :class:`AbstractObject` only for
      a number someone reads (:class:`ObjectTable`).
    * **Locations** are ints: ``object << _shift | offset code`` (see
      :class:`PackedPointsTo`).
    * **Variables** are int slots: ``_pts`` is one list over the local
      slots, sized by :meth:`_build_plans`, and ``_global_pts`` maps the
      negative global slots.  Plans are built once, with every operand
      resolved to a local index, a global slot or a constant
      (:data:`_Ref`), so a visit looks nothing up by name.
    * **Points-to sets** are :data:`_Cell` values, grown by :meth:`_grow`.
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
        self._object_id("null", 0, 0, "<null>")
        self._object_id("root", 0, 0, "<root>")
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
        self._changed = False
        # Semi-naive bookkeeping (see run): one dirty mark per pair.
        self._dirty = bytearray()
        # The pair being visited: its function, context, pair slot, first
        # variable slot and watched locals (see _add_var).
        self._vfunc: Optional[_Function] = None
        self._vctx = -1
        self._vpair = -1
        self._vslot = 0
        self._watch = bytearray()
        # Per global slot: the pair ranges of the functions whose operands
        # read it, and the functions that return it.
        self._global_readers: Dict[int, List[Tuple[int, int]]] = {}
        self._global_returners: Dict[int, List[_Function]] = {}
        # Callee pair -> the caller pairs that read its return operands.
        self._return_readers: Dict[int, _Cell] = {}
        # Object -> the pairs that loaded from any of its fields.
        self._heap_readers: Dict[int, _Cell] = {}
        # Derived-fact counter for budget accounting (points-to tuples
        # plus effect tuples); charged incrementally against the meter.
        self._derived = 0
        self._charged = 0

    # ------------------------------------------------------------------
    # Objects and operands
    # ------------------------------------------------------------------

    def _object_id(self, kind: str, site: int, ctx: int, name: str) -> int:
        key = (kind, site, ctx, name)
        number = self._object_ids.get(key)
        if number is None:
            number = self._object_ids[key] = len(self._table)
            self._table.append(key)
            self._flags.append(_KIND_FLAGS[kind])
        return number

    def _loc(self, obj: int) -> int:
        """``obj`` at offset 0."""
        return obj << self._shift | self._bias

    def _resolve(self, function: _Function, operand: Operand) -> _Ref:
        if isinstance(operand, Temp):
            return function.local(f"t{operand.id}")
        if isinstance(operand, VarOp):
            if operand.kind == "global":
                return self._global(operand.name)
            return function.local(operand.name)
        if isinstance(operand, NullConst):
            return self._null_value
        if isinstance(operand, StrConst):
            return operand
        if isinstance(operand, FuncAddr):
            func = self._object_id("func", 0, 0, f"&{operand.name}")
            return (self._loc(func),)
        return ()  # integer constants

    def _global(self, name: str) -> int:
        slot = self._globals.get(name)
        if slot is None:
            slot = self._globals[name] = ~len(self._globals)
        return slot

    def _value(self, vslot: int, ref: _Ref) -> _Cell:
        """The locations ``ref`` holds in the pair whose locals start at
        variable slot ``vslot``.  The caller only reads the cell."""
        if ref.__class__ is int:
            if ref >= 0:
                return self._pts[vslot + ref] or ()
            return self._global_pts.get(ref, ())
        if ref.__class__ is tuple:
            return ref
        value = self._strings.get(ref.site)
        if value is None:
            obj = self._object_id("string", ref.site, 0, f"str{ref.site}")
            self._objects.add(obj)
            self._changed = True
            value = self._strings[ref.site] = (self._loc(obj),)
        return value

    # ------------------------------------------------------------------
    # Growing cells and marking their readers
    # ------------------------------------------------------------------

    def _grow(
        self,
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
        self._changed = True
        self._derived += added
        return True

    def _add_var(self, ref: int, locations: Collection[int]) -> None:
        """Union ``locations`` into variable ``ref`` of the visited pair."""
        if ref < 0:
            cells = self._global_pts
            cell = cells.get(ref)
            if cell != locations and self._grow(cells, ref, cell, locations):
                self._mark_global(ref)
            return
        slot = self._vslot + ref
        cell = self._pts[slot]
        # Equal cells add nothing: the common case once a pair has been
        # visited, where both are the same one location.
        if cell != locations and self._grow(self._pts, slot, cell, locations):
            # The common case needs no mark: a local of the pair being
            # visited that only later instructions of this visit read.
            if self._watch[ref]:
                self._mark_local(self._vfunc, self._vctx, ref)

    def _add_param(
        self,
        callee: _Function,
        ctx: int,
        index: int,
        locations: Collection[int],
    ) -> None:
        slot = callee.var_base + ctx * callee.size + index
        cell = self._pts[slot]
        if cell != locations and self._grow(self._pts, slot, cell, locations):
            self._mark_local(callee, ctx, index)

    def _mark_local(self, function: _Function, ctx: int, index: int) -> None:
        """Mark dirty every pair whose visit reads local ``index`` of
        ``function`` in context ``ctx``."""
        dirty = self._dirty
        pair = function.pair_base + ctx
        # A growth inside the pair's own visit is seen by the rest of that
        # visit, unless a read of the variable precedes the growth.
        if pair != self._vpair or function.reread[index]:
            dirty[pair] = 1
        if function.returned[index]:
            for reader in self._return_readers.get(pair, ()):
                dirty[reader] = 1

    def _mark_global(self, slot: int) -> None:
        """A non-address-taken global grew: mark every context of every
        function that reads it, and the callers of every function
        returning it."""
        dirty = self._dirty
        for low, high in self._global_readers.get(slot, ()):
            dirty[low:high] = b"\x01" * (high - low)
        for returner in self._global_returners.get(slot, ()):
            base = returner.pair_base
            for pair in range(base, base + returner.contexts):
                for reader in self._return_readers.get(pair, ()):
                    dirty[reader] = 1

    def _add_heap(self, loc: int, locations: Collection[int]) -> None:
        heap = self._heap
        cell = heap.get(loc)
        if cell is None and self.options.track_unknown_offsets:
            self._fields.setdefault(loc >> self._shift, []).append(loc)
        if cell != locations and self._grow(heap, loc, cell, locations):
            dirty = self._dirty
            for reader in self._heap_readers.get(loc >> self._shift, ()):
                dirty[reader] = 1

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------

    def _build_plans(self) -> List[_Function]:
        """Per reachable defined function, in visiting order: its pairs,
        its plan of pre-resolved steps, and its variable layout."""
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
        var_base = 0
        for meta in functions:
            function = self.module.functions[meta.name]
            read: Set[str] = set()
            reread: Set[str] = set(function.params)
            globals_read: Set[str] = set()
            for instr in function.instrs:
                step = self._plan_step(meta, instr, stack_sites)
                if step is None:
                    if isinstance(instr, Return) and instr.src is not None:
                        meta.returns.append(self._resolve(meta, instr.src))
                    continue
                meta.plan.append(step)
                self._index_reads(instr, read, reread, globals_read)
            pair_range = (meta.pair_base, meta.pair_base + meta.contexts)
            for variable in globals_read:
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
            meta.watch = bytearray(
                a | b for a, b in zip(meta.reread, meta.returned)
            )
        self._dirty = bytearray(b"\x01") * pairs
        self._pts = [None] * var_base
        return functions

    def _index_reads(
        self,
        instr,
        read: Set[str],
        reread: Set[str],
        globals_read: Set[str],
    ) -> None:
        """Record, statically, which variables a visit reads: the locals
        it may read before it grows them (``reread``: the parameters,
        plus every local defined at or after an instruction that reads
        it), and the globals it reads."""
        for operand in instr.operands():
            if isinstance(operand, VarOp) and operand.kind == "global":
                globals_read.add(operand.name)
            elif isinstance(operand, VarOp):
                read.add(operand.name)
            elif isinstance(operand, Temp):
                read.add(f"t{operand.id}")
        dst = getattr(instr, "dst", None)
        if isinstance(dst, Temp):
            if f"t{dst.id}" in read:
                reread.add(f"t{dst.id}")
        elif isinstance(dst, VarOp) and dst.kind != "global":
            if dst.name in read:
                reread.add(dst.name)

    def _dst(self, meta: _Function, operand) -> Optional[int]:
        ref = None if operand is None else self._resolve(meta, operand)
        return ref if ref.__class__ is int else None

    def _plan_step(
        self, meta: _Function, instr, stack_sites: Dict[Tuple[str, str], int]
    ) -> Optional[_Step]:
        """``instr``'s transfer function and its pre-resolved operands;
        None for an instruction that moves no points-to facts."""
        cls = instr.__class__
        if cls is Assign:
            return (_Engine._assign, (
                self._dst(meta, instr.dst), self._resolve(meta, instr.src)
            ))
        if cls is AddrOf:
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
            return (_Engine._addrof, (self._dst(meta, instr.dst),) + target)
        if cls is Add:
            operands = (
                self._dst(meta, instr.dst), self._resolve(meta, instr.base)
            )
            if not self.options.field_sensitive:
                return (_Engine._add_fixed, operands + (self._bias,))
            if instr.offset is None:
                return (_Engine._add_fixed, operands + (self._none,))
            return (_Engine._add_shift, operands + (instr.offset,))
        if cls is Load:
            return (_Engine._load, (
                self._dst(meta, instr.dst), self._resolve(meta, instr.addr)
            ))
        if cls is Store:
            return (_Engine._store, (
                self._resolve(meta, instr.addr),
                self._resolve(meta, instr.src),
                instr.uid,
            ))
        if cls is Call:
            return (_Engine._call, self._call_plan(meta, instr))
        return None

    def _call_plan(self, meta: _Function, instr: Call) -> tuple:
        """A call site's work, fixed by the call graph: per target (in
        name order), the interface effect and the parameter/return flow;
        then the implicit-call specs of all targets."""
        interface = self.interface
        registry = self.graph.registry
        targets = sorted(self.graph.targets(instr.uid))
        line = instr.loc.line
        steps: List[Tuple[Callable[..., None], tuple]] = []
        for target in targets:
            # The create/alloc steps carry a memo: heap context -> the
            # object number of (site, context, name), which they fix.
            if target in interface.creates:
                steps.append((_Engine._interface_create, (
                    interface.creates[target], f"{target}@{line}", {}
                )))
            elif target in interface.allocs:
                steps.append((_Engine._interface_alloc, (
                    interface.allocs[target], f"{target}@{line}", {}
                )))
            elif target in interface.cleanups:
                steps.append((_Engine._interface_cleanup, (
                    interface.cleanups[target],
                )))
            # deletes have no static points-to effect.
            callee = self._functions.get(target)
            edge = self.numbering.edge_info.get((instr.uid, target))
            if callee is not None and edge is not None:
                base, _, same_scc = edge
                params = tuple(
                    (self._resolve(meta, arg), callee.index[param])
                    for arg, param in zip(
                        instr.args, self.module.functions[target].params
                    )
                )
                steps.append((_Engine._propagate_call, (
                    callee, base, same_scc, params
                )))
        specs = tuple(
            spec for target in targets for spec in registry.specs(target)
        )
        args = tuple(self._resolve(meta, arg) for arg in instr.args)
        dst = self._dst(meta, instr.dst)
        return (dst, args, instr.uid, tuple(steps), specs)

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
        iterations = 0
        visits = 0
        with trace_span("pointer.solve") as span:
            while True:
                iterations += 1
                self._changed = False
                for meta in functions:
                    plan = meta.plan
                    pair = meta.pair_base
                    vslot = meta.var_base
                    self._vfunc = meta
                    self._watch = meta.watch
                    for ctx in range(meta.contexts):
                        if dirty[pair]:
                            dirty[pair] = 0
                            self._vpair = pair
                            self._vctx = ctx
                            self._vslot = vslot
                            visits += 1
                            for handler, step in plan:
                                handler(self, step)
                        pair += 1
                        vslot += meta.size
                    if self.meter is not None:
                        self._charge_budget()
                if not self._changed:
                    break
            self._vfunc = None
            self._vpair = -1
            span.set(
                iterations=iterations,
                visits=visits,
                regions=len(self._regions),
                objects=len(self._objects),
            )
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
                (meta.name, meta.var_base, meta.size, tuple(meta.index))
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
        self.meter.charge_tuples(self._derived - self._charged, "correlation")
        self._charged = self._derived
        self.meter.charge_objects(
            len(self._objects) + len(self._regions), "correlation"
        )

    # ------------------------------------------------------------------
    # Transfer functions: each takes its plan step's operands
    # ------------------------------------------------------------------

    def _assign(self, step: tuple) -> None:
        dst, src = step
        if dst is not None:
            self._add_var(dst, self._value(self._vslot, src))

    def _addrof(self, step: tuple) -> None:
        dst, kind, site, cloned, name = step
        obj = self._object_id(kind, site, self._vctx if cloned else 0, name)
        self._objects.add(obj)
        if dst is not None:
            self._add_var(dst, (self._loc(obj),))

    def _add_shift(self, step: tuple) -> None:
        dst, base, delta = step
        if dst is None:
            return
        mask, none, low, high = self._mask, self._none, self._low, self._high
        shifted: List[int] = []
        for loc in self._value(self._vslot, base):
            code = loc & mask
            if code == none:
                shifted.append(loc)
            elif low <= code + delta <= high:
                shifted.append(loc + delta)
            else:
                shifted.append(loc - code + none)
        self._add_var(dst, tuple(shifted) if len(shifted) < 2 else shifted)

    def _add_fixed(self, step: tuple) -> None:
        """An add whose result offset is one code whatever the base's: the
        unknown offset for a dynamic add, 0 when field-insensitive."""
        dst, base, code = step
        if dst is not None:
            mask = self._mask
            moved = [
                loc - (loc & mask) + code
                for loc in self._value(self._vslot, base)
            ]
            self._add_var(dst, tuple(moved) if len(moved) < 2 else moved)

    def _load(self, step: tuple) -> None:
        dst, addr = step
        if dst is None:
            return
        # The cells read, by reference; a single one is handed on as it is.
        cells: List[_Cell] = []
        shift, mask, none = self._shift, self._mask, self._none
        flags = self._flags
        heap = self._heap
        readers = self._heap_readers
        visiting = self._vpair
        track_unknown = self.options.track_unknown_offsets
        for loc in self._value(self._vslot, addr):
            obj = loc >> shift
            if flags[obj] & _SKIP:
                continue
            # Per object, not per slot: an unknown-offset read reads them all.
            _enter(readers, obj, visiting)
            code = loc & mask
            if not track_unknown:
                if code != none:
                    cells.append(heap.get(loc, ()))
            elif code == none:
                # Unknown offset reads every field, including the unknown slot.
                for field_loc in self._fields.get(obj, ()):
                    cells.append(heap[field_loc])
            else:
                cells.append(heap.get(loc, ()))
                cells.append(heap.get(loc - code + none, ()))
        if len(cells) == 1:
            self._add_var(dst, cells[0])
        else:
            self._add_var(dst, set().union(*cells) if cells else ())

    def _store(self, step: tuple) -> None:
        addr, src, uid = step
        values = self._value(self._vslot, src)
        if not values:
            return
        shift, mask, none = self._shift, self._mask, self._none
        flags = self._flags
        track_unknown = self.options.track_unknown_offsets
        access_sites = self._access_sites
        for loc in self._value(self._vslot, addr):
            flag = flags[loc >> shift]
            if flag & _SKIP:
                continue
            if not track_unknown and loc & mask == none:
                continue
            self._add_heap(loc, values)
            # Record the access effect: a normal object holding a pointer
            # to another object or to a region (sigma in the paper).
            if flag & _NORMAL:
                for value in values:
                    target = value >> shift
                    if flags[target] & _SKIP:
                        continue
                    if _enter(access_sites, (loc, target), uid):
                        self._changed = True
                        self._derived += 1

    # ------------------------------------------------------------------
    # Calls: a call step is (dst, args, uid, per-target steps, specs)
    # ------------------------------------------------------------------

    def _call(self, step: tuple) -> None:
        for handler, target_step in step[3]:
            handler(self, step, target_step)
        if step[4]:
            self._propagate_implicit(step)

    def _region_args(self, ref: _Ref) -> Tuple[Set[int], bool]:
        """Regions an operand may denote, plus whether it may be null."""
        regions: Set[int] = set()
        may_be_null = False
        shift, mask = self._shift, self._mask
        whole = (self._bias, self._none)  # offset 0 or unknown
        flags = self._flags
        for loc in self._value(self._vslot, ref):
            flag = flags[loc >> shift]
            if flag & _REGION and loc & mask in whole:
                regions.add(loc >> shift)
            elif flag & _NULL:
                may_be_null = True
        return regions, may_be_null

    def _heap_ctx(self) -> int:
        return self._vctx if self.options.heap_cloning else 0

    def _interface_create(self, call: tuple, target_step: tuple) -> None:
        dst, args, uid = call[0], call[1], call[2]
        spec, name, memo = target_step
        ctx = self._heap_ctx()
        region = memo.get(ctx)
        if region is None:
            region = memo[ctx] = self._object_id("region", uid, ctx, name)
            if region not in self._regions:
                self._regions.add(region)
                self._changed = True
        parents: Set[int] = set()
        if spec.parent_arg is None:
            parents.add(ROOT_REGION_ID)
        elif spec.parent_arg < len(args):
            found, may_be_null = self._region_args(args[spec.parent_arg])
            parents |= found
            if may_be_null:
                parents.add(ROOT_REGION_ID)
        for parent in parents:
            if parent != region:
                edge = (region, parent)
                if edge not in self._subregion:
                    self._subregion.add(edge)
                    self._changed = True
        if spec.out_arg is None:
            if dst is not None:
                self._add_var(dst, (self._loc(region),))
        elif spec.out_arg < len(args):
            flags = self._flags
            for loc in self._value(self._vslot, args[spec.out_arg]):
                if flags[loc >> self._shift] & _SKIP:
                    continue
                self._add_heap(loc, (self._loc(region),))

    def _interface_alloc(self, call: tuple, target_step: tuple) -> None:
        dst, args, uid = call[0], call[1], call[2]
        spec, name, memo = target_step
        ctx = self._heap_ctx()
        obj = memo.get(ctx)
        if obj is None:
            obj = memo[ctx] = self._object_id("heap", uid, ctx, name)
            if obj not in self._objects:
                self._objects.add(obj)
                self._changed = True
        owners: Set[int] = set()
        if spec.region_arg < len(args):
            found, may_be_null = self._region_args(args[spec.region_arg])
            owners |= found
            if may_be_null:
                owners.add(ROOT_REGION_ID)
        for owner in owners:
            pair = (owner, obj)
            if pair not in self._ownership:
                self._ownership.add(pair)
                self._changed = True
        if dst is not None:
            self._add_var(dst, (self._loc(obj),))

    def _function_names(self, ref: _Ref) -> List[str]:
        """The functions an operand may point to, in name order."""
        shift = self._shift
        return sorted({
            self._table[loc >> shift][3].lstrip("&")
            for loc in self._value(self._vslot, ref)
            if self._flags[loc >> shift] & _FUNC
        })

    def _interface_cleanup(self, call: tuple, target_step: tuple) -> None:
        args = call[1]
        (spec,) = target_step
        regions: Set[int] = set()
        if spec.region_arg < len(args):
            regions, _ = self._region_args(args[spec.region_arg])
        data_objs: Set[int] = set()
        if spec.data_arg < len(args):
            shift = self._shift
            data_objs = {
                loc >> shift
                for loc in self._value(self._vslot, args[spec.data_arg])
                if self._flags[loc >> shift] & _NORMAL
            }
        fn_names: Set[str] = set()
        for position in spec.fn_args:
            if position < len(args):
                fn_names.update(self._function_names(args[position]))
        for region in regions:
            for fn_name in fn_names:
                for data in data_objs or (_NULL_ID,):
                    entry = (region, fn_name, data)
                    if entry not in self._cleanups:
                        self._cleanups.add(entry)
                        self._changed = True

    def _propagate_call(self, call: tuple, target_step: tuple) -> None:
        callee, base, same_scc, params = target_step
        ctx = self._vctx
        callee_ctx = ctx if same_scc else (base + ctx) % callee.contexts
        vslot = self._vslot
        for arg, index in params:
            values = self._value(vslot, arg)
            if values:
                self._add_param(callee, callee_ctx, index, values)
        dst = call[0]
        if dst is not None and callee.returns:
            callee_pair = callee.pair_base + callee_ctx
            _enter(self._return_readers, callee_pair, self._vpair)
            callee_slot = callee.var_base + callee_ctx * callee.size
            for ref in callee.returns:
                self._add_var(dst, self._value(callee_slot, ref))

    def _propagate_implicit(self, call: tuple) -> None:
        _, args, uid, _, specs = call
        for spec in specs:
            if spec.fn_arg >= len(args):
                continue
            for entry in self._function_names(args[spec.fn_arg]):
                function = self.module.functions.get(entry)
                if function is None:
                    continue
                callee_ctx = self.numbering.callee_context(
                    self._vctx, uid, entry
                )
                if callee_ctx is None:
                    callee_ctx = 0
                callee = self._functions.get(entry)
                for src_arg, param_idx in spec.data_flow:
                    if (
                        src_arg < len(args)
                        and param_idx < len(function.params)
                    ):
                        values = self._value(self._vslot, args[src_arg])
                        if not values:
                            continue
                        param = function.params[param_idx]
                        if callee is not None:
                            self._add_param(
                                callee, callee_ctx, callee.index[param], values
                            )
                        else:
                            # An implicit entry the call graph never reached.
                            key = (entry, callee_ctx, param)
                            cell = self._extra.get(key)
                            if cell != values:
                                self._grow(self._extra, key, cell, values)


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
