"""The paper's toy language (Section 4.1) and its two semantics.

The language::

    s ::= x = null | x = rnew y | x = ralloc y | x = y
        | x = y.f | x.f = y | s1 ; s2 | if ~ s1 else s2 | while ~ s

``~`` is an unknown condition, so the *concrete* big-step semantics
(Figure 4) is nondeterministic: an execution is driven by a decision
oracle choosing branch arms and loop continuations.  Each run produces the
final environment/heap plus the three effects ``pi`` (subregion), ``phi``
(ownership), and ``sigma`` (access) -- exactly the judgment
``s, rho, delta -> rho', delta', pi, phi, sigma``.

The *abstract* semantics (Section 4.3) is the flow-insensitive
Andersen-style analysis: allocation sites are the abstract locations,
branch arms join, loops run to fixpoint.  Its effects over-approximate
every concrete run's effects -- the property-based soundness tests in
``tests/core/test_toylang_soundness.py`` check precisely that, plus that
the verification verdict has no false negatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.core.hierarchy import RegionHierarchy, build_hierarchy

__all__ = [
    "Init",
    "New",
    "Alloc",
    "Copy",
    "LoadField",
    "StoreField",
    "Seq",
    "Branch",
    "Loop",
    "seq",
    "RegionVal",
    "ObjectVal",
    "TOY_ROOT",
    "ToyError",
    "ConcreteState",
    "run_concrete",
    "AbstractResult",
    "run_abstract",
    "concrete_violations",
    "abstract_violations",
]


# ---------------------------------------------------------------------------
# Syntax.  Each statement carries a ``site`` label (unique per program
# point) used by the abstract semantics as its allocation-site names.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Init:
    """``x = null``"""

    x: str
    site: int = 0


@dataclass(frozen=True)
class New:
    """``x = rnew y`` -- new subregion of the region y refers to."""

    x: str
    y: Optional[str]  # None encodes the literal null (root region)
    site: int = 0


@dataclass(frozen=True)
class Alloc:
    """``x = ralloc y`` -- new normal object in region y."""

    x: str
    y: Optional[str]
    site: int = 0


@dataclass(frozen=True)
class Copy:
    """``x = y``"""

    x: str
    y: str
    site: int = 0


@dataclass(frozen=True)
class LoadField:
    """``x = y.f``"""

    x: str
    y: str
    f: str
    site: int = 0


@dataclass(frozen=True)
class StoreField:
    """``x.f = y``"""

    x: str
    f: str
    y: str
    site: int = 0


@dataclass(frozen=True)
class Seq:
    first: "Stmt"
    second: "Stmt"


@dataclass(frozen=True)
class Branch:
    """``if ~ s1 else s2`` with an unknown condition."""

    then: "Stmt"
    other: "Stmt"


@dataclass(frozen=True)
class Loop:
    """``while ~ s`` with an unknown condition."""

    body: "Stmt"


Stmt = Union[Init, New, Alloc, Copy, LoadField, StoreField, Seq, Branch, Loop]


def seq(*stmts: Stmt) -> Stmt:
    """Right-fold statements into nested Seq (empty -> no-op Init)."""
    if not stmts:
        return Init("_", site=0)
    result = stmts[-1]
    for stmt in reversed(stmts[:-1]):
        result = Seq(stmt, result)
    return result


# ---------------------------------------------------------------------------
# Concrete semantics (Figure 4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionVal:
    id: int
    site: int = 0

    def __str__(self) -> str:
        return "Ω" if self.id == 0 else f"ρ{self.id}"


@dataclass(frozen=True)
class ObjectVal:
    id: int
    site: int = 0

    def __str__(self) -> str:
        return f"h{self.id}"


TOY_ROOT = RegionVal(0)
Value = Union[RegionVal, ObjectVal, None]


class ToyError(Exception):
    """Dynamic type errors (rnew of a normal object, field of a region...)."""


@dataclass
class ConcreteState:
    """Final state and effects of one nondeterministic execution."""

    env: Dict[str, Value] = field(default_factory=dict)
    heap: Dict[Tuple[ObjectVal, str], Value] = field(default_factory=dict)
    pi: Set[Tuple[RegionVal, RegionVal]] = field(default_factory=set)
    phi: Set[Tuple[RegionVal, Union[RegionVal, ObjectVal]]] = field(
        default_factory=set
    )
    sigma: Set[Tuple[ObjectVal, Union[RegionVal, ObjectVal]]] = field(
        default_factory=set
    )
    _fresh: "itertools.count" = field(default_factory=lambda: itertools.count(1))


def run_concrete(
    stmt: Stmt,
    oracle: Callable[[], bool],
    max_steps: int = 10_000,
) -> ConcreteState:
    """Execute under a decision oracle; returns the state with effects.

    The oracle decides each ``~``: branch direction and whether a loop
    iterates (polled before every iteration).  ``max_steps`` bounds loop
    unrolling so adversarial oracles terminate.
    """
    state = ConcreteState()
    steps = [0]

    def region_of(var: Optional[str]) -> RegionVal:
        # The paper's rho-hat: null means the root region.
        if var is None:
            return TOY_ROOT
        value = state.env.get(var)
        if value is None:
            return TOY_ROOT
        if isinstance(value, RegionVal):
            return value
        raise ToyError(f"{var} refers to a normal object, not a region")

    def execute(node: Stmt) -> None:
        steps[0] += 1
        if steps[0] > max_steps:
            raise ToyError("execution budget exceeded")
        if isinstance(node, Init):
            state.env[node.x] = None
        elif isinstance(node, New):  # rule (4.2)
            parent = region_of(node.y)
            region = RegionVal(next(state._fresh), node.site)
            state.env[node.x] = region
            state.pi.add((region, parent))
        elif isinstance(node, Alloc):  # rule (4.3)
            region = region_of(node.y)
            obj = ObjectVal(next(state._fresh), node.site)
            state.env[node.x] = obj
            state.phi.add((region, obj))
        elif isinstance(node, Copy):  # rule (4.4)
            state.env[node.x] = state.env.get(node.y)
        elif isinstance(node, LoadField):  # rule (4.5)
            value = state.env.get(node.y)
            if not isinstance(value, ObjectVal):
                raise ToyError(f"{node.y} is not a normal object")
            state.env[node.x] = state.heap.get((value, node.f))
        elif isinstance(node, StoreField):  # rule (4.6)
            target = state.env.get(node.x)
            if not isinstance(target, ObjectVal):
                raise ToyError(f"{node.x} is not a normal object")
            value = state.env.get(node.y)
            state.heap[(target, node.f)] = value
            if value is not None:
                state.sigma.add((target, value))
        elif isinstance(node, Seq):  # rule (4.7)
            execute(node.first)
            execute(node.second)
        elif isinstance(node, Branch):  # rules (4.8)/(4.9)
            execute(node.then if oracle() else node.other)
        elif isinstance(node, Loop):  # rules (4.10)/(4.11)
            while oracle():
                steps[0] += 1
                if steps[0] > max_steps:
                    break
                execute(node.body)
        else:
            raise ToyError(f"unknown statement {node!r}")

    execute(stmt)
    return state


# ---------------------------------------------------------------------------
# Abstract semantics (Section 4.3)
# ---------------------------------------------------------------------------

# Abstract locations: the allocation site labels, plus the root region 0
# and the null marker -1 (a variable that may be null denotes the root
# region when used as an rnew/ralloc argument).
AbsLoc = int
ABS_ROOT: AbsLoc = 0
ABS_NULL: AbsLoc = -1


@dataclass
class AbstractResult:
    """Flow-insensitive abstract contexts and effects."""

    env: Dict[str, FrozenSet[AbsLoc]]
    heap: Dict[Tuple[AbsLoc, str], FrozenSet[AbsLoc]]
    region_sites: FrozenSet[AbsLoc]
    object_sites: FrozenSet[AbsLoc]
    pi: FrozenSet[Tuple[AbsLoc, AbsLoc]]
    phi: FrozenSet[Tuple[AbsLoc, AbsLoc]]
    sigma: FrozenSet[Tuple[AbsLoc, AbsLoc]]

    def hierarchy(self) -> RegionHierarchy:
        """Canonical tree per Section 4.3 (joins for multi-parent regions)."""
        return build_hierarchy(self.region_sites, self.pi, root=ABS_ROOT)


def run_abstract(stmt: Stmt) -> AbstractResult:
    """The standard Andersen-style abstract interpretation of the paper."""
    env: Dict[str, Set[AbsLoc]] = {}
    heap: Dict[Tuple[AbsLoc, str], Set[AbsLoc]] = {}
    region_sites: Set[AbsLoc] = {ABS_ROOT}
    object_sites: Set[AbsLoc] = set()
    pi: Set[Tuple[AbsLoc, AbsLoc]] = set()
    phi: Set[Tuple[AbsLoc, AbsLoc]] = set()
    sigma: Set[Tuple[AbsLoc, AbsLoc]] = set()
    changed = [True]

    def add(bucket: Set, values) -> None:
        before = len(bucket)
        bucket.update(values)
        if len(bucket) != before:
            changed[0] = True

    def regions_of(var: Optional[str]) -> Set[AbsLoc]:
        if var is None:
            return {ABS_ROOT}
        values = env.get(var, set())
        found = {v for v in values if v in region_sites}
        # An unassigned or possibly-null variable denotes the root region
        # (rule rho-hat of Section 4.1); flow-insensitive soundness
        # requires considering the null possibility whenever it exists.
        if ABS_NULL in values or not values:
            found.add(ABS_ROOT)
        return found

    def walk(node: Stmt) -> None:
        if isinstance(node, Init):
            add(env.setdefault(node.x, set()), {ABS_NULL})
        elif isinstance(node, New):
            region_sites.add(node.site)
            parents = regions_of(node.y)
            add(env.setdefault(node.x, set()), {node.site})
            for parent in parents:
                if parent != node.site:
                    add(pi, {(node.site, parent)})
        elif isinstance(node, Alloc):
            object_sites.add(node.site)
            owners = regions_of(node.y)
            add(env.setdefault(node.x, set()), {node.site})
            for region in owners:
                add(phi, {(region, node.site)})
        elif isinstance(node, Copy):
            add(env.setdefault(node.x, set()), env.get(node.y, set()))
        elif isinstance(node, LoadField):
            bucket = env.setdefault(node.x, set())
            add(bucket, {ABS_NULL})  # unset fields read as null
            # A snapshot: ``x = x.f`` grows the set it walks.
            for loc in list(env.get(node.y, set())):
                if loc in object_sites:
                    add(bucket, heap.get((loc, node.f), set()))
        elif isinstance(node, StoreField):
            values = env.get(node.y, set())
            for loc in env.get(node.x, set()):
                if loc in object_sites:
                    add(heap.setdefault((loc, node.f), set()), values)
                    add(
                        sigma,
                        {(loc, v) for v in values if v != ABS_NULL},
                    )
        elif isinstance(node, Seq):
            walk(node.first)
            walk(node.second)
        elif isinstance(node, Branch):
            walk(node.then)
            walk(node.other)
        elif isinstance(node, Loop):
            walk(node.body)

    while changed[0]:
        changed[0] = False
        walk(stmt)

    return AbstractResult(
        env={k: frozenset(v) for k, v in env.items()},
        heap={k: frozenset(v) for k, v in heap.items()},
        region_sites=frozenset(region_sites),
        object_sites=frozenset(object_sites),
        pi=frozenset(pi),
        phi=frozenset(phi),
        sigma=frozenset(sigma),
    )


# ---------------------------------------------------------------------------
# Consistency verdicts (equation 4.13) for both semantics
# ---------------------------------------------------------------------------


def concrete_violations(state: ConcreteState) -> List[Tuple]:
    """Ground-truth inconsistencies of one execution.

    The concrete subregion relation is a real tree (every region has one
    parent), so the partial order is exact.  An access ``o -> o'`` is a
    violation unless some owner of o is <= some owner of o' -- with
    concrete unique ownership: owner(o) <= owner(o').
    """
    parent: Dict[RegionVal, Optional[RegionVal]] = {TOY_ROOT: None}
    for child, parent_region in state.pi:
        parent[child] = parent_region

    def ancestors(region: RegionVal) -> Set[RegionVal]:
        chain = {region}
        current = parent.get(region)
        while current is not None and current not in chain:
            chain.add(current)
            current = parent.get(current)
        return chain

    owner: Dict[Union[RegionVal, ObjectVal], RegionVal] = {}
    for region, obj in state.phi:
        owner[obj] = region

    def owners(value) -> Set[RegionVal]:
        if isinstance(value, RegionVal):
            return {value}  # f= reflexive extension
        return {owner[value]} if value in owner else set()

    violations = []
    for source, target in state.sigma:
        source_owners = owners(source)
        target_owners = owners(target)
        if not source_owners or not target_owners:
            continue
        if not any(
            y in ancestors(x) for x in source_owners for y in target_owners
        ):
            violations.append((source, target))
    return violations


def abstract_violations(result: AbstractResult) -> List[Tuple[AbsLoc, AbsLoc]]:
    """Static warnings per equation 4.13 over the canonicalized tree."""
    hierarchy = result.hierarchy()
    owned_by: Dict[AbsLoc, Set[AbsLoc]] = {}
    for region, obj in result.phi:
        owned_by.setdefault(obj, set()).add(region)

    def owners(loc: AbsLoc) -> Set[AbsLoc]:
        if loc in result.region_sites:
            return {loc}
        return owned_by.get(loc, set())

    violations = []
    for source, target in sorted(result.sigma):
        source_owners = owners(source)
        target_owners = owners(target)
        if not source_owners or not target_owners:
            continue
        if any(
            not hierarchy.leq(x, y)
            for x in source_owners
            for y in target_owners
        ):
            violations.append((source, target))
    return violations
