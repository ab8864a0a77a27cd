"""Relation storage backends for the Datalog solver.

Two interchangeable backends implement the same small interface:

* :class:`SetRelation` -- tuples in a Python ``set`` with on-demand hash
  indexes; the explicit baseline.
* :class:`BddRelation` -- the bddbddb-style backend: the relation is a BDD
  over one :class:`~repro.bdd.domain.DomainInstance` per attribute.

The solver only talks to the interface, so analyses can be cross-checked
between backends (a test does exactly that) and the BDD variable-order
ablation just swaps the space's ordering policy.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bdd import BDD, DomainInstance, DomainSpace

__all__ = [
    "RelationError",
    "Relation",
    "SetRelation",
    "BddRelation",
]

Tuple_ = Tuple[int, ...]

# Shared empty result for missed index probes; never mutated (buckets are
# created via ``setdefault`` with fresh lists, reads use ``get`` with this
# default).
_EMPTY: List[Tuple_] = []


class RelationError(Exception):
    """Raised on arity/domain misuse."""


class Relation:
    """Common interface: a named, typed, finite relation."""

    def __init__(self, name: str, domains: Sequence[str]) -> None:
        self.name = name
        self.domains = tuple(domains)

    @property
    def arity(self) -> int:
        return len(self.domains)

    # -- interface -------------------------------------------------------

    def add(self, values: Tuple_) -> bool:
        """Insert one tuple; return True if it was new."""
        raise NotImplementedError

    def add_all(self, tuples: Iterable[Tuple_]) -> bool:
        changed = False
        for values in tuples:
            changed |= self.add(values)
        return changed

    def __contains__(self, values: Tuple_) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Tuple_]:
        raise NotImplementedError

    def is_empty(self) -> bool:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def _check_arity(self, values: Tuple_) -> None:
        if len(values) != self.arity:
            raise RelationError(
                f"{self.name} expects {self.arity} attributes,"
                f" got {len(values)}: {values}"
            )


class SetRelation(Relation):
    """Explicit tuples with incrementally-maintained hash indexes.

    Indexes map a tuple of bound positions to ``{key_tuple: [tuples]}``.
    An index is built lazily on the first lookup with that column pattern
    and from then on maintained *incrementally* by :meth:`add` -- under
    semi-naive evaluation inserts and lookups interleave every fixpoint
    round, so wholesale invalidation would rebuild every index once per
    round.

    The full-scan case (``lookup`` with no bound positions) returns a
    cached snapshot list that is appended to on insertion rather than
    copied per call.

    Lists returned by :meth:`lookup` are live views owned by the relation:
    callers must not mutate them.  Growth is append-only, so iterating a
    previously returned list while new tuples arrive is well-defined (the
    iteration may or may not observe the new tuples).

    ``index_builds`` / ``index_hits`` count full index (re)builds and
    served probes for the solver's statistics layer.
    """

    def __init__(self, name: str, domains: Sequence[str]) -> None:
        super().__init__(name, domains)
        self._tuples: set = set()
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple_, List[Tuple_]]] = {}
        self._snapshot: Optional[List[Tuple_]] = None
        self.index_builds = 0
        self.index_hits = 0

    def add(self, values: Tuple_) -> bool:
        values = tuple(values)
        self._check_arity(values)
        if values in self._tuples:
            return False
        self._tuples.add(values)
        if self._snapshot is not None:
            self._snapshot.append(values)
        for positions, index in self._indexes.items():
            index_key = tuple(values[p] for p in positions)
            index.setdefault(index_key, []).append(values)
        return True

    def add_all(self, tuples: Iterable[Tuple_]) -> bool:
        # Bulk fact loading happens before any lookup has materialized an
        # index or snapshot; feed the tuple set directly in that case.
        if self._indexes or self._snapshot is not None:
            return super().add_all(tuples)
        before = len(self._tuples)
        for values in tuples:
            values = tuple(values)
            self._check_arity(values)
            self._tuples.add(values)
        return len(self._tuples) != before

    def insert_new(self, values: Tuple_) -> bool:
        """:meth:`add` minus validation, for solver-built tuples.

        The solver constructs head tuples itself (correct arity by
        construction, already plain ``tuple``s), so the per-insert checks
        of :meth:`add` are pure overhead on the innermost fixpoint loop.
        """
        if values in self._tuples:
            return False
        self._tuples.add(values)
        if self._snapshot is not None:
            self._snapshot.append(values)
        for positions, index in self._indexes.items():
            index_key = tuple(values[p] for p in positions)
            index.setdefault(index_key, []).append(values)
        return True

    def __contains__(self, values: Tuple_) -> bool:
        return tuple(values) in self._tuples

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Tuple_]:
        return iter(self._tuples)

    def is_empty(self) -> bool:
        return not self._tuples

    def clear(self) -> None:
        self._tuples.clear()
        self._indexes.clear()
        self._snapshot = None

    def lookup(
        self, positions: Tuple[int, ...], key: Tuple_
    ) -> List[Tuple_]:
        """All tuples whose ``positions`` columns equal ``key``."""
        if not positions:
            if self._snapshot is None:
                self._snapshot = list(self._tuples)
                self.index_builds += 1
            else:
                self.index_hits += 1
            return self._snapshot
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            for values in self._tuples:
                index_key = tuple(values[p] for p in positions)
                index.setdefault(index_key, []).append(values)
            self._indexes[positions] = index
            self.index_builds += 1
        else:
            self.index_hits += 1
        return index.get(key, _EMPTY)


class BddRelation(Relation):
    """A relation stored as a BDD over per-attribute domain instances."""

    def __init__(
        self,
        name: str,
        domains: Sequence[str],
        space: DomainSpace,
        instances: Sequence[DomainInstance],
    ) -> None:
        super().__init__(name, domains)
        if len(instances) != len(domains):
            raise RelationError(
                f"{name}: {len(domains)} domains but {len(instances)} instances"
            )
        for domain, instance in zip(domains, instances):
            if instance.type.name != domain:
                raise RelationError(
                    f"{name}: attribute of domain {domain} stored on"
                    f" instance {instance.name}"
                )
        self.space = space
        self.instances = tuple(instances)
        self.node = space.bdd.FALSE

    @property
    def bdd(self) -> BDD:
        return self.space.bdd

    def add(self, values: Tuple_) -> bool:
        values = tuple(values)
        self._check_arity(values)
        cube = self.space.encode_tuple(self.instances, values)
        new_node = self.bdd.apply_or(self.node, cube)
        changed = new_node != self.node
        self.node = new_node
        return changed

    def __contains__(self, values: Tuple_) -> bool:
        values = tuple(values)
        self._check_arity(values)
        cube = self.space.encode_tuple(self.instances, values)
        return self.bdd.apply_and(self.node, cube) != self.bdd.FALSE

    def __len__(self) -> int:
        return self.space.count_tuples(self.node, self.instances)

    def __iter__(self) -> Iterator[Tuple_]:
        return self.space.tuples(self.node, self.instances)

    def is_empty(self) -> bool:
        return self.node == self.bdd.FALSE

    def clear(self) -> None:
        self.node = self.bdd.FALSE

    def union_node(self, node: int) -> bool:
        """Union a rule-result BDD (already on this relation's instances)."""
        new_node = self.bdd.apply_or(self.node, node)
        changed = new_node != self.node
        self.node = new_node
        return changed
