"""A bddbddb-style Datalog solver with set and BDD backends.

A :class:`Program` is declarative: declare finite domains, relation
signatures, rules (text or :class:`~repro.datalog.rules.Rule`), and input
facts, then call :meth:`Program.solve`.  Evaluation is stratified
semi-naive fixpoint computation.  The ``backend`` argument picks tuple
storage: ``"set"`` (explicit, fast in CPython) or ``"bdd"``
(BuDDy/bddbddb-style; used by RegionWiz's context-sensitive relations and
by the variable-order ablation).

Both backends produce identical relations -- a property test holds them to
that.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bdd import BDD, DomainInstance, DomainSpace
from repro.datalog.relation import (
    BddRelation,
    Relation,
    RelationError,
    SetRelation,
)
from repro.datalog.rules import (
    Atom,
    BodyItem,
    Const,
    DatalogSyntaxError,
    NotEqual,
    Rule,
    Var,
    parse_rules,
)
from repro.obs.hub import trace_span
from repro.util.budget import BudgetMeter
from repro.util.graph import strongly_connected_components

__all__ = [
    "Program",
    "Solution",
    "DatalogError",
    "Derivation",
    "SolverStats",
    "StratumStats",
]


class DatalogError(Exception):
    """Semantic errors: unknown relations, domain mismatches, bad strata."""


# ---------------------------------------------------------------------------
# Solver statistics
# ---------------------------------------------------------------------------


@dataclass
class StratumStats:
    """Observability counters for one stratum of the fixpoint."""

    relations: Tuple[str, ...]
    rounds: int = 0
    derived: int = 0
    seconds: float = 0.0


@dataclass
class SolverStats:
    """Where :meth:`Program.solve` spent its time, exposed on ``Solution``.

    ``index_builds``/``index_hits`` cover the set backend's hash indexes
    (including the per-round delta relations); ``bdd_cache_lookups``/
    ``bdd_cache_hits`` cover the BDD manager's operation caches.  The
    invariant ``facts_loaded + tuples_derived == sum of final relation
    sizes`` holds on both backends and is property-tested.
    """

    backend: str
    engine: str = "indexed"
    facts_loaded: int = 0
    tuples_derived: int = 0
    rounds: int = 0
    rule_evals: int = 0
    rule_eval_seconds: float = 0.0
    index_builds: int = 0
    index_hits: int = 0
    bdd_cache_lookups: int = 0
    bdd_cache_hits: int = 0
    solve_seconds: float = 0.0
    strata: List[StratumStats] = field(default_factory=list)
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    rule_derived: Dict[str, int] = field(default_factory=dict)

    @property
    def index_hit_rate(self) -> float:
        probes = self.index_builds + self.index_hits
        return self.index_hits / probes if probes else 0.0

    @property
    def bdd_cache_hit_rate(self) -> float:
        if not self.bdd_cache_lookups:
            return 0.0
        return self.bdd_cache_hits / self.bdd_cache_lookups

    def slowest_rules(self, limit: int = 3) -> List[Tuple[str, float]]:
        ranked = sorted(
            self.rule_seconds.items(), key=lambda item: -item[1]
        )
        return ranked[:limit]

    def summary(self) -> str:
        """Human-readable multi-line account of the solve."""
        lines = [
            f"datalog solve: backend={self.backend} engine={self.engine}"
            f" {self.solve_seconds * 1000:.1f}ms",
            f"  facts loaded: {self.facts_loaded};"
            f" tuples derived: {self.tuples_derived};"
            f" {self.rounds} round(s) across {len(self.strata)} strat(a)",
            f"  rule evaluations: {self.rule_evals}"
            f" ({self.rule_eval_seconds * 1000:.1f}ms)",
        ]
        if self.backend == "set":
            lines.append(
                f"  index builds: {self.index_builds},"
                f" hits: {self.index_hits}"
                f" ({self.index_hit_rate * 100:.1f}% hit rate)"
            )
        else:
            lines.append(
                f"  BDD op-cache: {self.bdd_cache_hits}/"
                f"{self.bdd_cache_lookups} hits"
                f" ({self.bdd_cache_hit_rate * 100:.1f}% hit rate)"
            )
        for i, stratum in enumerate(self.strata):
            names = ", ".join(stratum.relations)
            lines.append(
                f"  stratum {i} [{names}]: {stratum.rounds} round(s),"
                f" {stratum.derived} tuple(s),"
                f" {stratum.seconds * 1000:.1f}ms"
            )
        slowest = self.slowest_rules()
        if slowest:
            lines.append("  slowest rules:")
            for text, seconds in slowest:
                lines.append(f"    {seconds * 1000:8.1f}ms  {text}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Derivation provenance
# ---------------------------------------------------------------------------

#: A grounded tuple reference: (relation name, values).
ProvKey = Tuple[str, Tuple[int, ...]]


@dataclass
class Derivation:
    """One node of a derivation tree for a derived tuple.

    ``rule is None`` marks a leaf: an input fact (``is_fact``) or a tuple
    whose derivation was not recorded (solving without ``provenance=True``
    never records any).  Children cover the rule's *positive* body atoms
    in body order; negated atoms and disequalities hold by absence and
    are reconstructed from ``rule`` by renderers.
    """

    relation: str
    values: Tuple[int, ...]
    rule: Optional[Rule] = None
    children: List["Derivation"] = field(default_factory=list)
    is_fact: bool = False

    @property
    def depth(self) -> int:
        return 1 + max((child.depth for child in self.children), default=0)

    def leaves(self) -> List["Derivation"]:
        if not self.children:
            return [self]
        found: List["Derivation"] = []
        for child in self.children:
            found.extend(child.leaves())
        return found


@dataclass
class _RelationDecl:
    name: str
    domains: Tuple[str, ...]
    is_input: bool = True  # flipped off once it appears in a rule head


class Program:
    """Declarative Datalog program over finite domains."""

    def __init__(
        self, backend: str = "set", ordering: str = "interleaved"
    ) -> None:
        if backend not in ("set", "bdd"):
            raise DatalogError(f"unknown backend {backend!r}")
        self.backend = backend
        self.ordering = ordering
        self._domains: Dict[str, int] = {}
        self._relations: Dict[str, _RelationDecl] = {}
        self._rules: List[Rule] = []
        self._facts: Dict[str, Set[Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def domain(self, name: str, size: int) -> None:
        """Declare a finite domain with values ``0..size-1``."""
        if name in self._domains:
            raise DatalogError(f"domain {name!r} already declared")
        if size < 1:
            raise DatalogError(f"domain {name!r} must be non-empty")
        self._domains[name] = size

    def relation(self, name: str, domains: Sequence[str]) -> None:
        """Declare a relation signature, e.g. ``("call", ["I", "F"])``."""
        if name in self._relations:
            raise DatalogError(f"relation {name!r} already declared")
        for domain in domains:
            if domain not in self._domains:
                raise DatalogError(
                    f"relation {name!r} uses undeclared domain {domain!r}"
                )
        self._relations[name] = _RelationDecl(name, tuple(domains))
        self._facts[name] = set()

    def rules(self, text: str) -> None:
        """Add rules from concrete syntax (see :mod:`repro.datalog.rules`)."""
        for rule in parse_rules(text):
            self.rule(rule)

    def rule(self, rule: Rule) -> None:
        self._check_rule(rule)
        if rule.is_fact:
            for term in rule.head.terms:
                if isinstance(term, Var):
                    raise DatalogError(
                        f"fact with unbound variable {term}: {rule}"
                    )
            values = tuple(
                term.value  # type: ignore[union-attr]
                for term in rule.head.terms
            )
            self.fact(rule.head.relation, *values)
            return
        self._relations[rule.head.relation].is_input = False
        self._rules.append(rule)

    def fact(self, name: str, *values: int) -> None:
        """Assert an input tuple."""
        decl = self._decl(name)
        if len(values) != len(decl.domains):
            raise DatalogError(
                f"fact {name}{values} has arity {len(values)},"
                f" expected {len(decl.domains)}"
            )
        for value, domain in zip(values, decl.domains):
            if not 0 <= value < self._domains[domain]:
                raise DatalogError(
                    f"fact {name}{values}: {value} out of range for"
                    f" domain {domain} (size {self._domains[domain]})"
                )
        self._facts[name].add(tuple(values))

    def _decl(self, name: str) -> _RelationDecl:
        decl = self._relations.get(name)
        if decl is None:
            raise DatalogError(f"unknown relation {name!r}")
        return decl

    # ------------------------------------------------------------------
    # Static checks
    # ------------------------------------------------------------------

    def _check_rule(self, rule: Rule) -> None:
        var_domains: Dict[Var, str] = {}
        for atom in itertools.chain([rule.head], rule.body):
            if isinstance(atom, NotEqual):
                continue
            decl = self._decl(atom.relation)
            if len(atom.terms) != len(decl.domains):
                raise DatalogError(
                    f"atom {atom} has arity {len(atom.terms)},"
                    f" {atom.relation} expects {len(decl.domains)}"
                )
            for term, domain in zip(atom.terms, decl.domains):
                if isinstance(term, Const):
                    if not 0 <= term.value < self._domains[domain]:
                        raise DatalogError(
                            f"constant {term.value} out of range for domain"
                            f" {domain} in {atom}"
                        )
                else:
                    bound = var_domains.setdefault(term, domain)
                    if bound != domain:
                        raise DatalogError(
                            f"variable {term} used at domains {bound} and"
                            f" {domain} in rule {rule}"
                        )
        for constraint in rule.constraints():
            left = var_domains.get(constraint.left)
            right = var_domains.get(constraint.right)
            if left is None or right is None or left != right:
                raise DatalogError(
                    f"disequality {constraint} over mismatched or unknown"
                    f" domains in rule {rule}"
                )

    def _stratify(self) -> List[List[Rule]]:
        """Group rules into strata; reject negation inside a cycle."""
        depends: Dict[str, Set[str]] = {name: set() for name in self._relations}
        negative_edges: Set[Tuple[str, str]] = set()
        for rule in self._rules:
            head = rule.head.relation
            for item in rule.body:
                if isinstance(item, NotEqual):
                    continue
                depends[head].add(item.relation)
                if item.negated:
                    negative_edges.add((head, item.relation))
        components = strongly_connected_components(depends)
        component_of: Dict[str, int] = {}
        for i, component in enumerate(components):
            for name in component:
                component_of[name] = i
        for head, body_rel in negative_edges:
            if component_of[head] == component_of[body_rel]:
                raise DatalogError(
                    f"program is not stratified: {head} negates {body_rel}"
                    f" inside a recursive component"
                )
        # Tarjan emits dependencies first, so assigning rules to the
        # component of their head and walking components in order is a
        # valid stratified schedule.
        strata: List[List[Rule]] = [[] for _ in components]
        for rule in self._rules:
            strata[component_of[rule.head.relation]].append(rule)
        return [stratum for stratum in strata if stratum]

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def solve(
        self,
        meter: Optional[BudgetMeter] = None,
        provenance: bool = False,
    ) -> "Solution":
        """Evaluate to fixpoint and return the resulting relation store.

        ``meter`` (a started :class:`~repro.util.budget.BudgetMeter`)
        adds cooperative checkpoints to every fixpoint round: the wall
        clock is checked per round and every derived tuple is charged
        against the budget's ``max_derived_tuples`` limit, raising a
        structured ``BudgetExceeded`` on a blowup.

        ``provenance=True`` (set backend only) records, for every
        derived tuple, the rule and the positive body tuples of its first
        derivation; :meth:`Solution.explain` walks those records into a
        :class:`Derivation` tree.  Recording costs time and memory
        proportional to the derived tuple count, so it is off by default
        and enabled per-query (the CLI's ``--explain``).
        """
        if provenance and self.backend != "set":
            raise DatalogError(
                "provenance recording requires the set backend"
            )
        started = time.perf_counter()
        strata = self._stratify()
        store: _Store = (
            _SetStore(self) if self.backend == "set" else _BddStore(self)
        )
        store.meter = meter
        if provenance:
            store.provenance = {}
            store.fact_keys = set()
        with trace_span("datalog.solve") as span:
            for name, facts in self._facts.items():
                store.load_facts(name, facts)
            for stratum in strata:
                store.run_stratum(stratum)
            store.finalize_stats()
            span.set(
                backend=self.backend,
                engine=store.stats.engine,
                facts=store.stats.facts_loaded,
                derived=store.stats.tuples_derived,
                rounds=store.stats.rounds,
            )
        store.stats.solve_seconds = time.perf_counter() - started
        return Solution(store)


class Solution:
    """Queryable result of :meth:`Program.solve`."""

    def __init__(self, store: "_Store") -> None:
        self._store = store

    def relation(self, name: str) -> Relation:
        return self._store.relation(name)

    def tuples(self, name: str) -> Set[Tuple[int, ...]]:
        return set(self._store.relation(name))

    def count(self, name: str) -> int:
        return len(self._store.relation(name))

    def __contains__(self, query: Tuple[str, Tuple[int, ...]]) -> bool:
        name, values = query
        return tuple(values) in self._store.relation(name)

    @property
    def stats(self) -> SolverStats:
        """Observability counters gathered while solving."""
        return self._store.stats

    @property
    def has_provenance(self) -> bool:
        """Whether the solve recorded derivations (``provenance=True``)."""
        return self._store.provenance is not None

    def explain(self, name: str, values: Tuple[int, ...]) -> Derivation:
        """The recorded derivation tree for one tuple.

        Facts come back as ``is_fact`` leaves; derived tuples carry the
        rule of their first derivation and its positive body tuples as
        children.  Tuples absent from the relation (or solved without
        ``provenance=True``) come back as bare leaves with no rule.
        Shared sub-derivations are memoized, so the tree is linear in the
        number of distinct tuples it mentions; first-derivation recording
        guarantees acyclicity (a derivation only references tuples
        inserted strictly earlier).
        """
        key: ProvKey = (name, tuple(values))
        cache: Dict[ProvKey, Derivation] = {}
        provenance = self._store.provenance or {}
        fact_keys = self._store.fact_keys or set()

        def walk(key: ProvKey) -> Derivation:
            cached = cache.get(key)
            if cached is not None:
                return cached
            relation, tup = key
            if key in fact_keys:
                node = Derivation(relation, tup, is_fact=True)
            elif key in provenance:
                rule, body = provenance[key]
                node = Derivation(relation, tup, rule=rule)
                cache[key] = node  # memo before recursion (acyclic anyway)
                node.children = [
                    walk((body_rel, body_values))
                    for _, body_rel, body_values in sorted(body)
                ]
            else:
                node = Derivation(relation, tup)
            cache[key] = node
            return node

        return walk(key)

    @property
    def bdd(self) -> Optional[BDD]:
        """The underlying BDD manager (None for the set backend)."""
        return getattr(self._store, "bdd", None)

    def bdd_node_count(self, name: str) -> int:
        """Nodes in a relation's BDD (0 for the set backend)."""
        relation = self._store.relation(name)
        if isinstance(relation, BddRelation):
            return relation.bdd.node_count(relation.node)
        return 0


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


class _Store:
    stats: SolverStats
    #: Optional budget meter; set by :meth:`Program.solve` before facts load.
    meter: Optional[BudgetMeter] = None
    #: Derivation records, (head name, tuple) -> (rule, body tuple refs);
    #: allocated by :meth:`Program.solve` when ``provenance=True``.
    provenance: Optional[Dict[ProvKey, Tuple[Rule, tuple]]] = None
    #: Input-fact keys, tracked only while recording provenance.
    fact_keys: Optional[Set[ProvKey]] = None

    def relation(self, name: str) -> Relation:
        raise NotImplementedError

    def load_facts(self, name: str, facts: Iterable[Tuple[int, ...]]) -> None:
        relation = self.relation(name)
        before = len(relation)
        relation.add_all(facts)
        self.stats.facts_loaded += len(relation) - before
        if self.fact_keys is not None:
            self.fact_keys.update((name, values) for values in facts)

    def run_stratum(self, rules: List[Rule]) -> None:
        raise NotImplementedError

    def finalize_stats(self) -> None:
        """Fold backend-owned counters into :attr:`stats` after solving."""


@dataclass
class _JoinStep:
    """One positive atom of a rule body, compiled for the join loop.

    Variables are compiled to integer slots in a flat environment list,
    so the innermost loop never hashes :class:`Var` objects.

    ``key_positions``/``key_template`` describe the bound columns probed
    through the relation index (constants are pre-filled in the template,
    variable slots are copied in via ``key_slots`` right before the
    probe).  ``bind_positions`` maps columns binding fresh variables to
    their env slots; ``same_positions`` pairs columns that must agree
    because the atom repeats a fresh variable.  ``checks`` are compiled
    negated atoms / disequalities whose variables are all bound once this
    step has matched -- evaluated here, not at the end, so failing
    branches are pruned as early as possible.  Each check is a tuple
    ``(neg_tuples, neg_template, neg_fill, slot_a, slot_b)``: when
    ``neg_tuples`` is None the check is ``env[slot_a] != env[slot_b]``,
    otherwise fill ``neg_template`` via ``neg_fill`` and require the
    tuple to be absent from ``neg_tuples``.
    """

    body_index: int
    relation_name: str
    key_positions: Tuple[int, ...]
    key_template: List[Optional[int]]
    key_slots: List[Tuple[int, int]]
    bind_positions: List[Tuple[int, int]]
    same_positions: List[Tuple[int, int]]
    checks: List[tuple]


class _SetStore(_Store):
    """Semi-naive evaluation over explicit tuple sets.

    Three things distinguish it from the textbook evaluator:

    * relations keep their hash indexes incrementally up to date across
      the insert/lookup interleaving of semi-naive rounds;
    * the per-round delta is itself an indexed :class:`SetRelation`, so
      joins against the delta use hash probes instead of linear scans;
    * a join planner orders each rule's positive atoms by estimated
      selectivity (most bound columns first, smallest relation next,
      delta atom always first) and evaluates negation/disequality checks
      at the earliest point their variables are bound.
    """

    def __init__(self, program: Program) -> None:
        self._relations: Dict[str, SetRelation] = {
            name: SetRelation(name, decl.domains)
            for name, decl in program._relations.items()
        }
        self.stats = SolverStats(backend="set", engine="indexed")

    def relation(self, name: str) -> SetRelation:
        return self._relations[name]

    def finalize_stats(self) -> None:
        for relation in self._relations.values():
            self._retire_counters(relation)

    def _retire_counters(self, relation: SetRelation) -> None:
        self.stats.index_builds += relation.index_builds
        self.stats.index_hits += relation.index_hits
        relation.index_builds = 0
        relation.index_hits = 0

    def _fresh_delta(
        self, name: str, tuples: Iterable[Tuple[int, ...]]
    ) -> SetRelation:
        source = self._relations[name]
        delta = SetRelation(source.name, source.domains)
        delta.add_all(tuples)
        return delta

    def run_stratum(self, rules: List[Rule]) -> None:
        with trace_span("datalog.stratum") as span:
            self._run_stratum(rules, span)

    def _run_stratum(self, rules: List[Rule], span) -> None:
        started = time.perf_counter()
        heads = {rule.head.relation for rule in rules}
        stratum = StratumStats(relations=tuple(sorted(heads)))
        span.set(relations=",".join(stratum.relations))
        self.stats.strata.append(stratum)
        # Delta = everything currently in the stratum's head relations
        # (facts and contributions from earlier strata), stored as an
        # indexed relation so delta joins are hash probes.
        delta: Dict[str, SetRelation] = {
            name: self._fresh_delta(name, self._relations[name])
            for name in heads
        }
        # First round must also run rules whose body has no atom in this
        # stratum (e.g. copies from lower strata).
        stratum.rounds = 1
        for rule in rules:
            fresh = self._eval_rule(rule, delta_atom=None, delta=None)
            head = self._relations[rule.head.relation]
            added = 0
            for values in fresh:
                if head.insert_new(values):
                    delta[rule.head.relation].insert_new(values)
                    added += 1
            self._count_derived(rule, added, stratum)
        while any(not rel.is_empty() for rel in delta.values()):
            if self.meter is not None:
                self.meter.checkpoint("datalog")
            stratum.rounds += 1
            new_delta: Dict[str, SetRelation] = {
                name: self._fresh_delta(name, ()) for name in heads
            }
            for rule in rules:
                positions = [
                    i
                    for i, item in enumerate(rule.body)
                    if isinstance(item, Atom)
                    and not item.negated
                    and item.relation in heads
                ]
                for position in positions:
                    atom = rule.body[position]
                    assert isinstance(atom, Atom)
                    if delta[atom.relation].is_empty():
                        continue
                    fresh = self._eval_rule(
                        rule, delta_atom=position, delta=delta[atom.relation]
                    )
                    head = self._relations[rule.head.relation]
                    added = 0
                    for values in fresh:
                        if head.insert_new(values):
                            new_delta[rule.head.relation].insert_new(values)
                            added += 1
                    self._count_derived(rule, added, stratum)
            for retired in delta.values():
                self._retire_counters(retired)
            delta = new_delta
        for retired in delta.values():
            self._retire_counters(retired)
        self.stats.rounds += stratum.rounds
        stratum.seconds = time.perf_counter() - started
        span.set(rounds=stratum.rounds, derived=stratum.derived)

    def _count_derived(
        self, rule: Rule, added: int, stratum: StratumStats
    ) -> None:
        if not added:
            return
        stratum.derived += added
        self.stats.tuples_derived += added
        key = str(rule)
        self.stats.rule_derived[key] = (
            self.stats.rule_derived.get(key, 0) + added
        )
        if self.meter is not None:
            self.meter.charge_tuples(added, "datalog")

    # -- join planning -----------------------------------------------------

    def _plan_joins(
        self,
        positive: List[Tuple[int, Atom]],
        delta_atom: Optional[int],
        delta: Optional[SetRelation],
    ) -> List[Tuple[int, Atom]]:
        """Order positive atoms by estimated selectivity.

        The delta atom stays first (every semi-naive derivation must use a
        new tuple); the rest are chosen greedily, preferring atoms with
        the most bound columns and, among those, the smallest relation.
        The textual index breaks remaining ties, keeping plans
        deterministic.
        """
        ordered: List[Tuple[int, Atom]] = []
        remaining = list(positive)
        bound: Set[Var] = set()
        if delta_atom is not None:
            for pair in remaining:
                if pair[0] == delta_atom:
                    ordered.append(pair)
                    remaining.remove(pair)
                    bound.update(pair[1].variables)
                    break
        while remaining:
            best: Optional[Tuple[int, Atom]] = None
            best_key: Optional[Tuple[int, int, int]] = None
            for pair in remaining:
                index, atom = pair
                bound_columns = sum(
                    1
                    for term in atom.terms
                    if isinstance(term, Const) or term in bound
                )
                size = len(self._relations[atom.relation])
                key = (-bound_columns, size, index)
                if best_key is None or key < best_key:
                    best, best_key = pair, key
            assert best is not None
            ordered.append(best)
            remaining.remove(best)
            bound.update(best[1].variables)
        return ordered

    def _compile_checks(
        self,
        items: List[BodyItem],
        slots: Dict[Var, int],
    ) -> List[tuple]:
        """Compile tail items into ``_JoinStep.checks`` tuples."""
        checks: List[tuple] = []
        for item in items:
            if isinstance(item, NotEqual):
                checks.append(
                    (None, None, None, slots[item.left], slots[item.right])
                )
            else:
                template: List[Optional[int]] = []
                fill: List[Tuple[int, int]] = []
                for i, term in enumerate(item.terms):
                    if isinstance(term, Const):
                        template.append(term.value)
                    else:
                        template.append(None)
                        fill.append((i, slots[term]))
                checks.append(
                    (self._relations[item.relation]._tuples, template, fill, 0, 0)
                )
        return checks

    def _compile_steps(
        self,
        rule: Rule,
        ordered: List[Tuple[int, Atom]],
    ) -> Tuple[List[_JoinStep], List[tuple], List[Optional[int]],
               List[Tuple[int, int]], int]:
        """Compile a join plan: steps, final checks, and the head layout.

        Returns ``(steps, final_checks, head_template, head_fill, nslots)``
        where the head tuple is emitted by writing ``env[slot]`` values
        into ``head_template`` at the ``head_fill`` positions.
        """
        tail: List[BodyItem] = [
            item
            for item in rule.body
            if isinstance(item, NotEqual)
            or (isinstance(item, Atom) and item.negated)
        ]

        def item_vars(item: BodyItem) -> Set[Var]:
            if isinstance(item, NotEqual):
                return {item.left, item.right}
            return set(item.variables)

        slots: Dict[Var, int] = {}

        def slot_of(var: Var) -> int:
            slot = slots.get(var)
            if slot is None:
                slot = slots[var] = len(slots)
            return slot

        steps: List[_JoinStep] = []
        bound: Set[Var] = set()
        pending = list(tail)
        for body_index, atom in ordered:
            key_positions: List[int] = []
            key_template: List[Optional[int]] = []
            key_slots: List[Tuple[int, int]] = []
            bind_positions: List[Tuple[int, int]] = []
            same_positions: List[Tuple[int, int]] = []
            fresh_at: Dict[Var, int] = {}
            for i, term in enumerate(atom.terms):
                if isinstance(term, Const):
                    key_template.append(term.value)
                    key_positions.append(i)
                elif term in bound:
                    key_template.append(None)
                    key_slots.append((len(key_template) - 1, slot_of(term)))
                    key_positions.append(i)
                elif term in fresh_at:
                    same_positions.append((i, fresh_at[term]))
                else:
                    fresh_at[term] = i
                    bind_positions.append((i, slot_of(term)))
            bound.update(atom.variables)
            ready = [item for item in pending if item_vars(item) <= bound]
            for item in ready:
                pending.remove(item)
            steps.append(
                _JoinStep(
                    body_index=body_index,
                    relation_name=atom.relation,
                    key_positions=tuple(key_positions),
                    key_template=key_template,
                    key_slots=key_slots,
                    bind_positions=bind_positions,
                    same_positions=same_positions,
                    checks=self._compile_checks(ready, slots),
                )
            )
        final_checks = self._compile_checks(pending, slots)
        head_template: List[Optional[int]] = []
        head_fill: List[Tuple[int, int]] = []
        for i, term in enumerate(rule.head.terms):
            if isinstance(term, Const):
                head_template.append(term.value)
            else:
                head_template.append(None)
                head_fill.append((i, slots[term]))
        return steps, final_checks, head_template, head_fill, len(slots)

    def _eval_rule(
        self,
        rule: Rule,
        delta_atom: Optional[int],
        delta: Optional[SetRelation],
    ) -> List[Tuple[int, ...]]:
        started = time.perf_counter()
        positive = [
            (i, item)
            for i, item in enumerate(rule.body)
            if isinstance(item, Atom) and not item.negated
        ]
        ordered = self._plan_joins(positive, delta_atom, delta)
        steps, final_checks, head_template, head_fill, nslots = (
            self._compile_steps(rule, ordered)
        )
        results: List[Tuple[int, ...]] = []
        env: List[Optional[int]] = [None] * nslots
        nsteps = len(steps)

        def passes(check: tuple) -> bool:
            neg_tuples, template, fill, slot_a, slot_b = check
            if neg_tuples is None:
                return env[slot_a] != env[slot_b]
            for i, slot in fill:
                template[i] = env[slot]
            return tuple(template) not in neg_tuples

        # Provenance variant of the join loop: maintains the trail of
        # matched body tuples and records each *first* derivation of a
        # head tuple.  Kept separate so the common path below stays free
        # of per-candidate branches.
        prov = self.provenance
        if prov is not None:
            assert self.fact_keys is not None
            fact_keys = self.fact_keys
            head_rel = rule.head.relation
            trail: List[Tuple[int, str, Tuple[int, ...]]] = []

            def join_prov(position: int) -> None:
                if position == nsteps:
                    for check in final_checks:
                        if not passes(check):
                            return
                    for i, slot in head_fill:
                        head_template[i] = env[slot]
                    values = tuple(head_template)
                    results.append(values)
                    key = (head_rel, values)
                    if key not in prov and key not in fact_keys:
                        prov[key] = (rule, tuple(trail))
                    return
                step = steps[position]
                if step.body_index == delta_atom and delta is not None:
                    relation: SetRelation = delta
                else:
                    relation = self._relations[step.relation_name]
                key_template = step.key_template
                for i, slot in step.key_slots:
                    key_template[i] = env[slot]
                candidates = relation.lookup(
                    step.key_positions, tuple(key_template)
                )
                next_position = position + 1
                for values in candidates:
                    if step.same_positions and any(
                        values[i] != values[j]
                        for i, j in step.same_positions
                    ):
                        continue
                    for i, slot in step.bind_positions:
                        env[slot] = values[i]
                    if all(passes(check) for check in step.checks):
                        trail.append(
                            (step.body_index, step.relation_name, values)
                        )
                        join_prov(next_position)
                        trail.pop()

        def join(position: int) -> None:
            if position == nsteps:
                for check in final_checks:
                    if not passes(check):
                        return
                for i, slot in head_fill:
                    head_template[i] = env[slot]
                results.append(tuple(head_template))
                return
            step = steps[position]
            if step.body_index == delta_atom and delta is not None:
                relation: SetRelation = delta
            else:
                relation = self._relations[step.relation_name]
            key_template = step.key_template
            for i, slot in step.key_slots:
                key_template[i] = env[slot]
            candidates = relation.lookup(
                step.key_positions, tuple(key_template)
            )
            bind_positions = step.bind_positions
            same_positions = step.same_positions
            checks = step.checks
            next_position = position + 1
            for values in candidates:
                if same_positions:
                    consistent = True
                    for i, j in same_positions:
                        if values[i] != values[j]:
                            consistent = False
                            break
                    if not consistent:
                        continue
                for i, slot in bind_positions:
                    env[slot] = values[i]
                for check in checks:
                    if not passes(check):
                        break
                else:
                    join(next_position)
            # Slots are overwritten before their next read (the plan only
            # reads a slot after the step that binds it), so no unbinding.

        with trace_span("datalog.rule") as span:
            if prov is not None:
                join_prov(0)
            else:
                join(0)
            self.stats.rule_evals += 1
            elapsed = time.perf_counter() - started
            self.stats.rule_eval_seconds += elapsed
            key = str(rule)
            self.stats.rule_seconds[key] = (
                self.stats.rule_seconds.get(key, 0.0) + elapsed
            )
            span.set(rule=key, tuples=len(results))
        return results


class _BddStore(_Store):
    """Semi-naive evaluation over BDD relations (the bddbddb path)."""

    def __init__(self, program: Program) -> None:
        self.bdd = BDD()
        self.space = DomainSpace(self.bdd, ordering=program.ordering)
        instance_need: Dict[str, int] = {name: 1 for name in program._domains}
        for decl in program._relations.values():
            for domain in set(decl.domains):
                count = decl.domains.count(domain)
                instance_need[domain] = max(instance_need[domain], count)
        for rule in program._rules:
            per_type: Dict[str, Set[Var]] = {}
            for atom in itertools.chain([rule.head], rule.body):
                if isinstance(atom, NotEqual):
                    continue
                decl = program._relations[atom.relation]
                for term, domain in zip(atom.terms, decl.domains):
                    if isinstance(term, Var):
                        per_type.setdefault(domain, set()).add(term)
            for domain, variables in per_type.items():
                instance_need[domain] = max(
                    instance_need[domain], len(variables)
                )
        for name, size in program._domains.items():
            self.space.declare(name, size, instances=instance_need[name])
        self._relations: Dict[str, BddRelation] = {}
        for name, decl in program._relations.items():
            counters: Dict[str, int] = {}
            instances = []
            for domain in decl.domains:
                index = counters.get(domain, 0)
                counters[domain] = index + 1
                instances.append(self.space.instance(domain, index))
            self._relations[name] = BddRelation(
                name, decl.domains, self.space, instances
            )
        self._program = program
        self.stats = SolverStats(backend="bdd")

    def relation(self, name: str) -> BddRelation:
        return self._relations[name]

    def finalize_stats(self) -> None:
        total = sum(len(relation) for relation in self._relations.values())
        self.stats.tuples_derived = total - self.stats.facts_loaded
        self.stats.bdd_cache_lookups = self.bdd.op_lookups
        self.stats.bdd_cache_hits = self.bdd.op_hits

    # -- rule evaluation ---------------------------------------------------

    def _variable_instances(self, rule: Rule) -> Dict[Var, DomainInstance]:
        assignment: Dict[Var, DomainInstance] = {}
        counters: Dict[str, int] = {}
        for atom in itertools.chain(rule.body, [rule.head]):
            if isinstance(atom, NotEqual):
                continue
            decl = self._program._relations[atom.relation]
            for term, domain in zip(atom.terms, decl.domains):
                if isinstance(term, Var) and term not in assignment:
                    index = counters.get(domain, 0)
                    counters[domain] = index + 1
                    assignment[term] = self.space.instance(domain, index)
        return assignment

    def _atom_node(
        self,
        atom: Atom,
        variables: Dict[Var, DomainInstance],
        override_node: Optional[int] = None,
    ) -> int:
        """Relation node moved into the rule's variable space."""
        relation = self._relations[atom.relation]
        node = relation.node if override_node is None else override_node
        bdd = self.bdd
        project: List[DomainInstance] = []
        first_position: Dict[Var, DomainInstance] = {}
        sources: List[DomainInstance] = []
        targets: List[DomainInstance] = []
        for instance, term in zip(relation.instances, atom.terms):
            if isinstance(term, Const):
                node = bdd.apply_and(
                    node, self.space.encode(instance, term.value)
                )
                project.append(instance)
            elif term in first_position:
                node = bdd.apply_and(
                    node, self.space.equality(first_position[term], instance)
                )
                project.append(instance)
            else:
                first_position[term] = instance
                sources.append(instance)
                targets.append(variables[term])
        if project:
            node = bdd.exist(node, self.space.levels_of(project))
        mapping = {
            level_src: level_dst
            for src, dst in zip(sources, targets)
            for level_src, level_dst in zip(src.levels, dst.levels)
        }
        return bdd.rename(node, mapping)

    def _eval_rule(
        self,
        rule: Rule,
        delta_atom: Optional[int] = None,
        delta_node: Optional[int] = None,
    ) -> int:
        """Evaluate one rule body; returns a node on the head's instances."""
        started = time.perf_counter()
        with trace_span("datalog.rule") as span:
            try:
                return self._eval_rule_inner(rule, delta_atom, delta_node)
            finally:
                elapsed = time.perf_counter() - started
                self.stats.rule_evals += 1
                self.stats.rule_eval_seconds += elapsed
                key = str(rule)
                self.stats.rule_seconds[key] = (
                    self.stats.rule_seconds.get(key, 0.0) + elapsed
                )
                span.set(rule=key)

    def _eval_rule_inner(
        self,
        rule: Rule,
        delta_atom: Optional[int] = None,
        delta_node: Optional[int] = None,
    ) -> int:
        bdd = self.bdd
        variables = self._variable_instances(rule)
        node = bdd.TRUE
        for i, item in enumerate(rule.body):
            if isinstance(item, NotEqual) or item.negated:
                continue
            override = delta_node if i == delta_atom else None
            node = bdd.apply_and(
                node, self._atom_node(item, variables, override)
            )
            if node == bdd.FALSE:
                return bdd.FALSE
        for item in rule.body:
            if isinstance(item, NotEqual):
                eq = self.space.equality(
                    variables[item.left], variables[item.right]
                )
                node = bdd.apply_diff(node, eq)
            elif isinstance(item, Atom) and item.negated:
                node = bdd.apply_diff(
                    node, self._atom_node(item, variables)
                )
            if node == bdd.FALSE:
                return bdd.FALSE
        head_vars = set(rule.head.variables)
        dead = [
            instance
            for var, instance in variables.items()
            if var not in head_vars
        ]
        if dead:
            node = bdd.exist(node, self.space.levels_of(dead))
        # Move variables onto the head relation's canonical instances.
        head_relation = self._relations[rule.head.relation]
        mapping: Dict[int, int] = {}
        seen: Dict[Var, DomainInstance] = {}
        equalities: List[int] = []
        consts: List[int] = []
        for instance, term in zip(head_relation.instances, rule.head.terms):
            if isinstance(term, Const):
                consts.append(self.space.encode(instance, term.value))
            elif term in seen:
                equalities.append(self.space.equality(seen[term], instance))
            else:
                seen[term] = instance
                src = variables[term]
                for level_src, level_dst in zip(src.levels, instance.levels):
                    mapping[level_src] = level_dst
        node = bdd.rename(node, mapping)
        for extra in itertools.chain(consts, equalities):
            node = bdd.apply_and(node, extra)
        return node

    def run_stratum(self, rules: List[Rule]) -> None:
        with trace_span("datalog.stratum") as span:
            self._run_stratum(rules, span)

    def _run_stratum(self, rules: List[Rule], span) -> None:
        started = time.perf_counter()
        bdd = self.bdd
        heads = {rule.head.relation for rule in rules}
        stratum = StratumStats(relations=tuple(sorted(heads)))
        span.set(relations=",".join(stratum.relations))
        self.stats.strata.append(stratum)
        sizes_before = sum(len(self._relations[name]) for name in heads)
        delta: Dict[str, int] = {
            name: self._relations[name].node for name in heads
        }
        stratum.rounds = 1
        for rule in rules:
            head = self._relations[rule.head.relation]
            fresh = self._eval_rule(rule)
            new = bdd.apply_diff(fresh, head.node)
            if new != bdd.FALSE:
                head.union_node(new)
                delta[rule.head.relation] = bdd.apply_or(
                    delta[rule.head.relation], new
                )
        while any(node != bdd.FALSE for node in delta.values()):
            if self.meter is not None:
                self.meter.checkpoint("datalog")
            stratum.rounds += 1
            new_delta: Dict[str, int] = {name: bdd.FALSE for name in heads}
            for rule in rules:
                head = self._relations[rule.head.relation]
                for i, item in enumerate(rule.body):
                    if (
                        not isinstance(item, Atom)
                        or item.negated
                        or item.relation not in heads
                    ):
                        continue
                    delta_node = delta[item.relation]
                    if delta_node == bdd.FALSE:
                        continue
                    fresh = self._eval_rule(
                        rule, delta_atom=i, delta_node=delta_node
                    )
                    new = bdd.apply_diff(fresh, head.node)
                    if new != bdd.FALSE:
                        head.union_node(new)
                        new_delta[rule.head.relation] = bdd.apply_or(
                            new_delta[rule.head.relation], new
                        )
            delta = new_delta
        stratum.derived = (
            sum(len(self._relations[name]) for name in heads) - sizes_before
        )
        if self.meter is not None and stratum.derived > 0:
            # BDD relations don't expose per-rule tuple deltas cheaply;
            # charge the stratum's net growth in one step.
            self.meter.charge_tuples(stratum.derived, "datalog")
        self.stats.rounds += stratum.rounds
        stratum.seconds = time.perf_counter() - started
        span.set(rounds=stratum.rounds, derived=stratum.derived)
