"""The three workloads, each as an untraced and a traced run.

All three are closed loops with one caller; none runs more than
:data:`JOBS` worker processes.

* ``paper-sweep``: one op is a cold ``run_batch(jobs=2, keep_going=True)``
  over the seeded paper-scale corpus into a fresh, empty cache directory.
* ``deep-contexts``: one op is a serial ``run_regionwiz`` on one
  context-heavy unit.
* ``edit-rerun``: set-up primes a cache with a 324-unit tree; one op
  edits one unit and re-sweeps the whole tree with ``run_batch(jobs=2,
  cache=...)``.

An untraced run (:data:`UNTRACED`) returns :class:`Samples` for the
end-to-end metrics.  A traced run (:data:`TRACED`) makes three passes over
one fixed, seed-determined set of ops -- untraced, traced, traced again --
and returns :class:`Layers`: per-layer figures per op from the first
traced pass, the tracing overhead against the untraced pass, and any
difference between the two traced passes in the deterministic counts.
"""

from __future__ import annotations

import functools
import itertools
import os
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar

import inputs
from inputs import Unit
from tracing import NullTracer, Tracer, TimedCache

from repro import run_batch, run_regionwiz
from repro.tool import AnalysisCache, BatchResult

JOBS = 2

#: An untraced run sets up once before its first op and again after
#: every this many ops; ``setup_s`` is the median.  Spreading the
#: set-ups over the run keeps one slow spell of the machine from moving
#: all of them.
SETUP_EVERY = {"paper-sweep": 1, "deep-contexts": 8, "edit-rerun": 100}

#: Fewest ops an untraced run makes, however short ``--seconds`` is.
MIN_OPS = {"paper-sweep": 3, "deep-contexts": 32, "edit-rerun": 32}

#: deep-contexts units generated in set-up (8 cycles of the shape grid);
#: a run that outlasts them starts over.
DEEP_POOL = 8 * len(inputs.DEEP_GRID)

#: Ops in each pass of a traced run: a whole grid cycle of deep-contexts
#: units, and enough edits for a stable per-op median.
DEEP_TRACE_OPS = len(inputs.DEEP_GRID)
EDIT_TRACE_OPS = 48

NULL = NullTracer()
T = TypeVar("T")


class BenchmarkError(RuntimeError):
    """Set-up failed, or a determinism check did not hold."""


@dataclass
class Tally:
    """Verdicts checked against the oracle; every disagreement is a failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)

    def outcome(self, unit: Unit, outcome) -> None:
        self.check(
            outcome.ok and outcome.high == unit.expected_high,
            f"{unit.batch.name}: status {outcome.status},"
            f" {outcome.high} high warnings, expected {unit.expected_high}",
        )

    def report(self, unit: Unit, report) -> None:
        high = len(report.high_warnings)
        self.check(
            high == unit.expected_high,
            f"{unit.batch.name}: {high} high warnings,"
            f" expected {unit.expected_high}",
        )


@dataclass
class Samples:
    """What an untraced run measured."""

    op_name: str
    setup_s: List[float]
    op_s: List[float] = field(default_factory=list)
    #: KLOC of source each op answered for, index-aligned with ``op_s``.
    op_kloc: List[float] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)


@dataclass
class Layers:
    """What a traced run measured."""

    metrics: Dict[str, float]
    tracers: Dict[str, Tracer]
    tally: Tally
    nondeterministic: List[str]


def _timed(build: Callable[[], T]) -> Tuple[T, float]:
    start = time.perf_counter()
    value = build()
    return value, time.perf_counter() - start


def _setup_again(workload: str, op: int, samples: Samples, build: Callable[[], T]) -> Optional[T]:
    """Time another set-up after every ``SETUP_EVERY[workload]`` ops."""
    if (op + 1) % SETUP_EVERY[workload]:
        return None
    value, seconds = _timed(build)
    samples.setup_s.append(seconds)
    return value


def _until(deadline: float, minimum: int, items: Iterable[T]) -> Iterator[T]:
    """``items`` until ``deadline`` has passed and ``minimum`` were taken."""
    for taken, item in enumerate(items):
        if taken >= minimum and time.perf_counter() >= deadline:
            return
        yield item


def _analyze(unit: Unit):
    batch = unit.batch
    return run_regionwiz(
        batch.source,
        filename=batch.filename,
        interface=batch.region_interface(),
        name=batch.name,
    )


def _verdict(unit: Unit, op: int, tracer, tally: Tally) -> float:
    """One checked in-process ``run_regionwiz``; returns its wall time."""
    tracer.op = op
    with tracer.installed():
        start = time.perf_counter()
        with tracer.span("tool.regionwiz"):
            report = _analyze(unit)
        wall = time.perf_counter() - start
    tally.report(unit, report)
    return wall


def _interleaved(units: List[Unit], tracers, tally: Tally) -> List[float]:
    """Total verdict time over ``units`` under each tracer in turn.

    The passes alternate unit by unit, so a slow spell of the machine
    lands on all of them alike and their difference is the tracing cost.
    """
    totals = [0.0] * len(tracers)
    for op, unit in enumerate(units):
        for slot, tracer in enumerate(tracers):
            totals[slot] += _verdict(unit, op, tracer, tally)
    return totals


@dataclass(frozen=True)
class _Sweep:
    """One jobs=2 sweep, reduced to what the metrics need."""

    wall: float
    units: int
    #: Summed unit CPU per worker process, over the units it analyzed.
    worker_cpu: Tuple[float, ...]


def _sweep(units: List[Unit], cache: AnalysisCache, tracer) -> Tuple[_Sweep, BatchResult]:
    """One jobs=2 sweep; the cache-hit count lands on its span."""
    batch = [unit.batch for unit in units]
    hits = cache.hits
    start = time.perf_counter()
    with tracer.span("tool.batch.sweep"):
        result = run_batch(batch, jobs=JOBS, keep_going=True, cache=cache)
        tracer.count("tool.cache.hits", cache.hits - hits)
    wall = time.perf_counter() - start
    worker_cpu: Dict[Optional[int], float] = defaultdict(float)
    for outcome in result.outcomes:
        if not outcome.cached:
            worker_cpu[outcome.worker_pid] += outcome.elapsed
    return _Sweep(wall, len(result.outcomes), tuple(worker_cpu.values())), result


def _traced_verdicts(units: List[Unit], ops: int, generate_s: float) -> Layers:
    """Untraced, traced and repeat passes over ``units``, as ``ops`` ops."""
    tally = Tally()
    first, second = Tracer(), Tracer()
    untraced_s, traced_s, _ = _interleaved(units, (NULL, first, second), tally)
    metrics = _layer_metrics(first, ops=ops, generate_s=generate_s)
    metrics.update(_overhead(untraced_s, traced_s, first, traced_s))
    return Layers(
        metrics=metrics,
        tracers={"traced": first},
        tally=tally,
        nondeterministic=_compare_counts(first, second),
    )


# ---------------------------------------------------------------------------
# paper-sweep
# ---------------------------------------------------------------------------


def paper_sweep(seed: int, seconds: float, workdir: str) -> Samples:
    build = functools.partial(inputs.paper_sweep_corpus, seed)
    corpus, setup = _timed(build)
    kloc = sum(unit.kloc for unit in corpus)
    samples = Samples(op_name="sweeps", setup_s=[setup])
    deadline = time.perf_counter() + seconds
    for op in _until(deadline, MIN_OPS["paper-sweep"], itertools.count()):
        cache = AnalysisCache(tempfile.mkdtemp(dir=workdir))
        sweep, result = _sweep(corpus, cache, NULL)
        shutil.rmtree(cache.root)
        samples.op_s.append(sweep.wall)
        samples.op_kloc.append(kloc)
        for unit, outcome in zip(corpus, result.outcomes):
            samples.tally.outcome(unit, outcome)
        _setup_again("paper-sweep", op, samples, build)
    return samples


def paper_sweep_traced(seed: int, seconds: float, workdir: str) -> Layers:
    corpus, generate = _timed(lambda: inputs.paper_sweep_corpus(seed))
    # The analysis layers come from serial in-process passes, where the
    # spans can be seen; the whole corpus is one op ...
    layers = _traced_verdicts(corpus, ops=1, generate_s=generate)
    # ... and tool.batch and tool.cache from one real jobs=2 sweep.
    tracer = Tracer()
    sweep, result = _sweep(
        corpus, TimedCache(tempfile.mkdtemp(dir=workdir), tracer), tracer
    )
    for unit, outcome in zip(corpus, result.outcomes):
        layers.tally.outcome(unit, outcome)
    layers.metrics.update(_cache_metrics(tracer, ops=1))
    layers.metrics.update(_batch_metrics([sweep]))
    layers.tracers["sweep"] = tracer
    return layers


# ---------------------------------------------------------------------------
# deep-contexts
# ---------------------------------------------------------------------------


def deep_contexts(seed: int, seconds: float, workdir: str) -> Samples:
    build = functools.partial(inputs.deep_contexts_units, seed, DEEP_POOL)
    units, setup = _timed(build)
    samples = Samples(op_name="verdicts", setup_s=[setup])
    deadline = time.perf_counter() + seconds
    stream = _until(deadline, MIN_OPS["deep-contexts"], itertools.cycle(units))
    # The loop is one thread.  On a shared box a neighbour can slow one
    # CPU for tens of seconds, which would set the whole run; moving the
    # loop to the next CPU every op samples all of them, as the two-worker
    # workloads do.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    try:
        for op, unit in enumerate(stream):
            if cpus:
                os.sched_setaffinity(0, {cpus[op % len(cpus)]})
            wall = _verdict(unit, op, NULL, samples.tally)
            samples.op_s.append(wall)
            samples.op_kloc.append(unit.kloc)
            _setup_again("deep-contexts", op, samples, build)
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    return samples


def deep_contexts_traced(seed: int, seconds: float, workdir: str) -> Layers:
    units, generate = _timed(lambda: inputs.deep_contexts_units(seed, DEEP_TRACE_OPS))
    layers = _traced_verdicts(units, ops=len(units), generate_s=generate)
    layers.metrics.update(_cache_metrics(Tracer(), ops=len(units)))
    layers.metrics.update(_batch_metrics([]))
    return layers


# ---------------------------------------------------------------------------
# edit-rerun
# ---------------------------------------------------------------------------


@dataclass
class _Edit:
    rerun: _Sweep
    #: Wall time of the cache-less check analysis of the edited unit.
    check_s: float
    kloc: float
    cached: int


@dataclass
class _EditPass:
    """A tree being edited, the cache its re-sweeps use, and what they took."""

    tree: List[Unit]
    cache: AnalysisCache
    tracer: object = NULL
    edits: List[_Edit] = field(default_factory=list)

    def edit(self, op: int, index: int, tally: Tally) -> _Edit:
        """Edit one unit, re-sweep the tree, then check the edited unit."""
        tracer = self.tracer
        tracer.op = op
        self.tree[index] = unit = inputs.edit(self.tree[index], op)
        rerun, result = _sweep(self.tree, self.cache, tracer)
        start = time.perf_counter()
        with tracer.installed(), tracer.span("tool.regionwiz"):
            report = _analyze(unit)
        check_s = time.perf_counter() - start
        edited = result.outcomes[index]
        cached = sum(1 for outcome in result.outcomes if outcome.cached)
        same = edited.warning_lines == [str(w) for w in report.warnings]
        tally.check(
            cached == len(self.tree) - 1
            and not edited.cached
            and edited.ok
            and edited.high == unit.expected_high
            and same,
            f"edit {op} of {unit.batch.name}: {cached} of {len(self.tree)}"
            f" cached, status {edited.status}, {edited.high} high warnings"
            f" (expected {unit.expected_high}), warning lines"
            f" {'match' if same else 'differ from'} a cache-less analysis",
        )
        done = _Edit(
            rerun=rerun,
            check_s=check_s,
            kloc=sum(u.kloc for u in self.tree),
            cached=cached,
        )
        self.edits.append(done)
        return done


def _primed_tree(seed: int, workdir: str) -> Tuple[List[Unit], str, float]:
    """The edit-rerun tree, the cache directory primed with it, and how
    long generating the tree took."""
    tree, generate_s = _timed(lambda: inputs.edit_rerun_tree(seed))
    cache = AnalysisCache(tempfile.mkdtemp(dir=workdir))
    result = run_batch(
        [unit.batch for unit in tree], jobs=JOBS, keep_going=True, cache=cache
    )
    priming = Tally()
    for unit, outcome in zip(tree, result.outcomes):
        priming.outcome(unit, outcome)
    if priming.failed:
        raise BenchmarkError(f"priming the edit-rerun cache: {priming.problems}")
    return tree, cache.root, generate_s


def edit_rerun(seed: int, seconds: float, workdir: str) -> Samples:
    build = functools.partial(_primed_tree, seed, workdir)
    (tree, primed, _), setup = _timed(build)
    samples = Samples(op_name="edits", setup_s=[setup])
    state = _EditPass(tree=list(tree), cache=AnalysisCache(primed))
    deadline = time.perf_counter() + seconds
    targets = _until(
        deadline, MIN_OPS["edit-rerun"], inputs.edit_targets(seed, len(tree))
    )
    for op, index in enumerate(targets):
        edit = state.edit(op, index, samples.tally)
        samples.op_s.append(edit.rerun.wall)
        samples.op_kloc.append(edit.kloc)
        again = _setup_again("edit-rerun", op, samples, build)
        if again is not None:
            shutil.rmtree(again[1])
    return samples


def edit_rerun_traced(seed: int, seconds: float, workdir: str) -> Layers:
    tree, primed, generate = _primed_tree(seed, workdir)
    tally = Tally()
    first, second = Tracer(), Tracer()
    passes = []
    for tracer in (NULL, first, second):
        # Each pass edits its own copy of the tree against its own copy of
        # the primed cache, so all three see the same cache states; they
        # alternate op by op, like the verdict passes.
        root = shutil.copytree(
            primed, os.path.join(tempfile.mkdtemp(dir=workdir), "cache")
        )
        cache = AnalysisCache(root) if tracer is NULL else TimedCache(root, tracer)
        passes.append(_EditPass(tree=list(tree), cache=cache, tracer=tracer))
    targets = itertools.islice(inputs.edit_targets(seed, len(tree)), EDIT_TRACE_OPS)
    for op, index in enumerate(targets):
        for state in passes:
            state.edit(op, index, tally)
    untraced, traced, _ = (state.edits for state in passes)
    metrics = _layer_metrics(first, ops=EDIT_TRACE_OPS, generate_s=generate)
    metrics.update(_cache_metrics(first, ops=EDIT_TRACE_OPS))
    metrics.update(_batch_metrics([e.rerun for e in traced]))
    metrics.update(
        _overhead(
            sum(e.rerun.wall + e.check_s for e in untraced),
            sum(e.rerun.wall + e.check_s for e in traced),
            first,
            sum(e.check_s for e in traced),
        )
    )
    nondeterministic = _compare_counts(first, second)
    traced_hits = first.op_counts()
    for op, edit in enumerate(untraced):
        if traced_hits.get(op, {}).get("tool.cache.hits") != edit.cached:
            nondeterministic.append(
                f"op {op}: untraced pass had {edit.cached} cache hits"
            )
    return Layers(
        metrics=metrics,
        tracers={"traced": first},
        tally=tally,
        nondeterministic=nondeterministic,
    )


# ---------------------------------------------------------------------------
# Per-layer figures
# ---------------------------------------------------------------------------

#: Per-layer time metrics and the span whose self time each one sums.
LAYER_TIMES = {
    "lang.lex_ms": "lang.lex",
    "lang.parse_ms": "lang.parse",
    "lang.sema_ms": "lang.sema",
    "ir.lower_ms": "ir.lower",
    "callgraph.build_ms": "callgraph.build",
    "pointer.contexts_ms": "pointer.contexts",
    "pointer.solve_ms": "pointer.solve",
    "core.consistency_ms": "core.consistency",
    "core.rank_ms": "core.rank",
    "tool.regionwiz.self_ms": "tool.regionwiz",
}

LAYER_COUNTS = (
    "lang.tokens",
    "ir.instrs",
    "callgraph.edges",
    "callgraph.reachable",
    "pointer.contexts",
    "pointer.iterations",
    "pointer.objects",
    "core.object_pairs",
    "core.i_pairs",
)

FRONTEND_SPANS = ("lang.lex", "lang.parse", "lang.sema", "ir.lower")
POINTER_SPANS = ("pointer.contexts", "pointer.solve")


def _layer_metrics(tracer: Tracer, ops: int, generate_s: float) -> Dict[str, float]:
    """Self time (ms) and counts per op, for the analysis layers."""
    self_s = tracer.self_seconds()
    counts = tracer.counts()
    metrics = {
        metric: self_s.get(span, 0.0) * 1e3 / ops
        for metric, span in LAYER_TIMES.items()
    }
    metrics.update({name: counts.get(name, 0) / ops for name in LAYER_COUNTS})
    read_s = self_s.get("lang.lex", 0.0) + self_s.get("lang.parse", 0.0)
    metrics["lang.tokens_per_s"] = counts.get("lang.tokens", 0) / read_s
    unit_s = tracer.total_seconds("tool.regionwiz")
    metrics["share.frontend_pct"] = (
        100.0 * sum(self_s.get(span, 0.0) for span in FRONTEND_SPANS) / unit_s
    )
    metrics["share.pointer_pct"] = (
        100.0 * sum(self_s.get(span, 0.0) for span in POINTER_SPANS) / unit_s
    )
    metrics["trace.spans"] = len(tracer.spans) / ops
    metrics["workloads.generate_ms"] = generate_s * 1e3
    return metrics


def _cache_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """Cache-layer time (ms) and lookups per op, from a TimedCache's spans."""
    lookups = sum(1 for s in tracer.spans if s.name == "tool.cache.lookup")
    hits = tracer.counts().get("tool.cache.hits", 0)
    return {
        "tool.cache.key_ms": tracer.total_seconds("tool.cache.key") * 1e3 / ops,
        "tool.cache.lookup_ms": tracer.total_seconds("tool.cache.lookup") * 1e3 / ops,
        "tool.cache.store_ms": tracer.total_seconds("tool.cache.store") * 1e3 / ops,
        "tool.cache.hits": hits / ops,
        "tool.cache.misses": (lookups - hits) / ops,
        "tool.cache.hit_ratio": hits / lookups if lookups else 0.0,
    }


BATCH_METRICS = (
    "tool.batch.overhead_ms",
    "tool.batch.busy_ratio",
    "tool.batch.imbalance_s",
    "tool.batch.units",
)


def _batch_metrics(sweeps: List[_Sweep]) -> Dict[str, float]:
    """Dispatch figures per sweep (median over sweeps).

    Overhead is the sweep's wall time minus the busiest worker's summed
    unit CPU: what the batch layer adds on top of the critical path.
    """
    if not sweeps:
        return dict.fromkeys(BATCH_METRICS, 0.0)
    figures = [
        (
            (sweep.wall - max(sweep.worker_cpu, default=0.0)) * 1e3,
            sum(sweep.worker_cpu) / (JOBS * sweep.wall),
            max(sweep.worker_cpu, default=0.0) - min(sweep.worker_cpu, default=0.0),
            sweep.units,
        )
        for sweep in sweeps
    ]
    return {
        name: statistics.median(column)
        for name, column in zip(BATCH_METRICS, zip(*figures))
    }


def _overhead(
    untraced_s: float, traced_s: float, tracer: Tracer, verdict_s: float
) -> Dict[str, float]:
    """Tracing overhead of a pass, and how much of the outside-timed
    verdict time ``verdict_s`` the ``tool.regionwiz`` spans cover (their
    layer children's self times plus their own sum to their duration)."""
    return {
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "trace.accounted_pct": 100.0 * tracer.total_seconds("tool.regionwiz") / verdict_s,
    }


def _compare_counts(first: Tracer, second: Tracer) -> List[str]:
    a, b = first.op_counts(), second.op_counts()
    return [
        f"op {op}: {a.get(op)} then {b.get(op)}"
        for op in sorted(set(a) | set(b))
        if a.get(op) != b.get(op)
    ]


UNTRACED = {
    "paper-sweep": paper_sweep,
    "deep-contexts": deep_contexts,
    "edit-rerun": edit_rerun,
}

TRACED = {
    "paper-sweep": paper_sweep_traced,
    "deep-contexts": deep_contexts_traced,
    "edit-rerun": edit_rerun_traced,
}
