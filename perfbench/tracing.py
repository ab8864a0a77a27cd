"""Layer spans recorded from the benchmark's own files.

The analyzer is not instrumented for this: :meth:`Tracer.installed`
rebinds the module attributes through which the pipeline calls each
public layer function (:data:`LAYER_CALLS`) to timing wrappers, and
restores them when the traced pass ends.  :class:`TimedCache` does the
same for the cache layer by subclassing
:class:`~repro.tool.AnalysisCache`; ``run_batch`` calls its ``key``,
``lookup`` and ``store`` in the parent process, so this works at jobs=2.

Spans stay in memory -- name, start, end, parent span, op id and the
counts read off the layer's result -- and are written out once, when the
benchmark ends.  A layer's self time is its spans' duration minus the
part covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.tool import AnalysisCache

#: (module, attribute, span name, counts read off the result).  The
#: pipeline (``repro.tool.regionwiz``) calls every layer through its own
#: module namespace, except the lexer, which the parser calls.
LAYER_CALLS: List[Tuple[str, str, str, Optional[Callable[[Any], Dict[str, int]]]]] = [
    ("repro.lang.parser", "tokenize", "lang.lex",
     lambda tokens: {"lang.tokens": len(tokens)}),
    ("repro.tool.regionwiz", "parse", "lang.parse", None),
    ("repro.tool.regionwiz", "analyze", "lang.sema", None),
    ("repro.tool.regionwiz", "lower", "ir.lower",
     lambda module: {"ir.instrs": module.num_instrs}),
    ("repro.tool.regionwiz", "build_call_graph", "callgraph.build",
     lambda graph: {"callgraph.edges": graph.num_edges,
                    "callgraph.reachable": len(graph.reachable)}),
    ("repro.tool.regionwiz", "number_contexts", "pointer.contexts",
     lambda numbering: {"pointer.contexts": numbering.total_contexts}),
    ("repro.tool.regionwiz", "analyze_pointers", "pointer.solve",
     lambda result: {"pointer.iterations": result.iterations,
                     "pointer.objects": len(result.objects)}),
    ("repro.tool.regionwiz", "check_consistency", "core.consistency",
     lambda result: {"core.object_pairs": result.o_pair_count}),
    ("repro.tool.regionwiz", "rank_warnings", "core.rank",
     lambda ranked: {"core.i_pairs": ranked.i_pair_count}),
]

#: Counts that must repeat exactly between two passes over the same
#: inputs; a later change may rest a count claim only on these.
DETERMINISTIC_COUNTS = (
    "lang.tokens",
    "ir.instrs",
    "pointer.contexts",
    "pointer.iterations",
    "core.object_pairs",
    "tool.cache.hits",
)


@dataclass
class Span:
    name: str
    op: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``op`` tags every span opened after it is set."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(
            name=name,
            op=self.op,
            parent=self._open[-1] if self._open else None,
            start=time.perf_counter(),
        )
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: int) -> None:
        """Add ``value`` to counter ``name`` on the innermost open span."""
        record = self.spans[self._open[-1]]
        record.counts[name] = record.counts.get(name, 0) + value

    def _wrap(self, name: str, fn: Callable, counts: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record.counts.update(counts(result))
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Route every :data:`LAYER_CALLS` function through a span."""
        saved = []
        try:
            for module_name, attribute, name, counts in LAYER_CALLS:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self._wrap(name, original, counts))
            yield self
        finally:
            for module, attribute, original in saved:
                setattr(module, attribute, original)

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, summed over all spans."""
        covered = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.duration
        totals: Dict[str, float] = defaultdict(float)
        for record, children in zip(self.spans, covered):
            totals[record.name] += record.duration - children
        return dict(totals)

    def total_seconds(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def counts(self) -> Dict[str, int]:
        """Every counter, summed over all spans."""
        totals: Dict[str, int] = defaultdict(int)
        for record in self.spans:
            for name, value in record.counts.items():
                totals[name] += value
        return dict(totals)

    def op_counts(self) -> Dict[int, Dict[str, int]]:
        """The :data:`DETERMINISTIC_COUNTS` per op."""
        per_op: Dict[int, Dict[str, int]] = defaultdict(dict)
        for record in self.spans:
            for name, value in record.counts.items():
                if name in DETERMINISTIC_COUNTS:
                    slot = per_op[record.op]
                    slot[name] = slot.get(name, 0) + value
        return dict(per_op)

    def to_json(self) -> List[Dict[str, Any]]:
        return [asdict(record) for record in self.spans]


class TimedCache(AnalysisCache):
    """An :class:`AnalysisCache` whose key, lookup and store record spans."""

    def __init__(self, root: str, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer

    def key(self, *args, **kwargs) -> str:  # a staticmethod on the base
        with self.tracer.span("tool.cache.key"):
            return AnalysisCache.key(*args, **kwargs)

    def lookup(self, key: str):
        with self.tracer.span("tool.cache.lookup"):
            return super().lookup(key)

    def store(self, key: str, outcome) -> None:
        with self.tracer.span("tool.cache.store"):
            super().store(key, outcome)


class NullTracer:
    """The untraced stand-in: same calls, nothing recorded or rebound."""

    op = 0

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: int) -> None:
        pass

    def installed(self):
        return nullcontext(self)


def write_spans(path: str, tracers: Dict[str, Tracer]) -> None:
    """Write every tracer's spans to one JSON file, keyed by pass name."""
    with open(path, "w") as handle:
        json.dump({name: t.to_json() for name, t in tracers.items()}, handle)
