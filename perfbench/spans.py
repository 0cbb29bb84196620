"""In-memory spans around the program's public entry points.

The traced run installs thin wrappers, from the benchmark's own files,
around each layer's entry points (:data:`LAYER_OF`), records one span
per call (name, start, end, parent, request id) plus the counts those
boundaries expose, and removes the wrappers again when the traced phase
ends.  Spans stay in memory and are written out once, at the end.

A span's *self time* is its duration minus the part of its interval
that its child spans cover; children may nest or overlap, so the
covered part is the union of the children's (clipped) intervals.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Span name -> layer.  Every wrapped entry point appears here.
LAYER_OF: Dict[str, str] = {
    "parse_query": "query",
    "QueryAnswerer.answer": "answering",
    "QueryAnswerer.plan": "answering",
    "Reformulator.reformulate": "reformulation",
    "IntervalReformulator.reformulate": "reformulation",
    "minimize_ucq": "analysis",
    "CostModel.cost": "cost",
    "CardinalityEstimator.cq_cardinality": "cost",
    "gcov": "optimizer",
    "NativeEngine.evaluate": "engine",
    "NativeEngine.evaluate_relation": "engine",
    "SQLiteEngine.evaluate": "engine",
    "RDFDatabase.load_facts": "storage",
    "TripleTable.freeze": "storage",
    "RDFDatabase.saturated": "reasoning",
    "interval_encode_database": "reasoning",
}


class SpanLog:
    """Spans in parallel arrays (cheap enough for ~10^6 calls per run).

    ``begin`` returns the span's index; ``finish`` closes it.  The parent
    of a span is the innermost open span of the same thread.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        #: The request id stamped on spans opened from now on.
        self.request_id = -1
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack()
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:
            stack.remove(index)

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a finished span directly (tests and client-side spans)."""
        index = self.begin(name)
        self._stack().pop()
        self.start[index] = start
        self.end[index] = end
        self.parent[index] = parent
        return index

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line (name, start, end,
        parent, request id), times in seconds."""
        with open(path, "w", encoding="utf-8") as sink:
            sink.write("name\tstart\tend\tparent\trequest\n")
            names = self.names
            for i in range(len(self.start)):
                sink.write(
                    f"{names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                    f"\t{self.parent[i]}\t{self.request[i]}\n"
                )


def covered_length(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for a, b in clipped:
        if run_start is None or a > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        elif b > run_end:
            run_end = b
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> List[float]:
    """Per-span self time: duration minus the union of its children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    result = []
    for i in range(len(start)):
        duration = end[i] - start[i]
        kids = children.get(i)
        if kids:
            duration -= covered_length(kids, start[i], end[i])
        result.append(max(0.0, duration))
    return result


@dataclass
class Summary:
    """Per-span-name totals of one traced phase."""

    calls: Dict[str, int]
    total_s: Dict[str, float]
    self_s: Dict[str, float]
    #: Self time per layer inside ``QueryAnswerer.answer`` spans only.
    answer_self_s: Dict[str, float]
    #: Wall time of the outermost ``QueryAnswerer.answer`` spans.
    answer_total_s: float


def summarize(log: SpanLog, first: int = 0) -> Summary:
    """Totals by span name, and the layer split of answer time, over the
    spans recorded from index ``first`` on."""
    selfs = self_times(log.start, log.end, log.parent)
    names = log.names
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    answer_id = log.names.index("QueryAnswerer.answer") if "QueryAnswerer.answer" in log.names else -1
    # in_answer[i]: the span is an answer span or lies beneath one.
    in_answer = [False] * len(log.start)
    answer_layers: Dict[str, float] = defaultdict(float)
    answer_total = 0.0
    for i in range(first, len(log.start)):
        name_id = log.name_id[i]
        name = names[name_id]
        calls[name] += 1
        total[name] += log.end[i] - log.start[i]
        own[name] += selfs[i]
        parent = log.parent[i]
        inside = parent >= first and in_answer[parent]
        if name_id == answer_id and not inside:
            answer_total += log.end[i] - log.start[i]
        if inside or name_id == answer_id:
            in_answer[i] = True
            answer_layers[LAYER_OF.get(name, name)] += selfs[i]
    return Summary(dict(calls), dict(total), dict(own), dict(answer_layers), answer_total)


class Counts:
    """Counts taken at the wrapped boundaries."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        #: Canonical fragments reformulated inside the current gcov call.
        self.fragments: Optional[set] = None
        self.ratios: Dict[str, List[float]] = defaultdict(list)


class Instrumentation:
    """Installs and removes the span wrappers around :data:`LAYER_OF`'s
    entry points.  Installing twice, or removing when not installed, is
    an error: the traced phase must be explicit."""

    def __init__(self, log: SpanLog, counts: Counts) -> None:
        self.log = log
        self.counts = counts
        self._saved: List[Tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[tuple, Any, Any], None]] = None,
    ) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        log = self.log

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            index = log.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                log.finish(index)
            if after is not None:
                after(args, result, state)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        from repro.analysis import containment
        from repro.answering import answerer as answerer_module
        from repro.answering.answerer import QueryAnswerer
        from repro.cost.cardinality import CardinalityEstimator
        from repro.cost.model import CostModel
        from repro.engine.evaluator import NativeEngine
        from repro.engine.sqlite_backend import SQLiteEngine
        from repro.query import parser
        from repro.reasoning import litemat as litemat_module
        from repro.reformulation.litemat import IntervalReformulator
        from repro.reformulation.reformulate import Reformulator
        from repro.storage.database import RDFDatabase
        from repro.storage.triple_table import TripleTable

        counts = self.counts
        values = counts.values

        def reformulate_before(args):
            return args[0].runs

        def reformulate_after(args, result, runs_before):
            values["reformulation.calls"] += 1
            if args[0].runs != runs_before:
                values["reformulation.runs"] += 1
                values["reformulation.union_terms"] += len(result)
            if counts.fragments is not None:
                counts.fragments.add(args[1].canonical())

        def interval_after(args, result, runs_before):
            values["reformulation.calls"] += 1
            if args[0].runs != runs_before:
                values["reformulation.runs"] += 1
                values["reformulation.union_terms"] += len(result)

        def minimize_after(args, result, _state):
            for key in ("analysis.containment_checks", "analysis.terms_eliminated"):
                values[key] += result.counters.get(key, 0)

        def cq_after(args, result, _state):
            values["cost.cq_cardinality_calls"] += 1
            counts.distinct["cost.cq"].add(args[1].canonical())

        def cost_after(args, result, _state):
            values["cost.estimate_calls"] += 1

        def gcov_before(args):
            outer = counts.fragments
            counts.fragments = set()
            return outer

        def gcov_after(args, result, outer):
            values["optimizer.covers_explored"] += result.covers_explored
            values["optimizer.distinct_fragments"] += len(counts.fragments or ())
            counts.fragments = outer

        def load_after(args, result, _state):
            values["storage.rows_loaded"] += result

        def saturated_after(args, result, _state):
            counts.ratios["reasoning.derived_rows_ratio"].append(
                len(result) / max(1, len(args[0]))
            )

        def encode_after(args, result, _state):
            counts.ratios["reasoning.derived_rows_ratio"].append(
                len(result[1]) / max(1, len(args[0]))
            )

        self._wrap(parser, "parse_query", "parse_query")
        self._wrap(QueryAnswerer, "answer", "QueryAnswerer.answer")
        self._wrap(QueryAnswerer, "plan", "QueryAnswerer.plan")
        self._wrap(
            Reformulator, "reformulate", "Reformulator.reformulate",
            reformulate_before, reformulate_after,
        )
        self._wrap(
            IntervalReformulator, "reformulate", "IntervalReformulator.reformulate",
            reformulate_before, interval_after,
        )
        self._wrap(containment, "minimize_ucq", "minimize_ucq", after=minimize_after)
        self._wrap(CostModel, "cost", "CostModel.cost", after=cost_after)
        self._wrap(
            CardinalityEstimator, "cq_cardinality",
            "CardinalityEstimator.cq_cardinality", after=cq_after,
        )
        self._wrap(answerer_module, "gcov", "gcov", gcov_before, gcov_after)
        self._wrap(NativeEngine, "evaluate", "NativeEngine.evaluate")
        self._wrap(NativeEngine, "evaluate_relation", "NativeEngine.evaluate_relation")
        self._wrap(SQLiteEngine, "evaluate", "SQLiteEngine.evaluate")
        self._wrap(RDFDatabase, "load_facts", "RDFDatabase.load_facts", after=load_after)
        self._wrap(TripleTable, "freeze", "TripleTable.freeze")
        self._wrap(RDFDatabase, "saturated", "RDFDatabase.saturated", after=saturated_after)
        self._wrap(
            litemat_module, "interval_encode_database", "interval_encode_database",
            after=encode_after,
        )

    def remove(self) -> None:
        if not self._saved:
            raise RuntimeError("instrumentation not installed")
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
