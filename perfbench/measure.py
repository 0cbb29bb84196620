"""What one run collects, and how it becomes the reported metrics.

End-to-end metrics come from untraced phases only; per-layer metrics
come from the traced phases (:mod:`spans`) plus the counters the
program already returns (``AnswerReport.metrics``, ``QueryCache``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import stats
from ruler import Ruler
from spans import Counts, Instrumentation, SpanLog, summarize

#: Tail percentile reported as ``answer_ms.tail`` per workload: the
#: highest with at least ten samples beyond it at the workload's
#: smallest run (plan-cold answers 40 queries; the others >= 200).
TAIL_PERCENTILE = {"plan-cold": 75.0, "eval-warm": 95.0, "update-mix": 95.0, "serve-mix": 95.0}
#: Answers a run of a p95 workload measures at least.
MIN_TAIL_SAMPLES = 200

#: Engine counters summed from ``AnswerReport.metrics`` (metric -> keys).
ENGINE_COUNTERS = {
    "engine.scan_rows": ("scan.rows",),
    "engine.intermediate_rows": ("materialized.intermediate_rows",),
    "engine.join_probe_rows": ("join.hash.probe_rows", "join.merge.probe_rows"),
    "engine.union_terms": ("union.terms",),
    "engine.sqlite_sql_chars": ("sqlite.sql_chars",),
    "engine.sqlite_rows_fetched": ("sqlite.rows_fetched",),
}

#: Every per-layer metric, in report order, with its unit.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("query.parse_ms", "ms"),
    ("query.parse_calls", "count"),
    ("answering.self_ms", "ms"),
    ("reformulation.self_ms", "ms"),
    ("reformulation.calls", "count"),
    ("reformulation.union_terms", "count"),
    ("reformulation.memo_hit_ratio", "ratio"),
    ("analysis.minimize_ms", "ms"),
    ("analysis.containment_checks", "count"),
    ("analysis.terms_eliminated", "count"),
    ("analysis.eliminated_per_check", "ratio"),
    ("cost.estimate_ms", "ms"),
    ("cost.estimate_calls", "count"),
    ("cost.cq_cardinality_calls", "count"),
    ("cost.cq_cardinality_distinct_ratio", "ratio"),
    ("optimizer.search_ms", "ms"),
    ("optimizer.covers_explored", "count"),
    ("optimizer.distinct_fragments", "count"),
    ("optimizer.plan_eval_ratio", "ratio"),
    ("engine.evaluate_ms", "ms"),
    ("engine.decode_ms", "ms"),
    ("engine.sqlite_ms", "ms"),
    ("engine.scan_rows", "count"),
    ("engine.rows_examined_per_answer", "ratio"),
    ("engine.intermediate_rows", "count"),
    ("engine.join_probe_rows", "count"),
    ("engine.union_terms", "count"),
    ("engine.sqlite_sql_chars", "count"),
    ("engine.limit_failures", "count"),
    ("storage.load_ms", "ms"),
    ("storage.freeze_ms", "ms"),
    ("storage.freeze_calls", "count"),
    ("reasoning.saturate_ms", "ms"),
    ("reasoning.saturate_calls", "count"),
    ("reasoning.litemat_encode_ms", "ms"),
    ("reasoning.litemat_encode_calls", "count"),
    ("reasoning.derived_rows_ratio", "ratio"),
    ("cache.plan.hit_ratio", "ratio"),
    ("cache.plan.invalidations", "count"),
    ("cache.reformulation.hit_ratio", "ratio"),
    ("cache.sql.hit_ratio", "ratio"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.answer_ms.p50", "ms"),
    ("service.overhead_ms.p50", "ms"),
    ("resilience.attempts_per_request", "ratio"),
    ("resilience.fallbacks", "count"),
    ("telemetry.trace_overhead", "ratio"),
    ("telemetry.planner_share", "ratio"),
    ("telemetry.engine_storage_share", "ratio"),
)


class BenchmarkFailure(Exception):
    """The run cannot report: wrong answer, broken determinism, bad input."""


@dataclass
class Samples:
    """Untraced measurements of one run."""

    answer_s: List[float] = field(default_factory=list)
    #: When each answer ran (the midpoint, ``perf_counter``), parallel to
    #: ``answer_s``; ``setup_span`` and ``unit_span`` hold each set-up's
    #: and unit's (start, end).  The gated timings are normalized by the
    #: host speed at that moment or over that span.
    answer_at: List[float] = field(default_factory=list)
    write_s: List[float] = field(default_factory=list)
    #: update-mix: the first answer per strategy after each write.
    fresh_s: Dict[str, List[float]] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)
    setup_span: List[Tuple[float, float]] = field(default_factory=list)
    #: Answers per second of each unit of the measured phase (a pass, a
    #: cycle, or a serve-mix sub-phase).
    unit_rates: List[float] = field(default_factory=list)
    unit_span: List[Tuple[float, float]] = field(default_factory=list)
    #: Seconds the measured phase spent inside the program.
    measured_s: float = 0.0
    ruler: Ruler = field(default_factory=Ruler)
    correct: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def answered(self, seconds: float) -> None:
        """Record one correct answer that ended just now."""
        self.correct += 1
        self.answer_s.append(seconds)
        self.answer_at.append(time.perf_counter() - seconds / 2)

    def fail(self, label: str, error: BaseException) -> None:
        """Count a failed operation; it misses every latency limit."""
        self.failed += 1
        self.answer_s.append(math.inf)
        self.answer_at.append(time.perf_counter())
        self.failures.append(f"{label}: {type(error).__name__}: {error}")

    def set_up(self, seconds: float) -> None:
        """Record one set-up that ended just now."""
        self.setup_s.append(seconds)
        end = time.perf_counter()
        self.setup_span.append((end - seconds, end))

    def unit(self, rate: float, seconds: float) -> None:
        """Record the rate of one unit whose wall time ended just now."""
        self.unit_rates.append(rate)
        end = time.perf_counter()
        self.unit_span.append((end - seconds, end))


@dataclass
class Traced:
    """Traced-phase state of one run."""

    log: SpanLog = field(default_factory=SpanLog)
    counts: Counts = field(default_factory=Counts)
    engine: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    cache: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    answers: int = 0
    #: Throughput (answers per second) of alternating untraced/traced units.
    untraced_rate: List[Tuple[int, float]] = field(default_factory=list)
    traced_rate: List[Tuple[int, float]] = field(default_factory=list)
    #: Index of the first span of the measured (non set-up) part.
    first_measured: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.instrumentation = Instrumentation(self.log, self.counts)

    def add_report(self, report) -> None:
        counters = report.metrics.get("counters", {})
        for metric, keys in ENGINE_COUNTERS.items():
            for key in keys:
                self.engine[metric] += counters.get(key, 0)
        self.answers += 1

    def add_cache_delta(self, before: Dict[str, int], after: Dict[str, int]) -> None:
        for key, value in after.items():
            self.cache[key] += value - before.get(key, 0)

    def overhead(self) -> float:
        """traced ÷ untraced throughput − 1 (negative: tracing slows)."""
        def rate(units):
            count = sum(n for n, _ in units)
            seconds = sum(s for _, s in units)
            return count / seconds if seconds > 0 else 0.0

        untraced = rate(self.untraced_rate)
        if untraced == 0:
            return 0.0
        return rate(self.traced_rate) / untraced - 1.0


def cache_counters(answerers) -> Dict[str, int]:
    """Sum of ``QueryCache.counters()`` over answerers."""
    total: Dict[str, int] = defaultdict(int)
    for answerer in answerers:
        if answerer.cache is not None:
            for key, value in answerer.cache.counters().items():
                total[key] += value
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: Traced) -> Dict[str, float]:
    """Every per-layer metric of :data:`PER_LAYER` from one traced run.

    Times and counts are totals over the traced set-up and the traced
    measured units; ratios and shares use the measured units only.
    """
    whole = summarize(traced.log)
    measured = summarize(traced.log, first=traced.first_measured)
    values = traced.counts.values
    calls, total, own = whole.calls, whole.total_s, whole.self_s

    def ms(*names: str, table=own) -> float:
        return 1000.0 * sum(table.get(n, 0.0) for n in names)

    out: Dict[str, float] = {}
    out["query.parse_ms"] = ms("parse_query")
    out["query.parse_calls"] = calls.get("parse_query", 0)
    out["answering.self_ms"] = ms("QueryAnswerer.answer", "QueryAnswerer.plan")
    out["reformulation.self_ms"] = ms("Reformulator.reformulate", "IntervalReformulator.reformulate")
    out["reformulation.calls"] = values["reformulation.calls"]
    out["reformulation.union_terms"] = values["reformulation.union_terms"]
    out["reformulation.memo_hit_ratio"] = 1.0 - _ratio(values["reformulation.runs"], values["reformulation.calls"]) if values["reformulation.calls"] else 0.0
    out["analysis.minimize_ms"] = ms("minimize_ucq")
    out["analysis.containment_checks"] = values["analysis.containment_checks"]
    out["analysis.terms_eliminated"] = values["analysis.terms_eliminated"]
    out["analysis.eliminated_per_check"] = _ratio(values["analysis.terms_eliminated"], values["analysis.containment_checks"])
    out["cost.estimate_ms"] = ms("CostModel.cost", "CardinalityEstimator.cq_cardinality")
    out["cost.estimate_calls"] = values["cost.estimate_calls"]
    out["cost.cq_cardinality_calls"] = values["cost.cq_cardinality_calls"]
    out["cost.cq_cardinality_distinct_ratio"] = _ratio(len(traced.counts.distinct["cost.cq"]), values["cost.cq_cardinality_calls"])
    out["optimizer.search_ms"] = ms("gcov")
    out["optimizer.covers_explored"] = values["optimizer.covers_explored"]
    out["optimizer.distinct_fragments"] = values["optimizer.distinct_fragments"]
    plan_s = measured.total_s.get("QueryAnswerer.plan", 0.0)
    eval_s = measured.total_s.get("NativeEngine.evaluate", 0.0) + measured.total_s.get("SQLiteEngine.evaluate", 0.0)
    out["optimizer.plan_eval_ratio"] = _ratio(plan_s, eval_s)
    out["engine.evaluate_ms"] = ms("NativeEngine.evaluate_relation", table=total)
    out["engine.decode_ms"] = ms("NativeEngine.evaluate")
    out["engine.sqlite_ms"] = ms("SQLiteEngine.evaluate", table=total)
    for metric in ENGINE_COUNTERS:
        out[metric] = traced.engine.get(metric, 0.0)
    out["engine.rows_examined_per_answer"] = _ratio(
        traced.engine.get("engine.scan_rows", 0.0) + traced.engine.get("engine.sqlite_rows_fetched", 0.0),
        traced.answers,
    )
    del out["engine.sqlite_rows_fetched"]
    out["engine.limit_failures"] = traced.extra.get("engine.limit_failures", 0.0)
    out["storage.load_ms"] = ms("RDFDatabase.load_facts", table=total)
    out["storage.freeze_ms"] = ms("TripleTable.freeze", table=total)
    out["storage.freeze_calls"] = calls.get("TripleTable.freeze", 0)
    out["reasoning.saturate_ms"] = ms("RDFDatabase.saturated", table=total)
    out["reasoning.saturate_calls"] = calls.get("RDFDatabase.saturated", 0)
    out["reasoning.litemat_encode_ms"] = ms("interval_encode_database", table=total)
    out["reasoning.litemat_encode_calls"] = calls.get("interval_encode_database", 0)
    ratios = traced.counts.ratios["reasoning.derived_rows_ratio"]
    out["reasoning.derived_rows_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
    cache = traced.cache
    for level in ("plan", "reformulation", "sql"):
        hits, misses = cache.get(f"cache.{level}.hits", 0), cache.get(f"cache.{level}.misses", 0)
        out[f"cache.{level}.hit_ratio"] = _ratio(hits, hits + misses)
    out["cache.plan.invalidations"] = cache.get("cache.plan.invalidations", 0)
    for key in ("service.queue_wait_ms.p50", "service.answer_ms.p50", "service.overhead_ms.p50",
                "resilience.attempts_per_request", "resilience.fallbacks"):
        out[key] = traced.extra.get(key, 0.0)
    out["telemetry.trace_overhead"] = traced.overhead()
    layers = measured.answer_self_s
    answer_total = measured.answer_total_s
    planner = sum(layers.get(layer, 0.0) for layer in ("reformulation", "analysis", "cost", "optimizer"))
    out["telemetry.planner_share"] = _ratio(planner, answer_total)
    out["telemetry.engine_storage_share"] = _ratio(layers.get("engine", 0.0) + layers.get("storage", 0.0), answer_total)
    return {name: float(out[name]) for name, _unit in PER_LAYER}


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload: str, samples: Samples, rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run, at nominal host speed
    (see :mod:`ruler`)."""
    if not samples.answer_s:
        raise BenchmarkFailure("no answer was measured")
    q = TAIL_PERCENTILE[workload]
    if stats.tail_percentile(samples.answer_s, q) is None:
        raise BenchmarkFailure(f"{len(samples.answer_s)} answers are too few for p{q:g}")
    at, over = samples.ruler.factor_at, samples.ruler.factor_over
    answer_ms = [1000.0 * s * at(t) for s, t in zip(samples.answer_s, samples.answer_at)]
    # A failed operation takes no time from the rate's denominator, so a
    # program that fails its slowest answer fast would look faster: the
    # rate is withheld (null) instead.
    rate = stats.median([r / over(*span) for r, span in zip(samples.unit_rates, samples.unit_span)])
    return {
        "setup_s": stats.median([s * over(*span) for s, span in zip(samples.setup_s, samples.setup_span)]),
        "answers_per_s": rate if not samples.failed else math.nan,
        "answer_ms.p50": stats.median(answer_ms),
        "answer_ms.tail": stats.percentile(answer_ms, q),
        "peak_rss_mb": rss_mb,
    }


E2E_UNITS = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "answer_ms.p50": "ms",
    "answer_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


def describe(name: str, values_ms: List[float], unit: str = "ms") -> str:
    """A human-readable median/tail line with its sample count."""
    if not values_ms:
        return f"{name}: no samples"
    q = stats.highest_tail(len(values_ms))
    line = f"{name}: p50 {stats.median(values_ms):.3f} {unit}"
    if q is not None:
        line += f", p{q:g} {stats.percentile(values_ms, q):.3f} {unit}"
    return line + f" (n={len(values_ms)})"


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]) -> None:
    """Print the result line (the last line of standard output)."""
    body = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(body) + "\n")
    sys.stdout.flush()


def note(message: str) -> None:
    """A diagnostic line on standard error."""
    sys.stderr.write(message + "\n")
    sys.stderr.flush()


@functools.lru_cache(maxsize=None)
def program_digest() -> str:
    """A digest of the source files of the ``repro`` package measured."""
    import repro

    package = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for directory, subdirectories, files in os.walk(package):
        subdirectories[:] = sorted(d for d in subdirectories if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, package).encode() + b"\0")
            with open(path, "rb") as source:
                digest.update(source.read())
            digest.update(b"\0")
    return digest.hexdigest()[:12]


class Fingerprints:
    """Per-cell count fingerprints that must repeat exactly.

    Within a run, every repeat of a cell must match its first answer;
    across runs of the same program code, seed and input sizes, the
    whole table must match the one the first such run stored under
    ``.perfbench/fingerprints``.  A change to the program may change the
    counts (fewer covers explored is the point of some), so it starts a
    table of its own.
    """

    def __init__(self, root: str, workload: str, seed: int, scale: object) -> None:
        sizes = hashlib.sha256(repr(scale).encode()).hexdigest()[:12]
        self.path = os.path.join(
            root, ".perfbench", "fingerprints",
            f"{workload}-seed{seed}-{sizes}-{program_digest()}.json",
        )
        self.table: Dict[str, List[int]] = {}

    def record(self, cell: str, report) -> None:
        counters = report.metrics.get("counters", {})
        value = [
            int(report.covers_explored),
            int(report.reformulation_terms),
            len(report.answers),
            int(counters.get("scan.rows", 0) + counters.get("sqlite.rows_fetched", 0)),
        ]
        seen = self.table.setdefault(cell, value)
        if seen != value:
            raise BenchmarkFailure(
                f"fingerprint of {cell} changed within the run: {seen} then {value} "
                "(covers explored, union terms, answers, scan rows)"
            )

    def settle(self) -> None:
        """Compare with (or store) the table of earlier runs."""
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as source:
                earlier = json.load(source)
            differing = sorted(
                cell for cell in set(earlier) & set(self.table) if earlier[cell] != self.table[cell]
            )
            if differing:
                raise BenchmarkFailure(
                    f"fingerprints differ from an earlier run of this seed: "
                    + ", ".join(f"{c} {earlier[c]} -> {self.table[c]}" for c in differing[:5])
                )
            merged = dict(earlier)
            merged.update(self.table)
        else:
            merged = dict(self.table)
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as sink:
            json.dump(merged, sink, sort_keys=True, indent=0)
