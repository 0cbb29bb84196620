"""The three library workloads: plan-cold, eval-warm, update-mix.

Each drives the program only through its public API: generated triples
go in through ``RDFDatabase.load_facts``, SPARQL text through
``parse_query``, and every answer comes out of ``QueryAnswerer.answer``.
Each answer is timed from query text to decoded answer set and then,
outside the timed region, checked against the oracle.

A run is untraced (end-to-end metrics) or traced (per-layer metrics).
A traced run alternates untraced and traced units of the same work, so
that the tracing overhead is measured on the spot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import inputs
from measure import Fingerprints, Samples, Traced, cache_counters, note
from oracle import Oracle, check
from repro.answering import QueryAnswerer
from repro.cache import QueryCache
from repro.cost import CostModel
from repro.engine import EngineFailure, SQLiteEngine
from repro.query import parser
from repro.reformulation import Reformulator
from repro.storage import RDFDatabase


@dataclass(frozen=True)
class Scale:
    """Input sizes and repeat counts (the command uses :data:`DEFAULT`)."""

    plan_dblp_publications: int = 800
    plan_lubm_universities: int = 2
    eval_universities: int = 2
    update_universities: int = 10
    update_queries: Tuple[str, ...] = ("Q01", "Q03", "Q05", "Q10", "Q14", "Q20", "Q22")
    #: update-mix runs a fixed schedule of cycles, not a time budget:
    #: the store grows with every write, so a time-bounded run would
    #: measure a larger store on a faster program.
    update_cycles: int = 16
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3


DEFAULT = Scale()

#: Cells that hit a documented engine limit (ROADMAP item 4): SQLite
#: refuses the compound SELECT of these LiteMat reformulations ("too
#: many terms in compound SELECT").  They are attempted in every
#: set-up, listed by name, and counted in ``engine.limit_failures``.
KNOWN_LIMITS = frozenset({("sqlite", "litemat", "lubm/q2"), ("sqlite", "litemat", "lubm/Q28")})

EVAL_STRATEGIES = ("gcov", "scq", "saturation", "litemat")
UPDATE_STRATEGIES = ("saturation", "litemat", "gcov")


def answer(answerer: QueryAnswerer, query: inputs.Query, strategy: str):
    """Parse and answer one query; returns ``(seconds, report)``."""
    started = time.perf_counter()
    parsed = parser.parse_query(query.text, name=query.name)
    report = answerer.answer(parsed, strategy=strategy, record_accuracy=False)
    return time.perf_counter() - started, report


def load(dataset: str, facts: Sequence) -> RDFDatabase:
    """A database over a fresh schema, filled through ``load_facts``."""
    database = RDFDatabase(schema=inputs.schema(dataset))
    database.load_facts(facts)
    return database


def expected_answers(dataset: str, facts: Sequence, queries: Sequence[inputs.Query]) -> Dict[str, FrozenSet]:
    """Oracle answers of ``queries`` over ``facts``."""
    oracle = Oracle(inputs.schema(dataset))
    oracle.add(facts)
    return {q.label: oracle.answers(q.source) for q in queries}


class Cell:
    """Measures and checks answers, feeding untraced and traced state."""

    def __init__(self, samples: Samples, traced: Optional[Traced], fingerprints: Fingerprints) -> None:
        self.samples = samples
        self.traced = traced
        self.fingerprints = fingerprints
        self.tracing = False
        self.count = 0
        #: Seconds spent inside the program (answers, and update-mix's
        #: writes); the benchmark's own checks between them are excluded.
        self.busy_s = 0.0

    def run(self, answerer, query: inputs.Query, strategy: str, engine: str,
            expected: FrozenSet, measured: bool = True, key: str = "") -> float:
        """One answer; returns its seconds (0 when it failed, so that
        ``run(...) > 0`` counts correct answers).  ``key``
        tells apart repeats whose answers may legitimately differ."""
        label = f"{engine}/{strategy}/{query.label}"
        if self.traced is not None:
            self.traced.log.request_id = self.count
        self.count += 1
        if measured:
            self.samples.attempted += 1
        try:
            seconds, report = answer(answerer, query, strategy)
        except Exception as error:  # an operation failure, counted and named
            if not measured:
                raise
            self.samples.fail(label, error)
            return 0.0
        self.busy_s += seconds
        check(expected, report.answers, label)
        self.fingerprints.record(label + key, report)
        if measured:
            self.samples.answered(seconds)
        if self.tracing:
            self.traced.add_report(report)
        if measured:
            self.samples.ruler.tick()
        return seconds


class Phases:
    """Runs units of work untraced, or alternating untraced and traced."""

    def __init__(self, traced: Optional[Traced], answerers: Callable[[], List[QueryAnswerer]]) -> None:
        self.traced = traced
        self.answerers = answerers

    def unit(self, cell: Cell, work: Callable[[], int], trace: bool) -> None:
        """Run one unit (a pass or a cycle) and record its rate: correct
        answers per second spent inside the program.  ``work`` returns
        how many of its answers were correct."""
        traced = self.traced
        if trace:
            before = cache_counters(self.answerers())
            traced.instrumentation.install()
            cell.tracing = True
        busy_before = cell.busy_s
        started = time.perf_counter()
        try:
            answers = work()
        finally:
            if trace:
                traced.instrumentation.remove()
                cell.tracing = False
        busy = cell.busy_s - busy_before
        cell.samples.measured_s += busy
        if trace:
            traced.add_cache_delta(before, cache_counters(self.answerers()))
            traced.traced_rate.append((answers, busy))
        else:
            cell.samples.unit(answers / busy, time.perf_counter() - started)
            if traced is not None:
                traced.untraced_rate.append((answers, busy))


def _timed_setups(samples: Samples, traced: Optional[Traced], setups: int, build: Callable[[], object]):
    """Run ``build`` ``setups`` times (once, traced, in a traced run),
    recording each duration; returns the last state."""
    state = None
    if traced is not None:
        traced.instrumentation.install()
        try:
            state = build()
        finally:
            traced.instrumentation.remove()
        traced.first_measured = len(traced.log)
        return state
    for _ in range(setups):
        state = None
        samples.ruler.sample()
        started = time.perf_counter()
        state = build()
        samples.set_up(time.perf_counter() - started)
    samples.ruler.sample()
    return state


def _passes(phases: Phases, cell: Cell, one_pass: Callable[[], int], seconds: float,
            traced_passes: int, between: Optional[Callable[[], None]] = None,
            min_passes: int = 1) -> int:
    """Run whole passes; returns how many.

    An untraced run stops once ``seconds`` of answering time are
    measured and ``min_passes`` passes made, so a slow host runs fewer
    passes, not longer ones.  A traced run makes ``traced_passes``
    passes, alternately untraced and traced.  ``between`` runs before
    every pass but the first.
    """
    samples = cell.samples
    passes = 0
    while True:
        if passes and between is not None:
            between()
        phases.unit(cell, one_pass, trace=phases.traced is not None and passes % 2 == 1)
        passes += 1
        if phases.traced is not None:
            if passes == traced_passes:
                return passes
        elif samples.measured_s >= seconds and passes >= min_passes:
            return passes


# ----------------------------------------------------------------------
# plan-cold
# ----------------------------------------------------------------------
def plan_cold(root: str, seed: int, seconds: float, traced: Optional[Traced], scale: Scale = DEFAULT) -> Samples:
    """Every paper query once, under gcov, on fresh answerers."""
    facts = {
        "dblp": inputs.dblp_triples(scale.plan_dblp_publications),
        "lubm": inputs.lubm_triples(scale.plan_lubm_universities),
    }
    workload = inputs.queries("dblp", inputs.DBLP_QUERIES) + inputs.queries("lubm", inputs.LUBM_QUERIES)
    expected: Dict[str, FrozenSet] = {}
    for dataset in facts:
        expected.update(expected_answers(dataset, facts[dataset], [q for q in workload if q.dataset == dataset]))

    def build():
        return {d: QueryAnswerer(load(d, facts[d]), cache=QueryCache()) for d in facts}

    samples = Samples()
    fingerprints = Fingerprints(root, "plan-cold", seed, scale)
    cell = Cell(samples, traced, fingerprints)
    answerers = _timed_setups(samples, traced, scale.setups, build)
    phases = Phases(traced, lambda: list(answerers.values()))
    passes = 0

    def one_pass() -> int:
        # Each pass has its own seeded order.  An answerer's memos carry
        # work from one query to the next, so a query's planning time
        # depends on the queries before it; more orders per run average
        # that out.
        nonlocal passes
        answers = sum(
            cell.run(answerers[query.dataset], query, "gcov", "native", expected[query.label]) > 0
            for query in inputs.shuffled(workload, seed, f"plan-cold-order:{passes}")
        )
        passes += 1
        return answers

    def fresh_answerers() -> None:
        # Drop the last pass's answerers first, so that peak memory
        # does not depend on how many passes fit in the run.
        nonlocal answerers
        answerers = None
        answerers = build()

    # A traced pass of plan-cold is long: one untraced and one traced.
    # An untraced run makes at least two: one pass is one sample of its
    # rate and one answer per query, and host noise moved those by a
    # quarter between runs.
    _passes(phases, cell, one_pass, seconds, 2, between=fresh_answerers, min_passes=2)
    fingerprints.settle()
    note(f"plan-cold: {passes} pass(es) of {len(workload)} first-seen gcov answers")
    return samples


# ----------------------------------------------------------------------
# eval-warm
# ----------------------------------------------------------------------
def eval_warm(root: str, seed: int, seconds: float, traced: Optional[Traced], scale: Scale = DEFAULT) -> Samples:
    """Warm answers of 30 LUBM queries x 4 strategies x 2 engines."""
    facts = inputs.lubm_triples(scale.eval_universities)
    workload = inputs.queries("lubm", inputs.LUBM_QUERIES)
    expected = expected_answers("lubm", facts, workload)
    cells = [
        (engine, strategy, query)
        for engine in ("native", "sqlite")
        for strategy in EVAL_STRATEGIES
        for query in workload
    ]
    measured_cells = [c for c in cells if (c[0], c[1], c[2].label) not in KNOWN_LIMITS]
    limited = [c for c in cells if (c[0], c[1], c[2].label) in KNOWN_LIMITS]
    samples = Samples()
    fingerprints = Fingerprints(root, "eval-warm", seed, scale)
    cell = Cell(samples, traced, fingerprints)
    limit_failures: List[str] = []

    def build():
        database = load("lubm", facts)
        # Both engines answer over one store and schema, so they share
        # the engine-independent planning state: the reformulation memo
        # and the cost model (default, uncalibrated constants).
        shared = {"reformulator": Reformulator(database.schema), "cost_model": CostModel(database)}
        answerers = {
            "native": QueryAnswerer(database, cache=QueryCache(), **shared),
            "sqlite": QueryAnswerer(
                database, engine=SQLiteEngine(database), cache=QueryCache(), **shared
            ),
        }
        limit_failures.clear()
        for engine, strategy, query in inputs.shuffled(cells, seed, "eval-warm-up"):
            if (engine, strategy, query.label) in KNOWN_LIMITS:
                try:
                    cell.run(answerers[engine], query, strategy, engine, expected[query.label], measured=False)
                except EngineFailure as error:
                    limit_failures.append(f"{engine}/{strategy}/{query.label}: {error}")
                continue
            cell.run(answerers[engine], query, strategy, engine, expected[query.label], measured=False)
        return answerers

    answerers = _timed_setups(samples, traced, scale.setups, build)
    for failure in limit_failures:
        note(f"eval-warm: known engine limit: {failure}")
    note(f"eval-warm: {len(limit_failures)} of {len(limited)} known-limit cells failed in set-up")
    if traced is not None:
        traced.extra["engine.limit_failures"] = float(len(limit_failures))
    phases = Phases(traced, lambda: list(answerers.values()))
    passes = 0

    def one_pass() -> int:
        nonlocal passes
        answers = sum(
            cell.run(answerers[engine], query, strategy, engine, expected[query.label]) > 0
            for engine, strategy, query in inputs.shuffled(measured_cells, seed, f"eval-warm-pass:{passes}")
        )
        passes += 1
        return answers

    _passes(phases, cell, one_pass, seconds, 4)
    fingerprints.settle()
    note(f"eval-warm: {passes} pass(es) of {len(measured_cells)} warm answers")
    return samples


# ----------------------------------------------------------------------
# update-mix
# ----------------------------------------------------------------------
def update_mix(root: str, seed: int, seconds: float, traced: Optional[Traced], scale: Scale = DEFAULT) -> Samples:
    """Writes beside reads: one write, then 7 queries x 3 strategies.

    A run is :attr:`Scale.update_cycles` cycles whatever ``seconds``
    says.  The world holds a university for every cycle beyond the base,
    more than the cycles that write facts need.
    """
    base = scale.update_universities
    workload = inputs.queries("lubm", scale.update_queries)
    world = inputs.university_batches(base + scale.update_cycles)
    base_facts = [t for _ in range(base) for t in next(world)]
    batches = inputs.block_shuffled(world, seed, "update-writes")
    oracle = Oracle(inputs.schema("lubm"))
    oracle.add(base_facts)
    expected = {q.label: oracle.answers(q.source) for q in workload}
    samples = Samples()
    fingerprints = Fingerprints(root, "update-mix", seed, scale)
    cell = Cell(samples, traced, fingerprints)

    def build():
        database = load("lubm", base_facts)
        answerer = QueryAnswerer(database, cache=QueryCache())
        for query in workload:
            for strategy in UPDATE_STRATEGIES:
                cell.run(answerer, query, strategy, "native", expected[query.label], measured=False)
        return answerer

    answerer = _timed_setups(samples, traced, scale.setups, build)
    database = answerer.database
    phases = Phases(traced, lambda: [answerer])

    def next_write(index: int):
        """The cycle's write, applied to the oracle ahead of the program."""
        if index % 10 == 5:
            kind, edge = inputs.schema_edit(seed, index, oracle.schema)
            inputs.apply_schema_edit(oracle.schema, kind, edge)
            write = ("schema", (kind, edge))
        else:
            batch = next(batches)
            oracle.add(batch)
            write = ("facts", batch)
        return write, {q.label: oracle.answers(q.source) for q in workload}

    def one_cycle(cycle: int, write, cycle_expected) -> int:
        what, payload = write
        started = time.perf_counter()
        if what == "schema":
            inputs.apply_schema_edit(database.schema, *payload)
        else:
            database.load_facts(payload)
        elapsed = time.perf_counter() - started
        samples.write_s.append(elapsed)
        cell.busy_s += elapsed
        fresh = set(UPDATE_STRATEGIES)
        answers = 0
        for query, strategy in inputs.shuffled(
            [(q, s) for q in workload for s in UPDATE_STRATEGIES], seed, f"update-cycle:{cycle}"
        ):
            elapsed = cell.run(
                answerer, query, strategy, "native", cycle_expected[query.label], key=f"@{cycle}"
            )
            answers += elapsed > 0
            if strategy in fresh:
                fresh.discard(strategy)
                if elapsed:
                    samples.fresh_s.setdefault(strategy, []).append(elapsed)
        return answers

    edits = 0
    for cycle in range(scale.update_cycles):
        write, cycle_expected = next_write(cycle)
        edits += write[0] == "schema"
        trace = traced is not None and cycle % 2 == 1
        phases.unit(cell, lambda: one_cycle(cycle, write, cycle_expected), trace)
    fingerprints.settle()
    note(
        f"update-mix: {scale.update_cycles} cycles ({edits} schema edits), "
        f"store now {len(database)} facts"
    )
    return samples


WORKLOADS = {"plan-cold": plan_cold, "eval-warm": eval_warm, "update-mix": update_mix}
