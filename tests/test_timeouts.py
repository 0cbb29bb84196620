"""Timeout-path coverage on both backends (DESIGN.md §10).

The promise under test: a fired deadline is always a loud
:class:`EngineTimeout` — never a silent partial answer set — and the
engine (or SQLite connection) stays fully usable for the next call.

The native engine's deadline is scripted through the budget's
injectable clock, so the timeout fires at an exact operator boundary
(between two join steps) without sleeping; SQLite's cooperative
progress handler is exercised by shrinking ``progress_interval`` so
even tiny statements reach a checkpoint.
"""

from __future__ import annotations

import pytest

from repro.answering import QueryAnswerer
from repro.datasets import lubm_query, lubm_workload
from repro.engine import (
    NATIVE_HASH,
    NATIVE_MERGE,
    EngineFailure,
    EngineTimeout,
    NativeEngine,
    SQLiteEngine,
)
from repro.query import BGPQuery
from repro.rdf import RDF_TYPE, Triple, URI, Variable
from repro.resilience import ChaosConfig, ChaosEngine, ExecutionBudget

x, y, z = Variable("x"), Variable("y"), Variable("z")
UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"


def ub(name: str) -> URI:
    return URI(UB + name)


class ScriptedClock:
    """Returns scripted values, then repeats the last one."""

    def __init__(self, *values: float):
        self._values = list(values)
        self._last = 0.0

    def __call__(self) -> float:
        if self._values:
            self._last = self._values.pop(0)
        return self._last


def two_atom_query() -> BGPQuery:
    """A CQ whose evaluation takes one scan + one join step."""
    return BGPQuery(
        [x, y],
        [
            Triple(x, RDF_TYPE, ub("FullProfessor")),
            Triple(x, ub("teacherOf"), y),
        ],
    )


class TestNativeDeadline:
    def test_deadline_fires_between_join_steps(self, lubm_db):
        """Scripted clock: alive at the first atom, expired at the second.

        The deadline checkpoints sit between operator steps, so the
        timeout surfaces mid-join — after the first scan, before the
        second — and the partially-joined rows are discarded.
        """
        engine = NativeEngine(lubm_db)
        # start, entry check, atom-1 check OK, atom-2 check expired.
        budget = ExecutionBudget(
            timeout_s=10.0, clock=ScriptedClock(0.0, 1.0, 2.0, 100.0)
        )
        with pytest.raises(EngineTimeout):
            engine.evaluate(two_atom_query(), budget=budget)

    def test_no_silent_partial_results(self, lubm_db):
        """An expiry mid-evaluation raises; it never returns a subset."""
        engine = NativeEngine(lubm_db)
        full = engine.evaluate(two_atom_query())
        assert len(full) > 0
        for expire_after in (1, 2, 3):
            script = [0.0] + [1.0] * expire_after + [100.0]
            budget = ExecutionBudget(timeout_s=10.0, clock=ScriptedClock(*script))
            try:
                answers = engine.evaluate(two_atom_query(), budget=budget)
            except EngineTimeout:
                continue
            assert answers == full, (
                "a survived deadline must deliver the complete answer set"
            )

    def test_engine_usable_after_timeout(self, lubm_db):
        engine = NativeEngine(lubm_db)
        budget = ExecutionBudget(timeout_s=10.0, clock=ScriptedClock(0.0, 100.0))
        with pytest.raises(EngineTimeout):
            engine.evaluate(two_atom_query(), budget=budget)
        # The same engine answers the same query cleanly afterwards.
        answers = engine.evaluate(two_atom_query())
        assert len(answers) > 0

    def test_answerer_timeout_then_success(self, lubm_db):
        """The facade path: a timed-out answer, then a clean one."""
        answerer = QueryAnswerer(lubm_db)
        query = lubm_workload()[0].query
        budget = ExecutionBudget(timeout_s=10.0, clock=ScriptedClock(0.0, 100.0))
        with pytest.raises(EngineTimeout):
            answerer.answer(query, strategy="saturation", budget=budget)
        report = answerer.answer(query, strategy="saturation")
        assert report.answer_count >= 0 and report.answers is not None

    def test_legacy_timeout_s_still_fires(self, lubm_db3):
        answerer = QueryAnswerer(lubm_db3)
        with pytest.raises(EngineTimeout):
            answerer.answer(lubm_query("Q09"), strategy="ucq", timeout_s=-1.0)


class TestSQLiteProgressHandler:
    def test_budget_deadline_interrupts_statement(self, lubm_db3):
        """The progress handler cancels the running statement.

        ``progress_interval`` is shrunk to 1 VM instruction so even a
        small statement reaches a checkpoint before finishing.
        """
        engine = SQLiteEngine(lubm_db3)
        engine.progress_interval = 1
        budget = ExecutionBudget(timeout_s=0.0)
        with pytest.raises(EngineTimeout):
            engine.evaluate(two_atom_query(), budget=budget)

    def test_already_expired_budget_interrupts_statement(self, lubm_db3):
        """A running budget whose deadline passed before the call."""
        engine = SQLiteEngine(lubm_db3)
        engine.progress_interval = 1
        budget = ExecutionBudget(
            timeout_s=1.0, clock=ScriptedClock(0.0, 100.0)
        ).start()
        assert budget.expired
        with pytest.raises(EngineTimeout):
            engine.evaluate(two_atom_query(), budget=budget)

    def test_connection_usable_after_interrupt(self, lubm_db3):
        """An interrupted statement leaves the same connection healthy."""
        engine = SQLiteEngine(lubm_db3)
        engine.progress_interval = 1
        query = two_atom_query()
        with pytest.raises(EngineTimeout):
            engine.evaluate(query, budget=ExecutionBudget(timeout_s=0.0))
        # Handler cleared: the very next statement runs to completion.
        answers = engine.evaluate(query)
        assert len(answers) > 0
        assert engine.count(query) == len(answers)

    def test_interrupt_never_returns_partial_rows(self, lubm_db3):
        engine = SQLiteEngine(lubm_db3)
        full = engine.evaluate(two_atom_query())
        assert len(full) > 0
        engine.progress_interval = 1
        try:
            answers = engine.evaluate(
                two_atom_query(), budget=ExecutionBudget(timeout_s=0.0)
            )
        except EngineTimeout:
            answers = None
        assert answers is None, "an expired budget must interrupt, not truncate"

    def test_timed_out_answerer_recovers_on_sqlite(self, lubm_db3):
        engine = SQLiteEngine(lubm_db3)
        engine.progress_interval = 1
        answerer = QueryAnswerer(lubm_db3, engine=engine)
        query = lubm_workload()[0].query
        with pytest.raises(EngineTimeout):
            answerer.answer(
                query, strategy="gcov", budget=ExecutionBudget(timeout_s=0.0)
            )
        engine.progress_interval = 100_000
        report = answerer.answer(query, strategy="gcov")
        assert report.answers is not None


def _protocol_engine(kind: str, database):
    if kind == "native-hash":
        return NativeEngine(database, NATIVE_HASH)
    if kind == "native-merge":
        return NativeEngine(database, NATIVE_MERGE)
    if kind == "sqlite":
        engine = SQLiteEngine(database)
        # Every VM instruction reaches the deadline checkpoint.
        engine.progress_interval = 1
        return engine
    return ChaosEngine(NativeEngine(database), ChaosConfig())


#: (budget factory, raised type, message pattern) per budget axis.
_PROTOCOL_CASES = {
    "expired-deadline": (
        lambda: ExecutionBudget(timeout_s=1.0, clock=ScriptedClock(0.0, 100.0)),
        EngineTimeout,
        None,
    ),
    "result-cap": (
        lambda: ExecutionBudget(max_result_rows=1),
        EngineFailure,
        "max_result_rows",
    ),
    "intermediate-cap": (
        lambda: ExecutionBudget(max_intermediate_rows=1),
        EngineFailure,
        "exceeds",
    ),
}


@pytest.mark.parametrize("case", sorted(_PROTOCOL_CASES))
@pytest.mark.parametrize("kind", ("native-hash", "native-merge", "sqlite", "chaos"))
def test_engine_protocol_enforces_budget(lubm_db3, kind, case):
    """Every engine takes ``evaluate(query, budget=...)`` and enforces
    each budget axis the same way through the answerer."""
    make_budget, raised, pattern = _PROTOCOL_CASES[case]
    answerer = QueryAnswerer(lubm_db3, engine=_protocol_engine(kind, lubm_db3))
    query = two_atom_query()
    assert len(answerer.answer(query, strategy="ucq").answers) >= 2
    with pytest.raises(raised, match=pattern) as excinfo:
        answerer.answer(query, strategy="ucq", budget=make_budget())
    if raised is not EngineTimeout:
        assert not isinstance(excinfo.value, EngineTimeout)
