"""Tests for the QueryAnswerer facade: all strategies, all engines."""

import pytest

from repro.answering import STRATEGIES, QueryAnswerer
from repro.datasets import lubm_query, motivating_q1
from repro.engine import NATIVE_MERGE, NativeEngine, SQLiteEngine
from repro.query import evaluate
from repro.reasoning import saturate


@pytest.fixture(scope="module")
def answerer(lubm_db3):
    return QueryAnswerer(lubm_db3)


@pytest.fixture(scope="module")
def ground_truth(lubm_db3):
    def compute(query):
        graph = lubm_db3.facts_graph()
        return evaluate(query, saturate(graph, lubm_db3.schema))

    return compute


class TestStrategiesAgree:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_q1_all_strategies(self, answerer, ground_truth, strategy):
        query = motivating_q1().query
        report = answerer.answer(query, strategy=strategy)
        assert report.answers == ground_truth(query)

    @pytest.mark.parametrize("name", ["Q01", "Q04", "Q11", "Q14", "Q21"])
    def test_workload_queries_gcov(self, answerer, ground_truth, name):
        query = lubm_query(name)
        report = answerer.answer(query, strategy="gcov")
        assert report.answers == ground_truth(query)

    def test_saturation_matches_gcov(self, answerer):
        query = lubm_query("Q05")
        sat = answerer.answer(query, strategy="saturation")
        ref = answerer.answer(query, strategy="gcov")
        assert sat.answers == ref.answers


class TestReport:
    def test_report_accounting(self, answerer):
        query = motivating_q1().query
        report = answerer.answer(query, strategy="gcov")
        assert report.total_s == report.optimization_s + report.evaluation_s
        assert report.answer_count == len(report.answers)
        assert report.reformulation_terms > 0
        assert report.cover is not None
        assert report.covers_explored > 0

    def test_fixed_strategies_report_no_cover(self, answerer):
        query = motivating_q1().query
        report = answerer.answer(query, strategy="ucq")
        assert report.cover is None
        assert report.covers_explored == 0

    def test_saturation_reports_zero_terms(self, answerer):
        report = answerer.answer(lubm_query("Q14"), strategy="saturation")
        assert report.reformulation_terms == 0


class TestPlan:
    def test_plan_does_not_evaluate(self, answerer):
        query = motivating_q1().query
        planned, search = answerer.plan(query, "gcov")
        assert planned.total_union_terms() > 0
        assert search is not None

    def test_single_atom_scq_falls_back_to_ucq(self, answerer):
        query = lubm_query("Q14")
        planned, _ = answerer.plan(query, "scq")
        assert len(planned) == 1

    def test_unknown_strategy(self, answerer):
        with pytest.raises(ValueError):
            answerer.plan(motivating_q1().query, "magic")


class TestOtherEngines:
    def test_sqlite_engine(self, lubm_db3, ground_truth):
        answerer = QueryAnswerer(lubm_db3, engine=SQLiteEngine(lubm_db3))
        query = lubm_query("Q01")
        report = answerer.answer(query, strategy="gcov")
        assert report.answers == ground_truth(query)

    def test_merge_engine_saturation(self, lubm_db3, ground_truth):
        answerer = QueryAnswerer(lubm_db3, engine=NativeEngine(lubm_db3, NATIVE_MERGE))
        query = lubm_query("Q04")
        report = answerer.answer(query, strategy="saturation")
        assert report.answers == ground_truth(query)
        # The saturated engine keeps the same personality.
        assert answerer.engine_for("saturation").profile is NATIVE_MERGE
