"""Figure 5 — LUBM (large scale): the same comparison where failures bite.

At the paper's 100M scale, the UCQ reformulation becomes infeasible for
several queries (Q9, Q15, Q18, Q19, Q28 on DB2; more on Postgres and
MySQL), SCQ collapses under giant intermediate results, and the GCov
JUCQ is up to 4 orders of magnitude faster than SCQ and 2 over UCQ.

Here the large-scale store (``REPRO_LUBM_LARGE`` universities) plays
the 100M role; engine statement limits produce the same missing bars:
q1/q2/Q09/Q18/Q28-class queries exceed SQLite's 500-term cap and
native-merge's 2,000-term cap under the UCQ strategy.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.engine import EngineFailure
from repro.optimizer import SearchInfeasible

DATASET = "lubm-large"
STRATEGIES = ("ucq", "scq", "ecov", "gcov")
QUERY_SUBSET = ("q1", "Q05", "Q09", "Q18", "Q26")
ENGINES = ("native-hash", "sqlite")


def _entry(name: str):
    return next(e for e in H.workload(DATASET) if e.name == name)


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", QUERY_SUBSET)
def test_fig5_answering_time(benchmark, name, strategy, engine_name):
    qa = H.answerer(DATASET, engine_name)
    try:
        planned = qa.plan(_entry(name).query, strategy)[0]
    except SearchInfeasible as error:
        pytest.skip(f"search infeasible (paper's missing bar): {error}")
    engine = H.engine(DATASET, engine_name)

    def evaluate():
        return engine.count(planned, budget=H.EVAL_BUDGET)

    try:
        answers = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    except EngineFailure as error:
        pytest.skip(f"engine limit (paper's missing bar): {error}")
    benchmark.extra_info.update({"answers": answers})


def test_fig5_ucq_fails_where_gcov_succeeds(benchmark):
    """The Figure 5 signature: on the strict engines, the plain UCQ of
    the fan-out queries fails while GCov's JUCQ completes."""

    def run():
        ucq_q1 = H.measure(DATASET, _entry("q1"), "ucq", "sqlite")
        gcov_q1 = H.measure(DATASET, _entry("q1"), "gcov", "sqlite")
        return ucq_q1, gcov_q1

    ucq_q1, gcov_q1 = benchmark.pedantic(run, rounds=1, iterations=1)
    assert ucq_q1.status == "failed"  # > 500 compound terms
    assert gcov_q1.status == "ok"


def main():
    queries = [e for e in H.workload(DATASET)]
    results = H.run_grid(DATASET, queries, STRATEGIES, ENGINES)
    return H.finish_grid(
        "fig5_lubm_large",
        f"Figure 5 — {DATASET} ({len(H.database(DATASET))} triples)",
        results,
        STRATEGIES,
    )


if __name__ == "__main__":
    main()
