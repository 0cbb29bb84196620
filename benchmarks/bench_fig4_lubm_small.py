"""Figure 4 — LUBM (small scale): UCQ vs SCQ vs ECov vs GCov on 3 engines.

The paper's Figure 4 plots per-query answering time (log scale) for the
four strategies on DB2, Postgres and MySQL over LUBM 1M.  Its headline
findings, which this bench regenerates on our three engine
personalities:

* neither UCQ nor SCQ is reliable — each is worst (or fails) somewhere;
* the GCov-chosen JUCQ always completes;
* GCov tracks ECov closely.

Under pytest-benchmark a representative query subset is measured (one
pedantic round per case; engine failures surface as skips = the paper's
missing bars).  ``python benchmarks/bench_fig4_lubm_small.py`` runs the
full 30-query grid and prints one table per engine.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.engine import EngineFailure
from repro.optimizer import SearchInfeasible

DATASET = "lubm-small"
STRATEGIES = ("ucq", "scq", "ecov", "gcov")
QUERY_SUBSET = ("q1", "Q02", "Q05", "Q09", "Q14", "Q18", "Q26")


def _entry(name: str):
    return next(e for e in H.workload(DATASET) if e.name == name)


def _planned(name: str, strategy: str, engine_name: str):
    qa = H.answerer(DATASET, engine_name)
    return qa.plan(_entry(name).query, strategy)[0]


@pytest.mark.parametrize("engine_name", H.ENGINE_NAMES)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", QUERY_SUBSET)
def test_fig4_answering_time(benchmark, name, strategy, engine_name):
    try:
        planned = _planned(name, strategy, engine_name)
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


def test_fig4_gcov_always_completes(benchmark):
    """Paper: 'the GCov-chosen JUCQ always completes'."""

    def run():
        counts = {}
        for engine_name in H.ENGINE_NAMES:
            for name in QUERY_SUBSET:
                m = H.measure(DATASET, _entry(name), "gcov", engine_name)
                assert m.status == "ok", (name, engine_name, m.detail)
                counts[(name, engine_name)] = m.answers
        return counts

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    # All engines agree on every query's answer count.
    for name in QUERY_SUBSET:
        per_engine = {counts[(name, e)] for e in H.ENGINE_NAMES}
        assert len(per_engine) == 1, name


#: Minimize-on/off ablation cells: the queries where the containment
#: pass eliminates union terms, measured with the pass disabled and
#: labelled ``<strategy>+nomin``.  Against the default (minimizing)
#: cells these show the evaluate-time and union-term-count deltas the
#: static analysis buys (DESIGN.md §13).
ABLATION_QUERIES = ("Q02", "Q05", "Q16", "Q19", "Q24")
ABLATION_STRATEGIES = ("ucq", "gcov")


def _ablation_cells():
    import dataclasses

    cells = []
    entries = [_entry(name) for name in ABLATION_QUERIES]
    for engine_name in H.ENGINE_NAMES:
        for entry in entries:
            for strategy in ABLATION_STRATEGIES:
                m = H.measure(
                    DATASET, entry, strategy, engine_name, minimize=False
                )
                cells.append(
                    dataclasses.replace(m, strategy=f"{strategy}+nomin")
                )
    return cells


def main():
    results = H.run_grid(
        DATASET, H.workload(DATASET), STRATEGIES, H.ENGINE_NAMES
    )
    results += _ablation_cells()
    return H.finish_grid(
        "fig4_lubm_small",
        f"Figure 4 — {DATASET} ({len(H.database(DATASET))} triples)",
        results,
        STRATEGIES + tuple(f"{s}+nomin" for s in ABLATION_STRATEGIES),
    )


if __name__ == "__main__":
    main()
