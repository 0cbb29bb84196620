"""Figure 10 — saturation-based vs optimized reformulation-based answering.

The paper compares (i) UCQ reformulation, (ii) saturation on Postgres,
(iii) saturation on Virtuoso, (iv) the GCov JUCQ — on LUBM 1M and 100M.
Expected shape: UCQ is far worse than saturation (up to 3 orders, with
failures at the large scale); the GCov JUCQ is competitive with
saturation on many queries — "remarkable given that reformulation
reasons at query time" — while saturation keeps an edge on some.

Our saturation baselines: each engine personality querying the
pre-saturated store.  The saturation *build* cost (which reformulation
never pays, and which updates re-trigger) is benchmarked separately.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.engine import EngineFailure

DATASET = "lubm-small"
QUERY_SUBSET = ("q1", "Q02", "Q05", "Q09", "Q14", "Q26")
APPROACHES = ("ucq", "gcov", "saturation")


def _entry(name: str):
    return next(e for e in H.workload(DATASET) if e.name == name)


@pytest.mark.parametrize("approach", APPROACHES)
@pytest.mark.parametrize("name", QUERY_SUBSET)
def test_fig10_answering_time(benchmark, name, approach):
    entry = _entry(name)
    if approach == "saturation":
        engine = H.saturated_engine(DATASET, "native-hash")
        planned = entry.query
    else:
        qa = H.answerer(DATASET, "native-hash")
        planned = qa.plan(entry.query, approach)[0]
        engine = H.engine(DATASET, "native-hash")

    def evaluate():
        return engine.count(planned, budget=H.EVAL_BUDGET)

    try:
        answers = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    except EngineFailure as error:
        pytest.skip(f"engine limit (paper's missing bar): {error}")
    benchmark.extra_info.update({"answers": answers})


def test_fig10_saturation_build_cost(benchmark):
    """The upfront cost reformulation avoids (and updates re-trigger)."""
    db = H.database(DATASET)
    saturated = benchmark.pedantic(db.saturated, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {"facts": len(db), "saturated": len(saturated)}
    )
    assert len(saturated) > len(db)


def test_fig10_same_answers(benchmark):
    """Saturation and GCov reformulation answer identically."""

    def run():
        agreements = []
        for name in QUERY_SUBSET:
            sat = H.saturated_engine(DATASET, "native-hash").count(
                _entry(name).query, budget=H.EVAL_BUDGET
            )
            ref = H.measure(DATASET, _entry(name), "gcov", "native-hash")
            agreements.append(ref.status == "ok" and ref.answers == sat)
        return agreements

    assert all(benchmark.pedantic(run, rounds=1, iterations=1))


def main():
    import time

    from repro.bench import summarize

    report = H.bench_report(
        "fig10_saturation", "Figure 10 — saturation vs optimized reformulation"
    )
    for dataset in ("lubm-small", "lubm-large"):
        print(f"\nFigure 10 — {dataset} ({len(H.database(dataset))} triples)")
        print(f"{'query':8}{'UCQ (ms)':>12}{'GCov JUCQ (ms)':>16}"
              f"{'saturation (ms)':>18}")
        for entry in H.workload(dataset):
            cells = {}
            for approach in ("ucq", "gcov"):
                m = H.measure(dataset, entry, approach, "native-hash")
                cells[approach] = m.cell()
                H.measurement_cell(report, m)
            engine = H.saturated_engine(dataset, "native-hash")
            samples_ms = []
            sat_status = "ok"
            for _ in range(H.BENCH_REPEATS):
                start = time.perf_counter()
                try:
                    engine.count(entry.query, budget=H.EVAL_BUDGET)
                except EngineFailure:
                    sat_status = "failed"
                    break
                samples_ms.append((time.perf_counter() - start) * 1000)
            cells["sat"] = f"{samples_ms[0]:.1f}" if sat_status == "ok" else "FAILED"
            report.add_cell(
                {
                    "dataset": dataset,
                    "query": entry.name,
                    "strategy": "saturated-store",
                    "engine": "native-hash",
                },
                status=sat_status,
                metrics={"evaluation_ms": summarize(samples_ms)} if samples_ms else {},
            )
            print(f"{entry.name:8}{cells['ucq']:>12}{cells['gcov']:>16}"
                  f"{cells['sat']:>18}")
    report.write_text(H.results_dir() / "fig10_saturation.txt")
    return report


if __name__ == "__main__":
    main()
