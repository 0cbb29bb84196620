"""Table 2 — every cover-based reformulation of q1.

The paper lists all eight covers of the three-triple q1 with their
number of union terms and execution times: the monolithic UCQ
(t1,t2,t3) is slow, the SCQ (t1)(t2)(t3) is far worse, and the grouped
(t1,t3)(t2) wins by >10×.  This bench regenerates the eight rows.

Run directly for the paper-style table; under pytest-benchmark each
cover's evaluation is one measured case.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.datasets import motivating_q1
from repro.engine import EngineFailure
from repro.reformulation import enumerate_covers, format_cover, jucq_for_cover

DATASET = "lubm-small"
ENGINE = "native-hash"


def _covers():
    query = motivating_q1().query
    return [(format_cover(query, cover), cover) for cover in enumerate_covers(query)]


def _jucq(cover):
    return jucq_for_cover(motivating_q1().query, cover, H.reformulator(DATASET))


_COVER_IDS = [label for label, _ in _covers()]


@pytest.mark.parametrize("label", _COVER_IDS)
def test_table2_cover_evaluation(benchmark, label):
    cover = dict(_covers())[label]
    jucq = _jucq(cover)  # built (and memoized) outside the measurement
    engine = H.engine(DATASET, ENGINE)

    def evaluate():
        return engine.count(jucq, budget=H.EVAL_BUDGET)

    try:
        answers = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    except EngineFailure as error:
        pytest.skip(f"engine limit (paper's missing cell): {error}")
    benchmark.extra_info.update(
        {"cover": label, "reformulations": jucq.total_union_terms(), "answers": answers}
    )


def test_table2_all_covers_agree(benchmark):
    """Theorem 3.1 at benchmark scale: every cover returns the same set."""

    def check():
        engine = H.engine(DATASET, ENGINE)
        counts = set()
        for _, cover in _covers():
            counts.add(engine.count(_jucq(cover), budget=H.EVAL_BUDGET))
        return counts

    counts = benchmark.pedantic(check, rounds=1, iterations=1)
    assert len(counts) == 1


def main():
    import time

    from repro.bench import summarize
    from repro.reformulation import jucq_for_cover as build

    report = H.bench_report(
        "table2_q1_covers", "Table 2 — cover-based reformulations of q1"
    )
    # Both scales: the SCQ-vs-grouped crossover is scale-dependent (the
    # paper's 100M-triple store sits far above it).
    for dataset in ("lubm-small", "lubm-large"):
        engine = H.engine(dataset, ENGINE)
        reformulator = H.reformulator(dataset)
        print(f"\nTable 2 — cover-based reformulations of q1 "
              f"(dataset: {dataset}, {len(H.database(dataset))} triples, "
              f"engine: {ENGINE})")
        print(f"{'cover':28}{'#reformulations':>18}"
              f"{'exec. time (ms)':>18}{'#answers':>10}")
        for label, cover in _covers():
            jucq = build(motivating_q1().query, cover, reformulator)
            samples_ms = []
            answers = "-"
            status = "ok"
            for _ in range(H.BENCH_REPEATS):
                start = time.perf_counter()
                try:
                    answers = engine.count(jucq, budget=H.EVAL_BUDGET)
                except EngineFailure:
                    status = "failed"
                    break
                samples_ms.append((time.perf_counter() - start) * 1000)
            cell = f"{samples_ms[0]:.1f}" if status == "ok" else "FAILED"
            print(f"{label:28}{jucq.total_union_terms():>18}"
                  f"{cell:>18}{answers!s:>10}")
            report.add_cell(
                {"dataset": dataset, "query": "q1", "cover": label, "engine": ENGINE},
                status=status,
                metrics={"evaluation_ms": summarize(samples_ms)} if samples_ms else {},
                info={
                    "reformulations": jucq.total_union_terms(),
                    "answers": answers if status == "ok" else "",
                },
            )
    report.write_text(H.results_dir() / "table2_q1_covers.txt")
    return report


if __name__ == "__main__":
    main()
