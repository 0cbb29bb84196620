"""Ablation — which cost-model terms matter for GCov's choices?

DESIGN.md calls out two model terms as design choices worth isolating:
the materialization charge (Section 4.1 (v): all operands but the
pipelined largest) and the duplicate-elimination charges.  This bench
re-runs GCov with each term disabled and compares both the chosen
covers and the evaluation time of the chosen JUCQs.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.cost import CostModel
from repro.engine import EngineFailure
from repro.optimizer import gcov
from repro.reformulation import format_cover

DATASET = "lubm-small"
ENGINE = "native-hash"
QUERY_SUBSET = ("q1", "Q02", "Q09", "Q18", "Q26")

VARIANTS = {
    "full": {},
    "no-materialization": {"charge_materialization": False},
    "no-dedup": {"charge_dedup": False},
}


def _model(variant: str) -> CostModel:
    return CostModel(
        H.database(DATASET),
        constants=H.cost_constants(DATASET, ENGINE),
        **VARIANTS[variant],
    )


def _choose(name: str, variant: str):
    entry = next(e for e in H.workload(DATASET) if e.name == name)
    return gcov(entry.query, H.reformulator(DATASET), _model(variant).cost)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", QUERY_SUBSET)
def test_ablation_variant_evaluation(benchmark, name, variant):
    result = _choose(name, variant)
    engine = H.engine(DATASET, ENGINE)

    def evaluate():
        return engine.count(result.jucq, budget=H.EVAL_BUDGET)

    try:
        answers = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    except EngineFailure as error:
        pytest.skip(f"variant's choice hit an engine limit: {error}")
    benchmark.extra_info.update({"answers": answers})


def test_ablation_all_variants_correct(benchmark):
    """Disabling cost terms may change the cover, never the answers."""

    def run():
        engine = H.engine(DATASET, ENGINE)
        counts = {}
        for name in QUERY_SUBSET:
            per_variant = set()
            for variant in VARIANTS:
                result = _choose(name, variant)
                per_variant.add(
                    engine.count(result.jucq, budget=H.EVAL_BUDGET)
                )
            counts[name] = per_variant
        return counts

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(len(v) == 1 for v in counts.values())


def main():
    report = H.bench_report(
        "ablation_cost_terms", "Ablation — cost-model terms"
    )
    print(f"Ablation — cost-model terms ({DATASET}, {ENGINE})")
    for name in QUERY_SUBSET:
        entry = next(e for e in H.workload(DATASET) if e.name == name)
        print(f"\n{name}:")
        for variant in sorted(VARIANTS):
            result = _choose(name, variant)
            print(
                f"  {variant:20} cover={format_cover(entry.query, result.cover):30}"
                f" est={result.estimated_cost:.4f}"
            )
            report.add_cell(
                {"dataset": DATASET, "query": name, "variant": variant},
                metrics={"estimated_cost": round(result.estimated_cost, 6)},
                info={"cover": format_cover(entry.query, result.cover)},
            )
    report.write_text(H.results_dir() / "ablation_cost_terms.txt")
    return report


if __name__ == "__main__":
    main()
