"""Self-tests of the benchmark (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import glob
import io
import json
import math
import os
import statistics
import sys
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import inputs  # noqa: E402
import library  # noqa: E402
import measure  # noqa: E402
import ruler  # noqa: E402
import run  # noqa: E402
import served  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from library import Scale  # noqa: E402
from oracle import WrongAnswer  # noqa: E402

#: Small enough for seconds per run; the same code paths as the default.
TINY = Scale(
    update_universities=1,
    update_queries=("Q10", "Q14", "Q22"),
    update_cycles=23,
    setups=2,
)


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as source:
        return json.load(source)


# ----------------------------------------------------------------------
# Percentiles and the samples-beyond rule
# ----------------------------------------------------------------------
def test_p95_withheld_below_200_samples():
    assert stats.tail_percentile(list(range(199)), 95.0) is None
    assert stats.tail_percentile(list(range(200)), 95.0) is not None


def test_p75_needs_ten_samples_beyond():
    assert stats.samples_beyond(40, 75.0) == 10
    assert stats.tail_percentile([float(i) for i in range(40)], 75.0) == pytest.approx(29.25)
    assert stats.tail_percentile([float(i) for i in range(39)], 75.0) is None


def test_highest_tail_follows_sample_count():
    assert stats.highest_tail(1000) == 99.0
    assert stats.highest_tail(500) == 95.0
    assert stats.highest_tail(100) == 90.0
    assert stats.highest_tail(40) == 75.0
    assert stats.highest_tail(39) is None


def test_percentile_interpolates_and_orders():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.median(values) == 3.0
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 25) == 2.0
    assert stats.percentile([1.0, 2.0], 50) == 1.5


def test_failed_samples_sort_last():
    values = [1.0] * 20 + [math.inf]
    assert stats.median(values) == 1.0
    assert stats.percentile(values, 100) == math.inf


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.2, 9.7, 10.9, 10.0, 9.9, 10.4, 11.3, 9.5, 10.1, 10.6]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_ruler_factor_over_a_span():
    ruler_ = ruler.Ruler()
    ruler_.samples = [(t, 0.020) for t in (0, 1, 2, 3)] + [(t, 0.040) for t in (10, 11, 12, 13)]
    assert ruler_.factor_over(9.5, 13.5) == pytest.approx(0.5)
    assert ruler_.factor_over(0.0, 3.0) == pytest.approx(1.0)
    # Fewer than NEAREST samples inside: the nearest to the midpoint.
    assert ruler_.factor_over(12.5, 13.5) == pytest.approx(0.5)
    assert ruler_.factor_at(1.5) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    log = spans.SpanLog()
    root = log.add("root", 0.0, 10.0)
    child = log.add("child", 1.0, 4.0, parent=root)
    log.add("grandchild", 2.0, 3.0, parent=child)
    selfs = spans.self_times(log.start, log.end, log.parent)
    assert selfs == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    log = spans.SpanLog()
    root = log.add("root", 0.0, 10.0)
    log.add("a", 1.0, 5.0, parent=root)
    log.add("b", 3.0, 7.0, parent=root)   # overlaps a on [3, 5]
    log.add("c", 9.0, 12.0, parent=root)  # runs past the parent's end
    selfs = spans.self_times(log.start, log.end, log.parent)
    assert selfs[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_live_spans_nest_by_call_stack():
    log = spans.SpanLog()
    outer = log.begin("outer")
    inner = log.begin("inner")
    log.finish(inner)
    sibling = log.begin("sibling")
    log.finish(sibling)
    log.finish(outer)
    assert list(log.parent) == [-1, outer, outer]


def test_answer_attribution_by_layer():
    log = spans.SpanLog()
    answer = log.add("QueryAnswerer.answer", 0.0, 10.0)
    plan = log.add("QueryAnswerer.plan", 0.0, 8.0, parent=answer)
    log.add("gcov", 1.0, 7.0, parent=plan)
    log.add("NativeEngine.evaluate", 8.0, 9.5, parent=answer)
    summary = spans.summarize(log)
    assert summary.answer_total_s == pytest.approx(10.0)
    assert summary.answer_self_s["optimizer"] == pytest.approx(6.0)
    assert summary.answer_self_s["engine"] == pytest.approx(1.5)
    assert summary.answer_self_s["answering"] == pytest.approx(2.5)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def _inputs(seed):
    workload = inputs.queries("lubm", inputs.LUBM_QUERIES)
    writes = inputs.block_shuffled(inputs.university_batches(4), seed, "writes", block=4)
    return {
        "lubm": inputs.lubm_triples(2),
        "dblp": inputs.dblp_triples(50),
        "order": [q.label for q in inputs.shuffled(workload, seed, "order")],
        "writes": [t for batch in writes for t in batch],
        "edits": [inputs.schema_edit(seed, i, inputs.schema("lubm")) for i in range(4)],
    }


def test_same_seed_same_inputs():
    assert repr(_inputs(3)) == repr(_inputs(3))


def test_other_seed_other_order_writes_and_edits():
    first, second = _inputs(3), _inputs(4)
    assert first["order"] != second["order"]
    assert first["writes"] != second["writes"]
    assert first["edits"] != second["edits"]
    assert sorted(map(repr, first["writes"])) == sorted(map(repr, second["writes"]))


def test_university_batches_split_by_university():
    first, second = inputs.university_batches(2)
    assert first + second == inputs.lubm_triples(2)


# ----------------------------------------------------------------------
# serve-mix accounting
# ----------------------------------------------------------------------
def test_non_200_is_an_error_and_misses_the_limit():
    samples, stats_ = measure.Samples(), served.Served()
    served.record_response(samples, stats_, "lubm/Q01", 503, b'{"code": "draining"}', 0.001, [], True)
    assert (samples.attempted, samples.failed, samples.correct) == (1, 1, 0)
    assert stats_.within_limit == 0
    assert samples.answer_s == [math.inf]


def test_200_within_limit_counts():
    samples, stats_ = measure.Samples(), served.Served()
    body = json.dumps({"rows": ["a"], "strategy": "gcov", "strategy_used": "gcov",
                       "attempts": [{}], "queue_wait_s": 0.0001,
                       "optimization_s": 0.0002, "evaluation_s": 0.0003}).encode()
    served.record_response(samples, stats_, "lubm/Q01", 200, body, 0.002, ["a"], True)
    assert (samples.correct, samples.failed, stats_.within_limit) == (1, 0, 1)
    assert stats_.overhead_ms == [pytest.approx(1.4)]


def test_200_with_wrong_rows_is_a_wrong_answer():
    body = json.dumps({"rows": ["a"], "answer_count": 1}).encode()
    with pytest.raises(WrongAnswer):
        served.record_response(measure.Samples(), served.Served(), "lubm/Q01", 200, body, 0.001, ["b"], False)


# ----------------------------------------------------------------------
# Whole runs (tiny scale)
# ----------------------------------------------------------------------
def _run(tmp_path, trace, seed=5):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.run("update-mix", seed, 0.01, trace, scale=TINY, root=str(tmp_path))
    lines = out.getvalue().strip().splitlines()
    return code, (json.loads(lines[-1]) if lines else None)


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    code, result = _run(tmp_path, False)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    code, result = _run(tmp_path, True)
    assert code == 0
    names = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    metrics = result["metrics"]
    assert metrics["storage.load_ms"]["value"] > 0
    assert metrics["reasoning.saturate_calls"]["value"] >= 1
    assert metrics["query.parse_calls"]["value"] >= 1


def test_fingerprints_repeat_across_runs(tmp_path, monkeypatch):
    assert _run(tmp_path, True)[0] == 0
    assert _run(tmp_path, True)[0] == 0
    (stored,) = glob.glob(os.path.join(tmp_path, ".perfbench", "fingerprints", "update-mix-seed5-*.json"))
    with open(stored, encoding="utf-8") as source:
        table = json.load(source)
    cell = next(iter(table))
    table[cell][0] += 1
    with open(stored, "w", encoding="utf-8") as sink:
        json.dump(table, sink)
    assert _run(tmp_path, True) == (1, None)
    # Another program version keeps a table of its own: a change may
    # lower the counts on purpose.
    monkeypatch.setattr(measure, "program_digest", lambda: "other-program")
    assert _run(tmp_path, True)[0] == 0


def test_program_digest_names_the_measured_source():
    digest = measure.program_digest()
    assert len(digest) == 12 and digest == measure.program_digest()


def test_corrupted_answer_fails_the_command(tmp_path, monkeypatch):
    from repro.answering import QueryAnswerer

    original = QueryAnswerer.answer

    def corrupted(self, *args, **kwargs):
        report = original(self, *args, **kwargs)
        if len(report.answers) > 1:
            report.answers = frozenset(list(report.answers)[1:])
        return report

    monkeypatch.setattr(QueryAnswerer, "answer", corrupted)
    assert _run(tmp_path, False) == (1, None)


def test_parser_regression_fails_the_command(tmp_path, monkeypatch):
    """The oracle answers the generator's query objects, not a re-parse
    of the text, so a parser that drops an atom is caught."""
    from repro.query import BGPQuery, parser

    original = parser.parse_query

    def dropping(text, name="q"):
        query = original(text, name=name)
        if len(query.body) > 1:
            query = BGPQuery(query.head, query.body[:-1], name=query.name)
        return query

    monkeypatch.setattr(parser, "parse_query", dropping)
    assert _run(tmp_path, False) == (1, None)


def test_failed_answer_withholds_the_rate(tmp_path, monkeypatch):
    """A failure is counted, never as a correct answer, and the rate it
    would inflate is withheld."""
    from repro.answering import QueryAnswerer

    original = QueryAnswerer.answer
    measuring = {"on": False}

    def failing(self, query, *args, **kwargs):
        if measuring["on"] and query.name == "Q22" and kwargs.get("strategy") == "gcov":
            raise RuntimeError("injected failure")
        return original(self, query, *args, **kwargs)

    monkeypatch.setattr(QueryAnswerer, "answer", failing)
    original_unit = library.Phases.unit

    def unit(self, *args, **kwargs):
        measuring["on"] = True
        return original_unit(self, *args, **kwargs)

    monkeypatch.setattr(library.Phases, "unit", unit)
    code, result = _run(tmp_path, False)
    assert code == 0
    assert result["failed"] == TINY.update_cycles
    assert result["metrics"]["answers_per_s"]["value"] is None
    assert result["metrics"]["answer_ms.p50"]["value"] > 0


def test_missing_program_exits_nonzero(tmp_path):
    import shutil
    import subprocess

    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "plan-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
