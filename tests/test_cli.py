"""Tests for the command-line interface."""

import io
import re
import sys

import pytest

from repro.cli import main
from repro.datasets import UB


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "campus.nt"
    assert main(["generate", "lubm", "--universities", "1", "-o", str(path)]) == 0
    return path


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_lubm_file(self, dataset):
        text = dataset.read_text()
        assert "univ-bench" in text
        assert text.count("\n") > 3000

    def test_dblp_stdout(self, capsys):
        code, out, err = run_cli(
            ["generate", "dblp", "--publications", "50"], capsys
        )
        assert code == 0
        assert "dblp.example.org" in out

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.nt", tmp_path / "b.nt"
        main(["generate", "lubm", "--universities", "1", "-o", str(a), "--seed", "9"])
        main(["generate", "lubm", "--universities", "1", "-o", str(b), "--seed", "9"])
        assert a.read_text() == b.read_text()


class TestQuery:
    @pytest.mark.parametrize("strategy", ["gcov", "ucq", "saturation"])
    def test_answers_printed(self, dataset, capsys, strategy):
        code, out, err = run_cli(
            [
                "query",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Chair }",
                "--prefix",
                f"ub={UB}",
                "--strategy",
                strategy,
            ],
            capsys,
        )
        assert code == 0
        assert out.count("\n") == 4  # one chair per department
        assert "answers" in err
        # The phase split is reported from the AnswerReport, with parse
        # time separated out (total_s excludes parsing).
        assert "parse=" in err
        assert "optimize=" in err
        assert "evaluate=" in err
        assert "total excludes parse" in err

    def test_trace_export(self, dataset, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.jsonl"
        code, out, err = run_cli(
            [
                "query",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Professor . ?x ub:worksFor ?d }",
                "--prefix",
                f"ub={UB}",
                "--strategy",
                "gcov",
                "--trace",
                str(trace_path),
            ],
            capsys,
        )
        assert code == 0
        assert "trace:" in err
        entries = [json.loads(line) for line in trace_path.read_text().splitlines()]
        names = {e.get("name") for e in entries if e["type"] == "span"}
        assert {"parse", "answer", "cover-search", "evaluate", "dedup"} <= names
        assert any(e["type"] == "search" for e in entries)
        assert any(e["type"] == "accuracy" for e in entries)

    def test_sqlite_engine(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "query",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:ResearchGroup }",
                "--prefix",
                f"ub={UB}",
                "--engine",
                "sqlite",
            ],
            capsys,
        )
        assert code == 0
        assert out.count("\n") == 12  # 3 groups × 4 departments

    def test_bad_prefix_rejected(self, dataset):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    str(dataset),
                    "-q",
                    "SELECT ?x WHERE { ?x a ub:Chair }",
                    "--prefix",
                    "malformed",
                ]
            )


class TestExplain:
    def test_native_plan(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "explain",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Professor . ?x ub:worksFor ?d }",
                "--prefix",
                f"ub={UB}",
            ],
            capsys,
        )
        assert code == 0
        assert "cover:" in out
        assert "union terms" in out
        assert "JUCQ" in out or "UCQ" in out

    def test_sql_output(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "explain",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Chair }",
                "--prefix",
                f"ub={UB}",
                "--strategy",
                "ucq",
                "--sql",
            ],
            capsys,
        )
        assert code == 0
        assert "SELECT DISTINCT" in out
        assert "FROM triples" in out

    @pytest.mark.parametrize("strategy", ("saturation", "litemat"))
    def test_derived_store_estimates_are_non_zero(self, dataset, capsys, strategy):
        """Explain plans over the strategy's derived store: Person has
        no asserted instances, only entailed ones."""
        code, out, _ = run_cli(
            [
                "explain",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Person . }",
                "--prefix",
                f"ub={UB}",
                "--strategy",
                strategy,
            ],
            capsys,
        )
        assert code == 0
        estimates = [
            int(count) for count in re.findall(r"(?:~|scan volume )(\d+) tuples", out)
        ]
        assert estimates and all(count > 0 for count in estimates), out


class TestProfile:
    def test_sections_printed(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "profile",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Professor . ?x ub:worksFor ?d }",
                "--prefix",
                f"ub={UB}",
                "--strategy",
                "gcov",
            ],
            capsys,
        )
        assert code == 0
        assert "== spans ==" in out
        assert "cover-search" in out
        assert "== operator counters ==" in out
        assert "scan.rows" in out
        assert "== cost-model accuracy ==" in out
        assert "q(cost)" in out
        assert "search trajectory" in out

    def test_trace_export(self, dataset, tmp_path, capsys):
        trace_path = tmp_path / "profile.jsonl"
        code, out, err = run_cli(
            [
                "profile",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Chair }",
                "--prefix",
                f"ub={UB}",
                "--trace",
                str(trace_path),
            ],
            capsys,
        )
        assert code == 0
        assert trace_path.exists()
        assert "wrote" in err

    def test_sqlite_engine_profiled(self, dataset, capsys):
        code, out, _ = run_cli(
            [
                "profile",
                str(dataset),
                "-q",
                "SELECT ?x WHERE { ?x a ub:Chair }",
                "--prefix",
                f"ub={UB}",
                "--engine",
                "sqlite",
            ],
            capsys,
        )
        assert code == 0
        assert "sqlite.execute" in out
        assert "sqlite.rows_fetched" in out


class TestStats:
    def test_summary(self, dataset, capsys):
        code, out, _ = run_cli(["stats", str(dataset), "--top", "3"], capsys)
        assert code == 0
        assert "facts:" in out
        assert "class histogram" in out
