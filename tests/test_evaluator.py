"""Tests for the native engines: correctness vs the reference evaluator,
profile limits, and timeouts."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    EngineFailure,
    EngineProfile,
    EngineTimeout,
    NATIVE_HASH,
    NATIVE_MERGE,
    NativeEngine,
)
from repro.query import BGPQuery, JUCQ, UCQ, evaluate
from repro.rdf import RDFGraph, RDF_TYPE, Triple, URI, Variable
from repro.resilience import ExecutionBudget
from repro.storage import RDFDatabase

x, y, z = Variable("x"), Variable("y"), Variable("z")


def u(name):
    return URI(f"http://ev/{name}")


@pytest.fixture(scope="module")
def facts():
    rows = []
    for i in range(60):
        rows.append(Triple(u(f"s{i}"), u("p"), u(f"o{i % 7}")))
        rows.append(Triple(u(f"o{i % 7}"), u("q"), u(f"s{(i + 1) % 60}")))
        if i % 3 == 0:
            rows.append(Triple(u(f"s{i}"), RDF_TYPE, u("C")))
    return rows


@pytest.fixture(scope="module")
def db(facts):
    database = RDFDatabase()
    database.load_facts(facts)
    return database


@pytest.fixture(scope="module")
def graph(facts):
    return RDFGraph(facts)


@pytest.fixture(scope="module", params=["hash", "merge"])
def engine(request, db):
    profile = NATIVE_HASH if request.param == "hash" else NATIVE_MERGE
    return NativeEngine(db, profile)


class TestCQ:
    def test_single_atom(self, engine, graph):
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        assert engine.evaluate(q) == evaluate(q, graph)

    def test_two_atom_join(self, engine, graph):
        q = BGPQuery([x, z], [Triple(x, u("p"), y), Triple(y, u("q"), z)])
        assert engine.evaluate(q) == evaluate(q, graph)

    def test_constant_positions(self, engine, graph):
        q = BGPQuery([x], [Triple(x, u("p"), u("o3"))])
        assert engine.evaluate(q) == evaluate(q, graph)

    def test_unknown_constant(self, engine, graph):
        q = BGPQuery([x], [Triple(x, u("no_such_p"), y)])
        assert engine.evaluate(q) == frozenset()

    def test_constant_head(self, engine, graph):
        q = BGPQuery([x, u("C")], [Triple(x, RDF_TYPE, u("C"))])
        assert engine.evaluate(q) == evaluate(q, graph)

    def test_empty_body(self, engine, graph):
        q = BGPQuery([u("k")], [])
        assert engine.evaluate(q) == {(u("k"),)}

    def test_boolean(self, engine, graph):
        q = BGPQuery([], [Triple(x, u("p"), y)])
        assert engine.evaluate(q) == {()}

    def test_disconnected_body(self, engine, graph):
        q = BGPQuery([x, z], [Triple(x, RDF_TYPE, u("C")), Triple(z, u("q"), y)])
        assert engine.evaluate(q) == evaluate(q, graph)

    def test_count(self, engine, graph):
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        assert engine.count(q) == len(evaluate(q, graph))


class TestUCQ:
    def test_union_dedups(self, engine, graph):
        a = BGPQuery([x], [Triple(x, u("p"), y)])
        b = BGPQuery([x], [Triple(x, RDF_TYPE, u("C"))])
        ucq = UCQ([a, b])
        assert engine.evaluate(ucq) == evaluate(ucq, graph)

    def test_mixed_constant_heads(self, engine, graph):
        a = BGPQuery([x, y], [Triple(x, RDF_TYPE, y)])
        b = BGPQuery([x, u("C")], [Triple(x, RDF_TYPE, u("C"))])
        ucq = UCQ([a, b])
        assert engine.evaluate(ucq) == evaluate(ucq, graph)


class TestJUCQ:
    def test_two_operands(self, engine, graph):
        left = UCQ([BGPQuery([x, y], [Triple(x, u("p"), y)])])
        right = UCQ([BGPQuery([y, z], [Triple(y, u("q"), z)])])
        j = JUCQ([x, z], [left, right])
        assert engine.evaluate(j) == evaluate(j, graph)

    def test_three_operands(self, engine, graph):
        first = UCQ([BGPQuery([x, y], [Triple(x, u("p"), y)])])
        second = UCQ([BGPQuery([y, z], [Triple(y, u("q"), z)])])
        third = UCQ([BGPQuery([z], [Triple(z, RDF_TYPE, u("C"))])])
        j = JUCQ([x, z], [first, second, third])
        assert engine.evaluate(j) == evaluate(j, graph)

    def test_single_operand(self, engine, graph):
        operand = UCQ([BGPQuery([x], [Triple(x, u("p"), y)])])
        j = JUCQ([x], [operand])
        assert engine.evaluate(j) == evaluate(j, graph)


class TestProfiles:
    def test_union_term_limit(self, db):
        tight = EngineProfile(name="tiny", max_union_terms=2)
        engine = NativeEngine(db, tight)
        cqs = [
            BGPQuery([x], [Triple(x, u("p"), u(f"o{i}"))]) for i in range(3)
        ]
        with pytest.raises(EngineFailure):
            engine.evaluate(UCQ(cqs))

    def test_intermediate_row_limit(self, db):
        tight = EngineProfile(name="tiny", max_intermediate_rows=5)
        engine = NativeEngine(db, tight)
        q = BGPQuery([x, y], [Triple(x, u("p"), y), Triple(x, RDF_TYPE, z)])
        with pytest.raises(EngineFailure):
            engine.evaluate(q)

    def test_timeout(self, db):
        engine = NativeEngine(db)
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        with pytest.raises(EngineTimeout):
            engine.evaluate(q, budget=ExecutionBudget(timeout_s=-1.0))

    def test_unknown_query_type(self, db):
        with pytest.raises(TypeError):
            NativeEngine(db).evaluate(42)


# ----------------------------------------------------------------------
# Property: engine ≡ reference evaluator on random CQs over random data.
# ----------------------------------------------------------------------
_CONSTS = [u(f"c{i}") for i in range(6)]
_PROPS = [u(f"pp{i}") for i in range(3)]
_VARS = [Variable(n) for n in "abcd"]


@st.composite
def _random_case(draw):
    n_facts = draw(st.integers(1, 30))
    facts = [
        Triple(
            draw(st.sampled_from(_CONSTS)),
            draw(st.sampled_from(_PROPS)),
            draw(st.sampled_from(_CONSTS)),
        )
        for _ in range(n_facts)
    ]
    n_atoms = draw(st.integers(1, 3))
    term = st.one_of(st.sampled_from(_CONSTS), st.sampled_from(_VARS))
    atoms = [
        Triple(draw(term), draw(st.sampled_from(_PROPS + _VARS)), draw(term))
        for _ in range(n_atoms)
    ]
    variables = sorted({v for a in atoms for v in a.variables()})
    if variables:
        head = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3))
    else:
        head = []
    return facts, BGPQuery(head, atoms)


@settings(max_examples=80, deadline=None)
@given(case=_random_case())
def test_engine_matches_reference(case):
    facts, query = case
    database = RDFDatabase()
    database.load_facts(facts)
    graph = RDFGraph(facts)
    expected = evaluate(query, graph)
    for profile in (NATIVE_HASH, NATIVE_MERGE):
        assert NativeEngine(database, profile).evaluate(query) == expected
