"""The answer oracle: independent of every path the benchmark measures.

Saturation uses the program's triple-at-a-time *reference*
implementation (:func:`repro.reasoning.saturation.saturate`, the one its
own tests compare the vectorized store against); evaluation is a small
index-backed backtracking matcher written here, over plain Python sets
of RDF terms.  No engine, reformulation, dictionary or triple table of
the program is involved, and nothing here runs inside a timed region.

For RDFS instance rules over a closed schema every consequence of a fact
follows from that fact alone, so the saturation of a union of batches is
the union of the batches' saturations: :meth:`Oracle.add` saturates only
the new batch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.rdf.graph import RDFGraph
from repro.rdf.schema import RDFSchema
from repro.rdf.terms import Term, Triple, Variable
from repro.reasoning.saturation import saturate

Row = Tuple[Term, ...]


class WrongAnswer(AssertionError):
    """An answer set differs from the oracle's."""


class Oracle:
    """Saturated facts plus the indexes the matcher needs."""

    def __init__(self, schema: RDFSchema) -> None:
        self.schema = schema
        self.facts: Set[Tuple[Term, Term, Term]] = set()
        self._by_p: Dict[Term, List[Tuple[Term, Term]]] = defaultdict(list)
        self._by_ps: Dict[Tuple[Term, Term], List[Term]] = defaultdict(list)
        self._by_po: Dict[Tuple[Term, Term], List[Term]] = defaultdict(list)
        self._by_s: Dict[Term, List[Tuple[Term, Term]]] = defaultdict(list)
        self._by_o: Dict[Term, List[Tuple[Term, Term]]] = defaultdict(list)

    def add(self, triples: Iterable[Triple]) -> int:
        """Saturate a batch of explicit facts and index the new triples."""
        graph = RDFGraph()
        for triple in triples:
            graph.add(triple)
        added = 0
        for t in saturate(graph, self.schema):
            key = (t.s, t.p, t.o)
            if key in self.facts:
                continue
            self.facts.add(key)
            s, p, o = key
            self._by_p[p].append((s, o))
            self._by_ps[(p, s)].append(o)
            self._by_po[(p, o)].append(s)
            self._by_s[s].append((p, o))
            self._by_o[o].append((s, p))
            added += 1
        return added

    def __len__(self) -> int:
        return len(self.facts)

    # ------------------------------------------------------------------
    def _candidates(self, atom: Tuple[Term, Term, Term], binding: Dict[Variable, Term]):
        """Matching triples of one atom under a partial binding."""
        s, p, o = (binding.get(t, t) if isinstance(t, Variable) else t for t in atom)
        s_var, p_var, o_var = (isinstance(t, Variable) for t in (s, p, o))
        if not p_var:
            if not s_var and not o_var:
                return ([(s, p, o)] if (s, p, o) in self.facts else [])
            if not s_var:
                return [(s, p, x) for x in self._by_ps.get((p, s), ())]
            if not o_var:
                return [(x, p, o) for x in self._by_po.get((p, o), ())]
            return [(x, p, y) for x, y in self._by_p.get(p, ())]
        if not s_var:
            rows = [(s, x, y) for x, y in self._by_s.get(s, ())]
        elif not o_var:
            rows = [(x, y, o) for x, y in self._by_o.get(o, ())]
        else:
            rows = list(self.facts)
        return rows

    def _size(self, atom, binding) -> int:
        """How many triples :meth:`_candidates` would return."""
        s, p, o = (binding.get(t, t) if isinstance(t, Variable) else t for t in atom)
        s_var, p_var, o_var = (isinstance(t, Variable) for t in (s, p, o))
        if not p_var:
            if not s_var and not o_var:
                return 1
            if not s_var:
                return len(self._by_ps.get((p, s), ()))
            if not o_var:
                return len(self._by_po.get((p, o), ()))
            return len(self._by_p.get(p, ()))
        if not s_var:
            return len(self._by_s.get(s, ()))
        if not o_var:
            return len(self._by_o.get(o, ()))
        return len(self.facts)

    def answers(self, query) -> FrozenSet[Row]:
        """The distinct head tuples of a BGP query over the saturated facts."""
        atoms = [(t.s, t.p, t.o) for t in query.body]
        head = tuple(query.head)
        out: Set[Row] = set()

        def extend(remaining: List[int], binding: Dict[Variable, Term]) -> None:
            if not remaining:
                out.add(tuple(binding.get(t, t) if isinstance(t, Variable) else t for t in head))
                return
            best = min(remaining, key=lambda i: self._size(atoms[i], binding))
            rest = [i for i in remaining if i != best]
            for triple in self._candidates(atoms[best], binding):
                extended: Optional[Dict[Variable, Term]] = dict(binding)
                for term, value in zip(atoms[best], triple):
                    if isinstance(term, Variable):
                        bound = extended.get(term)
                        if bound is None:
                            extended[term] = value
                        elif bound != value:
                            extended = None
                            break
                if extended is not None:
                    extend(rest, extended)

        extend(list(range(len(atoms))), {})
        return frozenset(out)


def check(expected: FrozenSet[Row], actual, label: str) -> None:
    """Raise :class:`WrongAnswer` unless the answer sets are equal."""
    actual = frozenset(actual)
    if actual != expected:
        missing = len(expected - actual)
        extra = len(actual - expected)
        raise WrongAnswer(
            f"{label}: {len(actual)} answers, expected {len(expected)} "
            f"({missing} missing, {extra} unexpected)"
        )
