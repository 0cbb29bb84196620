"""Seeded inputs: triples, query text, query order, writes, schema edits.

The program under test only ever receives the resulting triples and
SPARQL text.  The generators of :mod:`repro.datasets` are used as plain
input builders (their run time is never measured), and each query is
serialized back to text so that parsing is part of every measured
answer.

The datasets themselves are the generators' output for
:data:`DATA_SEED`, the same on every run, as the paper's LUBM and DBLP
datasets are fixed.  Regenerating them per run seed changed answer sizes
by up to 15% and gcov's cover search by up to 3% of its covers, which is
a different workload per seed, not noise around one.  The run seed
drives everything else: query order, pass order, the order of written
universities, and the schema edits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import groupby, islice
from typing import Iterator, List, Sequence, Tuple

from repro.datasets import (
    DBLPGenerator,
    DBLPProfile,
    LUBMGenerator,
    dblp_schema,
    dblp_workload,
    lubm_schema,
    lubm_workload,
    motivating_q1,
    motivating_q2,
    ub,
)
from repro.query import to_sparql
from repro.query.bgp import BGPQuery
from repro.rdf.schema import RDFSchema
from repro.rdf.terms import Triple
from repro.rdf.vocabulary import RDFS_SUBCLASS, RDFS_SUBPROPERTY

#: Generator seed of every dataset (see the module docstring).
DATA_SEED = 0
#: The 30 LUBM queries (the two motivating examples plus Q01-Q28).
LUBM_QUERIES = ("q1", "q2") + tuple(f"Q{i:02d}" for i in range(1, 29))
#: The 10 DBLP queries.
DBLP_QUERIES = tuple(f"Q{i:02d}" for i in range(1, 11))


@dataclass(frozen=True)
class Query:
    """One query as the program receives it (``text``), with the query
    object the generator built it from (``source``), which the oracle
    answers so that no answer is checked through the program's parser."""

    dataset: str
    name: str
    text: str
    source: BGPQuery = field(compare=False, repr=False)

    @property
    def label(self) -> str:
        return f"{self.dataset}/{self.name}"


def queries(dataset: str, names: Sequence[str]) -> List[Query]:
    """The named workload queries of one dataset, as SPARQL text."""
    if dataset == "lubm":
        entries = [motivating_q1(), motivating_q2()] + lubm_workload()
    elif dataset == "dblp":
        entries = dblp_workload()
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    by_name = {entry.name: entry.query for entry in entries}
    return [Query(dataset, name, to_sparql(by_name[name]), by_name[name]) for name in names]


def schema(dataset: str) -> RDFSchema:
    """A fresh copy of a dataset's RDFS schema."""
    return lubm_schema() if dataset == "lubm" else dblp_schema()


def rng(seed: int, purpose: str) -> random.Random:
    """An independent random stream per (seed, purpose)."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def shuffled(items: Sequence, seed: int, purpose: str) -> list:
    """A seeded permutation of ``items``."""
    order = list(items)
    rng(seed, purpose).shuffle(order)
    return order


def dblp_triples(publications: int) -> List[Triple]:
    """DBLP-style facts of ``publications`` publications."""
    profile = DBLPProfile(publications=publications)
    return list(DBLPGenerator(profile=profile, seed=DATA_SEED).triples())


def lubm_triples(universities: int) -> List[Triple]:
    """LUBM-style facts of ``universities`` universities."""
    return list(LUBMGenerator(universities=universities, seed=DATA_SEED).triples())


def university_batches(universities: int) -> Iterator[List[Triple]]:
    """The facts of an ``universities``-university LUBM world, one list
    per university, generated lazily in order.

    The world size matters: people take degrees from universities drawn
    across the whole world.  Every fact the generator emits for
    university ``k`` has a subject under ``http://www.univ{k}.edu``,
    which is how the stream is split.
    """
    def university(triple: Triple) -> str:
        return str(triple.s).split("/")[2]

    stream = LUBMGenerator(universities=universities, seed=DATA_SEED).triples()
    for _host, group in groupby(stream, key=university):
        yield list(group)


def block_shuffled(batches: Iterator[list], seed: int, purpose: str, block: int = 8) -> Iterator[list]:
    """``batches`` in a seeded order: each run of ``block`` consecutive
    batches is permuted, so at most ``block`` are held at once."""
    index = 0
    while True:
        chunk = list(islice(batches, block))
        if not chunk:
            return
        yield from shuffled(chunk, seed, f"{purpose}:{index}")
        index += 1


def schema_edit(seed: int, index: int, target: RDFSchema) -> Tuple[str, Triple]:
    """The ``index``-th seeded schema edit: a fresh subclass of an
    existing class, or a fresh subproperty of an existing property.

    A fresh subterm cannot close a cycle, and since no fact uses it the
    saturation of the facts is unchanged; the reformulations and the
    LiteMat intervals of every query touching its parent are not.
    """
    stream = rng(seed, f"schema-edit:{index}")
    if stream.random() < 0.5:
        parents = sorted(target.classes, key=str)
        parent = stream.choice(parents)
        return "subclass", Triple(ub(f"PerfbenchClass{index}"), RDFS_SUBCLASS, parent)
    parents = sorted(target.properties, key=str)
    parent = stream.choice(parents)
    return "subproperty", Triple(ub(f"perfbenchProperty{index}"), RDFS_SUBPROPERTY, parent)


def apply_schema_edit(target: RDFSchema, kind: str, edge: Triple) -> None:
    """Apply one :func:`schema_edit` through the schema's public API."""
    if kind == "subclass":
        target.add_subclass(edge.s, edge.o)
    else:
        target.add_subproperty(edge.s, edge.o)


def to_ntriples(schema_: RDFSchema, facts: Sequence[Triple], path: str) -> int:
    """Write a dataset (constraints, then facts) as N-Triples."""
    from repro.rdf.ntriples import write_ntriples

    with open(path, "w", encoding="utf-8") as sink:
        count = write_ntriples(schema_.to_triples(), sink)
        count += write_ntriples(facts, sink)
    return count
