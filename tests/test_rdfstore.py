import random

import pytest

from twigstore.errors import UnseedablePattern
from twigstore.rdfstore import (
    ConjunctiveQuery,
    Triple,
    TriplePattern,
    eval_conjunctive,
    eval_nested_loop,
    index_triples,
    parse_query_text,
    parse_triples_text,
)

from helpers import make_cluster

SUBJECTS = ["a", "b", "c", "d"]
PREDICATES = ["type", "author", "cites"]
OBJECTS = ["Doc", "Page", "a", "b", "c"]


def cluster():
    net, dht, index = make_cluster(4, with_range=False)
    return net, dht


def test_three_puts_per_triple():
    net, dht = cluster()
    before = count_stored(dht)
    n = index_triples([Triple("a", "type", "Doc"), Triple("a", "author", "b")],
                      1, dht)
    assert n == 2
    assert count_stored(dht) - before == 6


def count_stored(dht):
    return sum(
        len(values)
        for st in dht.hash.members.values()
        for values in st.store.values()
    )


def test_duplicate_triple_kept_twice():
    net, dht = cluster()
    t = Triple("a", "type", "Doc")
    index_triples([t, t], 1, dht)
    assert dht.get(1, "p:type") == [t.text().encode()] * 2


def test_predicate_key_returns_matching_triples():
    net, dht = cluster()
    triples = [
        Triple("a", "author", "b"),
        Triple("c", "author", "d"),
        Triple("a", "type", "Doc"),
    ]
    index_triples(triples, 2, dht)
    got = sorted(dht.get(3, "p:author"))
    assert got == sorted(t.text().encode() for t in triples[:2])


def test_conjunctive_example():
    net, dht = cluster()
    triples = [Triple("a", "type", "Doc"), Triple("a", "author", "b")]
    index_triples(triples, 1, dht)
    q = ConjunctiveQuery(
        [TriplePattern("?x", "type", "Doc"), TriplePattern("?x", "author", "?y")],
        ["?x", "?y"],
    )
    assert eval_conjunctive(q, 1, dht) == [("a", "b")]


def test_unsatisfiable_constant():
    net, dht = cluster()
    index_triples([Triple("a", "type", "Doc")], 1, dht)
    q = ConjunctiveQuery([TriplePattern("?x", "type", "Nope")], ["?x"])
    assert eval_conjunctive(q, 1, dht) == []


def test_single_pattern_projection():
    net, dht = cluster()
    triples = [Triple("a", "type", "Doc"), Triple("b", "type", "Doc"),
               Triple("c", "type", "Page")]
    index_triples(triples, 1, dht)
    q = ConjunctiveQuery([TriplePattern("?x", "type", "Doc")], ["?x"])
    assert eval_conjunctive(q, 1, dht) == [("a",), ("b",)]


def test_all_variable_pattern_raises():
    net, dht = cluster()
    index_triples([Triple("a", "type", "Doc")], 1, dht)
    q = ConjunctiveQuery([TriplePattern("?x", "?p", "?y")], ["?x"])
    with pytest.raises(UnseedablePattern):
        eval_conjunctive(q, 1, dht)


def test_repeated_variable_within_pattern():
    net, dht = cluster()
    triples = [Triple("a", "cites", "a"), Triple("a", "cites", "b")]
    index_triples(triples, 1, dht)
    q = ConjunctiveQuery([TriplePattern("?x", "cites", "?x")], ["?x"])
    assert eval_conjunctive(q, 1, dht) == [("a",)]


def random_query(rng, triples):
    patterns = []
    var_names = ["?x", "?y", "?z"]
    for _ in range(rng.randint(1, 3)):
        base = rng.choice(triples)
        term = []
        constants = 0
        for i, value in enumerate((base.subject, base.predicate, base.object)):
            if rng.random() < 0.5:
                term.append(value)
                constants += 1
            else:
                term.append(rng.choice(var_names))
        if constants == 0:
            term[1] = base.predicate
        patterns.append(TriplePattern(*term))
    variables = sorted({v for p in patterns for v in p.variables()})
    if not variables:
        return None
    projection = variables[: rng.randint(1, len(variables))]
    return ConjunctiveQuery(patterns, projection)


@pytest.mark.parametrize("seed", range(4))
def test_oracle_equivalence_randomized(seed):
    rng = random.Random(500 + seed)
    triples = list(
        {
            Triple(
                rng.choice(SUBJECTS), rng.choice(PREDICATES), rng.choice(OBJECTS)
            )
            for _ in range(rng.randint(5, 60))
        }
    )
    net, dht = cluster()
    index_triples(triples, 1, dht)
    for _ in range(30):
        q = random_query(rng, triples)
        if q is None:
            continue
        assert eval_conjunctive(q, 1, dht) == eval_nested_loop(q, triples)


def test_pattern_order_permutation_invariance():
    rng = random.Random(9)
    triples = [
        Triple(rng.choice(SUBJECTS), rng.choice(PREDICATES), rng.choice(OBJECTS))
        for _ in range(40)
    ]
    net, dht = cluster()
    index_triples(triples, 1, dht)
    q = ConjunctiveQuery(
        [
            TriplePattern("?x", "type", "Doc"),
            TriplePattern("?x", "author", "?y"),
            TriplePattern("?y", "cites", "?z"),
        ],
        ["?x", "?z"],
    )
    baseline = eval_conjunctive(q, 1, dht)
    for _ in range(5):
        shuffled = list(q.patterns)
        rng.shuffle(shuffled)
        assert eval_conjunctive(
            ConjunctiveQuery(shuffled, q.projection), 1, dht
        ) == baseline


def test_parse_triples_and_query_text():
    triples = parse_triples_text("a\ttype\tDoc\nb\tauthor\tc\n")
    assert triples == [Triple("a", "type", "Doc"), Triple("b", "author", "c")]
    q = parse_query_text("SELECT ?x\n?x type Doc\n")
    assert q.projection == ["?x"]
    with pytest.raises(ValueError):
        parse_query_text("?x type Doc\n")
    with pytest.raises(ValueError):
        parse_query_text("SELECT ?x\n?x type\n")
    with pytest.raises(ValueError):
        parse_query_text("SELECT ?q\n?x type Doc\n")
