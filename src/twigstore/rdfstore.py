"""Conjunctive triple-pattern queries over overlay-indexed RDF triples.

Each triple is stored under three keys ("s:", "p:", "o:"), which is the
simplest scheme guaranteeing every pattern with at least one constant can
seed a lookup.  Conjunctive evaluation seeds each pattern from its most
selective constant (by observed posting count, ties s before p before o),
filters by the remaining constants, then hash-joins the per-pattern
candidate sets on shared variables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedInput, UnseedablePattern
from .netsim import PeerId
from .overlay import DhtService, PutFn

S, P, O = 0, 1, 2
_KEY_PREFIX = ("s:", "p:", "o:")


@dataclass(frozen=True, slots=True)
class Triple:
    subject: str
    predicate: str
    object: str

    def text(self) -> str:
        return f"{self.subject}\t{self.predicate}\t{self.object}"

    def check(self) -> None:
        """Refuse a triple that ``text`` cannot carry: an empty field, or a
        tab or newline inside one."""
        for term in (self.subject, self.predicate, self.object):
            if not term or "\t" in term or "\n" in term:
                raise MalformedInput(f"bad triple field {term!r} in {self!r}")

    @classmethod
    def from_text(cls, line: str) -> "Triple":
        parts = line.split("\t")
        if len(parts) != 3:
            raise MalformedInput(f"bad triple line: {line!r}")
        triple = cls(*parts)
        triple.check()
        return triple

    def position(self, i: int) -> str:
        return (self.subject, self.predicate, self.object)[i]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """One conjunct; positions starting with '?' are variables."""

    subject: str
    predicate: str
    object: str

    def position(self, i: int) -> str:
        return (self.subject, self.predicate, self.object)[i]

    def variables(self) -> list[str]:
        return [t for t in (self.subject, self.predicate, self.object)
                if t.startswith("?")]

    def constants(self) -> list[tuple[int, str]]:
        return [
            (i, self.position(i))
            for i in (S, P, O)
            if not self.position(i).startswith("?")
        ]


@dataclass
class ConjunctiveQuery:
    patterns: list[TriplePattern]
    projection: list[str]

    def validate(self) -> None:
        """Refuse a projected variable no pattern binds, and a pattern with
        no constant: no key could seed its lookup, so neither backend
        answers it."""
        for pattern in self.patterns:
            if not pattern.constants():
                raise UnseedablePattern(f"pattern {pattern} has no constant position")
        known = {v for p in self.patterns for v in p.variables()}
        for var in self.projection:
            if var not in known:
                raise MalformedInput(f"projected variable {var} occurs in no pattern")


def index_triples(
    triples: list[Triple],
    via: PeerId,
    dht: DhtService,
    put: PutFn | None = None,
) -> int:
    """Store each triple under its three position keys, all in one batch;
    returns triple count.

    ``put`` defaults to the routed ``dht.put``; snapshot restore passes
    ``dht.put_direct``.
    """
    items = []
    for triple in triples:
        raw = triple.text().encode("utf-8")
        items += ((_KEY_PREFIX[i] + triple.position(i), raw) for i in (S, P, O))
    (put or dht.put)(dht.hash, via, items)
    return len(triples)


def _pattern_match(pattern: TriplePattern, triple: Triple) -> dict[str, str] | None:
    bound: dict[str, str] = {}
    for i in (S, P, O):
        term = pattern.position(i)
        value = triple.position(i)
        if term.startswith("?"):
            if bound.get(term, value) != value:
                return None
            bound[term] = value
        elif term != value:
            return None
    return bound


def eval_conjunctive(
    query: ConjunctiveQuery, via: PeerId, dht: DhtService
) -> list[tuple[str, ...]]:
    """Projected variable bindings, sorted; equals the nested-loop oracle."""
    query.validate()
    per_pattern: list[list[dict[str, str]]] = []
    for pattern in query.patterns:
        fetched = [
            (i, dht.get(via, _KEY_PREFIX[i] + text))
            for i, text in pattern.constants()
        ]
        # most selective constant seeds; ties already favor s, then p, then o
        fetched.sort(key=lambda item: (len(item[1]), item[0]))
        seed = fetched[0][1]
        rows = []
        for raw in seed:
            bound = _pattern_match(pattern, Triple.from_text(raw.decode("utf-8")))
            if bound is not None:
                rows.append(bound)
        per_pattern.append(rows)

    combined: list[dict[str, str]] = [{}]
    for rows in per_pattern:
        next_combined = []
        for acc in combined:
            for row in rows:
                if all(acc.get(var, val) == val for var, val in row.items()):
                    merged = dict(acc)
                    merged.update(row)
                    next_combined.append(merged)
        combined = next_combined
        if not combined:
            break

    out = {tuple(b[var] for var in query.projection) for b in combined}
    return sorted(out)


def eval_nested_loop(
    query: ConjunctiveQuery, triples: list[Triple]
) -> list[tuple[str, ...]]:
    """Independent oracle: join by exhaustive enumeration over all triples."""
    query.validate()
    combined: list[dict[str, str]] = [{}]
    for pattern in query.patterns:
        next_combined = []
        for acc in combined:
            for triple in triples:
                bound = _pattern_match(pattern, triple)
                if bound is None:
                    continue
                if all(acc.get(var, val) == val for var, val in bound.items()):
                    merged = dict(acc)
                    merged.update(bound)
                    next_combined.append(merged)
        combined = next_combined
    out = {tuple(b[var] for var in query.projection) for b in combined}
    return sorted(out)


def parse_query_text(text: str) -> ConjunctiveQuery:
    """Query file format: a "SELECT ?x ?y" header, then one pattern per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].upper().startswith("SELECT"):
        raise MalformedInput("query must start with a SELECT header")
    projection = lines[0].split()[1:]
    if not projection or not all(v.startswith("?") for v in projection):
        raise MalformedInput("SELECT header must list ?variables")
    patterns = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise MalformedInput(f"bad pattern line: {line!r}")
        patterns.append(TriplePattern(*parts))
    if not patterns:
        raise MalformedInput("query has no patterns")
    query = ConjunctiveQuery(patterns, projection)
    query.validate()
    return query


def parse_triples_text(text: str) -> list[Triple]:
    """Triple file format: one tab-separated triple per line."""
    triples = []
    for line in text.splitlines():
        if line.strip():
            triples.append(Triple.from_text(line))
    return triples
