"""Deterministic DBLP-shaped corpus, query stream and expected answers.

Everything here is derived from a seed with ``random.Random`` and uses
the standard library only.  The generator writes canonical XML itself
(no whitespace, attributes in order, no mixed content), so it also knows
every element's interval label and serialized payload.  That lets the
benchmark derive the expected answer of every query, get and RDF query
from its own records, without asking the store.

Word, author, venue and citation frequencies are Zipf-like, so some
posting lists are hot.  Query constants are drawn Zipf-like too, so a
share of query texts repeats; ``repeat_share`` measures it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
# four-letter pseudo-words in a fixed order, so a rank means the same word
# for every seed; the seed decides which ranks each article draws
VOCAB = [
    "".join(w)
    for w in itertools.product(_CONSONANTS, _VOWELS, _CONSONANTS, _VOWELS)
][::4][:1500]
FIRST_NAMES = [w.capitalize() for w in VOCAB[1500 - 60 :]]
SURNAMES = [w.capitalize() + "son" for w in VOCAB[1500 - 160 : 1500 - 60]]
VENUES = [
    "vldb", "sigmod", "icde", "edbt", "pods", "icdt", "cikm", "www", "kdd",
    "sigir", "dexa", "dasfaa", "ssdbm", "adbis", "webdb", "xsym", "dbpl",
    "tods", "tkde", "vldbj", "sigrec", "dke", "infsys", "is",
]
YEARS = range(1970, 2010)
# query words come from a mid-frequency band, so answers stay small while
# the candidate posting lists (t:title, t:par) stay hot
QUERY_WORD_BAND = (40, 640)


def zipf_weights(n: int, s: float = 1.0) -> list[float]:
    """Cumulative Zipf weights for ranks 1..n, for ``Random.choices``."""
    return list(itertools.accumulate(1.0 / (rank ** s) for rank in range(1, n + 1)))


_VOCAB_W = zipf_weights(len(VOCAB))
_VENUE_W = zipf_weights(len(VENUES))
_YEAR_W = zipf_weights(len(YEARS), 0.5)
_BAND = VOCAB[QUERY_WORD_BAND[0] : QUERY_WORD_BAND[1]]
_BAND_W = zipf_weights(len(_BAND))


# -- records ------------------------------------------------------------------


@dataclass
class Elem:
    """One generated element; ``start`` and ``xml`` are set by ``label``."""

    tag: str
    text: str = ""
    kids: list["Elem"] = field(default_factory=list)
    attrs: tuple[tuple[str, str], ...] = ()
    start: int = 0
    xml: str = ""

    def kid(self, tag: str) -> "Elem":
        return next(k for k in self.kids if k.tag == tag)

    def all(self, tag: str) -> list["Elem"]:
        return [k for k in self.kids if k.tag == tag]

    def words(self) -> set[str]:
        return set(self.text.lower().split())


@dataclass
class Article:
    key: str
    elem: Elem
    year: int
    venue: str
    author_ids: list[str]
    cites: str


@dataclass
class Doc:
    doc_id: int
    xml: str
    articles: list[Article]
    root: Elem


@dataclass
class Corpus:
    docs: list[Doc]
    triples: list[tuple[str, str, str]]

    @property
    def articles(self) -> list[Article]:
        return [a for d in self.docs for a in d.articles]

    @property
    def input_bytes(self) -> int:
        return sum(len(d.xml.encode("utf-8")) for d in self.docs)

    def resources(self) -> dict[str, str]:
        """Every resource id under granularity ``article,sec`` -> payload."""
        out = {}
        for d in self.docs:
            out[rid(d.doc_id, d.root)] = d.root.xml
            for a in d.articles:
                out[rid(d.doc_id, a.elem)] = a.elem.xml
                for sec in a.elem.all("sec"):
                    out[rid(d.doc_id, sec)] = sec.xml
        return out


def rid(doc_id: int, elem: Elem) -> str:
    return f"{doc_id}#{elem.start}"


def label(elem: Elem, counter: list[int]) -> None:
    """Assign the interval start ``parse_document`` will give, and the payload.

    An element takes one position when it opens and one when it closes;
    each attribute and each text node takes one.
    """
    counter[0] += 1
    elem.start = counter[0]
    counter[0] += len(elem.attrs)
    if elem.text:
        counter[0] += 1
    for kid in elem.kids:
        label(kid, counter)
    counter[0] += 1
    attrs = "".join(f' {k}="{v}"' for k, v in elem.attrs)
    body = elem.text + "".join(k.xml for k in elem.kids)
    elem.xml = f"<{elem.tag}{attrs}>{body}</{elem.tag}>"


# -- generation -----------------------------------------------------------------


def _words(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choices(VOCAB, cum_weights=_VOCAB_W, k=rng.randint(lo, hi)))


def make_articles(seed: int, count: int) -> list[Article]:
    rng = random.Random(f"articles:{seed}")
    authors = [(f, s) for f in FIRST_NAMES for s in SURNAMES]
    rng.shuffle(authors)
    authors = authors[:400]
    author_w = zipf_weights(len(authors))
    cite_w = zipf_weights(count)
    out = []
    for i in range(count):
        key = f"k{seed}x{i}"
        year = rng.choices(YEARS, cum_weights=_YEAR_W)[0]
        venue = rng.choices(VENUES, cum_weights=_VENUE_W)[0]
        names = rng.choices(authors, cum_weights=author_w, k=rng.randint(1, 3))
        kids = [Elem("title", _words(rng, 4, 8))]
        kids += [Elem("author", f"{f} {s}") for f, s in names]
        kids += [Elem("year", str(year)), Elem("venue", venue)]
        for _ in range(rng.randint(1, 3)):
            sec = Elem("sec", kids=[Elem("title", _words(rng, 2, 5))])
            sec.kids += [Elem("par", _words(rng, 8, 18)) for _ in range(rng.randint(1, 3))]
            kids.append(sec)
        elem = Elem("article", kids=kids, attrs=(("key", key),))
        cited = rng.choices(range(count), cum_weights=cite_w)[0]
        out.append(
            Article(key, elem, year, venue, [f"{f}_{s}" for f, s in names],
                    f"k{seed}x{cited}")
        )
    return out


def make_corpus(seed: int, articles: int, per_doc: int) -> Corpus:
    """``articles`` articles packed ``per_doc`` to a ``<dblp>`` document."""
    arts = make_articles(seed, articles)
    docs = []
    for n, first in enumerate(range(0, len(arts), per_doc), 1):
        group = arts[first : first + per_doc]
        root = Elem("dblp", kids=[a.elem for a in group])
        label(root, [0])
        docs.append(Doc(n, root.xml, group, root))
    triples = []
    for a in arts:
        triples.append((a.key, "venue", a.venue))
        triples.append((a.key, "author", a.author_ids[0]))
        triples.append((a.key, "cites", a.cites))
    return Corpus(docs, triples)


# -- query stream -------------------------------------------------------------------

QUERY_FORMS = ("range", "word", "branch", "deep", "root")


@dataclass(frozen=True)
class Op:
    kind: str  # "query", "get" or "rdf"
    form: str
    text: str = ""  # pattern text or RDF query key
    args: tuple = ()


def _year_range(rng: random.Random) -> tuple[int, int]:
    lo = rng.choices(YEARS, cum_weights=_YEAR_W)[0]
    return lo, min(lo + rng.randint(0, 3), YEARS[-1])


def make_query(rng: random.Random, arts: list[Article], form: str) -> Op:
    if form == "range":
        lo, hi = _year_range(rng)
        return Op("query", form, f"//article[/year in {lo}..{hi}]/title!", (lo, hi))
    if form == "word":
        w = rng.choices(_BAND, cum_weights=_BAND_W)[0]
        return Op("query", form, f'//article[/title="{w}"]/year!', (w,))
    if form == "branch":
        author = rng.choice(arts[:64]).author_ids[0]
        surname = author.split("_")[1].lower()
        lo, hi = _year_range(rng)
        lo, hi = lo - 5, hi + 5
        return Op(
            "query", form,
            f'//article[/author="{surname}"][/year in {lo}..{hi}]/title!',
            (surname, lo, hi),
        )
    if form == "deep":
        w = rng.choices(_BAND, cum_weights=_BAND_W)[0]
        return Op("query", form, f'//article/sec/par="{w}"!', (w,))
    venue = rng.choices(VENUES[4:], cum_weights=_VENUE_W[: len(VENUES) - 4])[0]
    return Op("query", form, f'/dblp/article[/venue="{venue}"]/title!', (venue,))


def make_rdf(rng: random.Random, arts: list[Article], art_w: list[float],
             cited_by: bool) -> Op:
    if cited_by:
        cited = arts[rng.choices(range(len(arts)), cum_weights=art_w)[0]]
        return Op("rdf", "cited-by", cited.key,
                  ((("?a", "cites", cited.key), ("?a", "venue", "?v")), ("?a", "?v")))
    author = rng.choice(arts[:64]).author_ids[0]
    return Op("rdf", "by-author", author,
              ((("?a", "author", author), ("?a", "cites", "?b")), ("?a", "?b")))


# operation kinds repeat in a fixed cycle (q query, g get, r RDF query) and
# query forms in a fixed order, so every run has the same mix; only the
# constants are drawn at random.  A get slot names GET_BURST resource ids,
# fetched back to back and timed together, because one get takes only a
# few microseconds.
QUERY_MIX = "qgqqrqqgqq"
GET_BURST = 32


def op_stream(seed: int, corpus: Corpus, cycle: str = QUERY_MIX):
    """Endless deterministic stream of queries, gets and RDF queries."""
    rng = random.Random(f"ops:{seed}")
    arts = corpus.articles
    art_w = zipf_weights(len(arts))
    ids = list(corpus.resources())
    id_w = zipf_weights(len(ids), 0.8)
    order = ids[:]
    rng.shuffle(order)
    forms = itertools.cycle(QUERY_FORMS)
    rdf_forms = itertools.cycle((True, False))
    for kind in itertools.cycle(cycle):
        if kind == "q":
            yield make_query(rng, arts, next(forms))
        elif kind == "g":
            yield Op("get", "get", "", tuple(rng.choices(order, cum_weights=id_w, k=GET_BURST)))
        else:
            yield make_rdf(rng, arts, art_w, next(rdf_forms))


def repeat_share(texts: list[str]) -> float:
    """Share of query texts that already occurred earlier in the stream."""
    if not texts:
        return 0.0
    return 1.0 - len(set(texts)) / len(texts)


# -- expected answers from the records -------------------------------------------------


def expected_query(corpus: Corpus, op: Op) -> list[tuple[str, str]]:
    """(resource id, payload) pairs a query must return, in id order."""
    out = []
    for d in corpus.docs:
        for a in d.articles:
            e = a.elem
            if op.form == "range":
                lo, hi = op.args
                hits = [e.kid("title")] if lo <= a.year <= hi else []
            elif op.form == "word":
                hits = [e.kid("year")] if op.args[0] in e.kid("title").words() else []
            elif op.form == "branch":
                surname, lo, hi = op.args
                named = any(surname in x.words() for x in e.all("author"))
                hits = [e.kid("title")] if named and lo <= a.year <= hi else []
            elif op.form == "deep":
                hits = [p for s in e.all("sec") for p in s.all("par")
                        if op.args[0] in p.words()]
            elif op.form == "root":
                hits = [e.kid("title")] if a.venue == op.args[0] else []
            else:
                raise ValueError(op.form)
            out.extend((rid(d.doc_id, h), h.xml) for h in hits)
    return out


def expected_rdf(corpus: Corpus, op: Op) -> list[tuple[str, ...]]:
    """Projected rows of a two-pattern RDF query, joined on ?a."""
    (first, second), projection = op.args
    by_subject: dict[str, list[tuple[str, str, str]]] = {}
    for t in corpus.triples:
        by_subject.setdefault(t[0], []).append(t)
    rows = set()
    for t in corpus.triples:
        if t[1] != first[1] or t[2] != first[2]:
            continue
        for u in by_subject[t[0]]:
            if u[1] == second[1]:
                bound = {"?a": t[0], second[2]: u[2]}
                rows.add(tuple(bound[v] for v in projection))
    return sorted(rows)
