"""A word-predicated node's Intersect, in every shape placement gives it.

``PlanBuilder.leaf_for`` answers a named node with a word predicate by an
Intersect of the tag's and the word's posting lists.  ``place`` puts it at
the larger list's owner, at the one owner of both lists, or at the query
peer when lists on two peers tie, so an input is local (an
``IndexLookup`` at the Intersect's site) or shipped.
Each shape must answer as the centralized backend does; a local list is
read as raw records, and only the postings it keeps are decoded.
"""

import pytest

from twigstore import indexing
from twigstore.pattern import parse_pattern
from twigstore.store import Store, StoreConfig

QUERY_PEER = 1


def _store(backend: str, peers: int) -> Store:
    return Store(StoreConfig(backend=backend, peer_count=peers,
                             resource_granularity=set()))


def _pick(store: Store, fits) -> tuple[str, str]:
    """The first tag and word whose owners ``fits(tag owner, word owner)``
    accepts; on one peer every pair fits."""
    owner = store.dht.hash.owner_of
    tags = [(f"k{i}", owner(f"t:k{i}")) for i in range(64)]
    words = [(f"w{i}", owner(f"w:w{i}")) for i in range(64)]
    if len(store.members) == 1:
        return tags[0][0], words[0][0]
    return next((tag, word) for tag, t_at in tags for word, w_at in words
                if fits(t_at, w_at))


def _parts(tag: str, word: str, tag_only: int, both: int, word_only: int) -> list[str]:
    return ([f"<{tag}>x</{tag}>"] * tag_only + [f"<{tag}>{word} y</{tag}>"] * both
            + [f"<o>{word}</o>"] * word_only)


def _docs(tag: str, word: str, tag_only: int, both: int, word_only: int) -> list[str]:
    """Three documents holding, between them, ``tag_only`` tag elements
    without the word, ``both`` with it and ``word_only`` others with it."""
    parts = _parts(tag, word, tag_only, both, word_only)
    return ["<r>" + "".join(parts[i::3]) + "</r>" for i in range(3)]


def _rooted_docs(tag: str, word: str) -> list[str]:
    """Two documents rooted at ``tag``, one holding the word, over nested
    tag elements that hold it too, and one rooted elsewhere."""
    parts = "".join(_parts(tag, word, 12, 3, 2))
    return [f"<{tag}>{word} {parts}</{tag}>", f"<{tag}>x {parts}</{tag}>",
            f"<r>{parts}</r>"]


# shape: (which owners fit, corpus, query, whether each input is local)
SHAPES = {
    "tag leaf local": (
        lambda t, w: t not in (QUERY_PEER, w),
        lambda tag, word: _docs(tag, word, 30, 4, 3),
        '//{tag}="{word}"!', (True, False)),
    "word leaf local": (  # a rare tag with a common word
        lambda t, w: w not in (QUERY_PEER, t),
        lambda tag, word: _docs(tag, word, 2, 3, 30),
        '//{tag}="{word}"!', (False, True)),
    "neither leaf local": (  # the lists tie apart, so both ship to the query peer
        lambda t, w: QUERY_PEER not in (t, w) and t != w,
        lambda tag, word: _docs(tag, word, 3, 3, 3),
        '//{tag}="{word}"!', (False, False)),
    "tied lists on one peer": (  # a tie on one peer stays there, shipping neither
        lambda t, w: t == w != QUERY_PEER,
        lambda tag, word: _docs(tag, word, 3, 3, 3),
        '//{tag}="{word}"!', (True, True)),
    "one peer owns both keys": (
        lambda t, w: t == w != QUERY_PEER,
        lambda tag, word: _docs(tag, word, 30, 4, 3),
        '//{tag}="{word}"!', (True, True)),
    "root-anchored": (
        lambda t, w: t not in (QUERY_PEER, w),
        _rooted_docs,
        '/{tag}="{word}"!', (True, False)),
}


def _intersect(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        if node.op == "Intersect":
            return node
        stack += node.kids
    raise AssertionError("plan has no Intersect")


@pytest.mark.parametrize("peers", [1, 4, 8])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_every_intersect_shape_answers_as_the_centralized_backend(shape, peers):
    fits, corpus, query, local = SHAPES[shape]
    p2p, central = _store("p2p", peers), _store("centralized", peers)
    tag, word = _pick(p2p, fits)
    for text in corpus(tag, word):
        assert p2p.store_resource(text) == central.store_resource(text)
    query = query.format(tag=tag, word=word)

    node = _intersect(p2p.build_plan(parse_pattern(query)))
    if peers > 1:  # on one peer every input is local
        assert tuple(k.op == "IndexLookup" and k.site == node.site
                     for k in node.kids) == local
    if shape == "root-anchored":  # the stored side keeps roots only
        assert node.kids[0].op == "IndexLookup" and node.kids[0].root_only

    want = [(r.resource_id, r.payload) for r in central.query(query).resources]
    got = [(r.resource_id, r.payload) for r in p2p.query(query).resources]
    assert got == want and want


def test_a_local_tag_list_decodes_only_the_postings_it_keeps(monkeypatch):
    store = _store("p2p", 4)
    fits, corpus, query, _ = SHAPES["tag leaf local"]
    tag, word = _pick(store, fits)
    for text in corpus(tag, word):  # 34 tag postings, 7 word postings, 4 kept
        store.store_resource(text)
    query = query.format(tag=tag, word=word)
    node = _intersect(store.build_plan(parse_pattern(query)))
    assert node.site == store.dht.hash.owner_of("t:" + tag) != QUERY_PEER

    decoded: list[int] = []
    real = indexing.decode_postings

    def counting(raw):
        out = real(raw)
        decoded.append(len(out))
        return out

    monkeypatch.setattr(indexing, "decode_postings", counting)
    assert len(store.query(query).resources) == 4
    # the word owner decodes its whole list, which ships to the tag owner;
    # the tag owner decodes the 4 postings it keeps, not all 34
    assert sorted(decoded) == [4, 7]
