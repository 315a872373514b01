import gc
import random
import xml.etree.ElementTree as ET
from array import array

import pytest
from hypothesis import example, given, strategies as st

from twigstore.document import (
    ATTRIBUTE,
    ELEMENT,
    TEXT,
    StructuralId,
    extract_resources,
    is_ancestor,
    is_parent,
    parse_document,
    recompose,
    serialize_document,
    serialize_node,
    serialize_subtree,
    value_key,
)
from twigstore.errors import EmptyInput, MalformedXml, UnknownNode
from twigstore.pattern import DESCENDANT
from twigstore.store import Store, StoreConfig, restore, snapshot
from twigstore.twigjoin import _range_rows, stack_join

from etree_oracle import parse_with_etree, write
from helpers import random_document_text

D1 = "<doc><sec><title>dht</title><par>xml</par></sec></doc>"


def labels(doc):
    return [(n.name_or_value, n.label.start, n.label.end, n.label.depth)
            for n in doc.nodes]


def test_counter_labels_d1():
    doc = parse_document(D1, 1)
    assert labels(doc) == [
        ("doc", 1, 10, 1),
        ("sec", 2, 9, 2),
        ("title", 3, 5, 3),
        ("dht", 4, 4, 4),
        ("par", 6, 8, 3),
        ("xml", 7, 7, 4),
    ]


def test_single_element_consumes_open_and_close():
    doc = parse_document("<a/>", 1)
    assert labels(doc) == [("a", 1, 2, 1)]


def test_sibling_intervals():
    doc = parse_document("<a><b/><b/></a>", 1)
    assert labels(doc) == [("a", 1, 6, 1), ("b", 2, 3, 2), ("b", 4, 5, 2)]


def test_attributes_are_child_nodes():
    doc = parse_document('<a x="1">t</a>', 1)
    assert [(n.kind, n.name_or_value) for n in doc.nodes] == [
        (ELEMENT, "a"),
        (ATTRIBUTE, "@x"),
        (TEXT, "t"),
    ]
    attr = doc.nodes[1]
    assert attr.attr_value == "1"
    assert attr.label.start == attr.label.end


def test_name_postings_hold_elements_and_attributes_only(tmp_path):
    # text "a" and the attribute value "b" look like names but are not
    doc = parse_document('<a id="b"><b>a</b>a<a/></a>', 1)
    # parsing builds neither the index nor the join rows
    assert doc._index is None and doc._rows == {}
    postings = doc.postings()
    # each element and attribute under its name's key, in label order,
    # the keys in the order one pass over the nodes first files them
    assert {key: [lb.start for lb in labels] for key, labels in postings.items()} == {
        "t:a": [1, 7], "w:a": [1, 3], "t:@id": [2], "t:b": [3]}
    assert list(postings) == ["t:a", "w:a", "t:@id", "t:b"]
    # postings builds afresh and keeps nothing; index builds once and keeps
    assert doc.postings() == postings and doc.postings() is not postings
    assert doc._index is None
    assert doc.index() == postings and doc.index() is doc.index()

    # a name's join rows are its postings' labels, built once per key; a
    # restored store's documents hold neither index nor rows
    central = Store(StoreConfig(resource_granularity={"a"}))
    central.store_resource("<r><a/><a><b/></a></r>")
    snapshot(central, str(tmp_path / "s.snap"))
    (doc,) = restore(str(tmp_path / "s.snap")).documents.values()
    assert doc._index is None and doc._rows == {}
    rows = doc.rows("t:a", None)
    assert rows == [(label,) for label in doc.postings()["t:a"]] and len(rows) == 2
    assert doc.rows("t:a", None) is rows and list(doc._rows) == [("t:a", None)]
    assert doc.rows("t:c", None) == []
    # a wildcard's rows: every element and attribute, built once
    every = doc.rows("*", None)
    assert every == [(n.label,) for n in doc.nodes if n.kind != TEXT]
    assert doc.rows("*", None) is every
    # the skip index is built by the first join that skips a parent, the
    # empty a that ends before the b starts, and kept with the rows
    assert rows.reach is None
    b_rows = doc.rows("t:b", None)
    assert stack_join(DESCENDANT, rows, 0, b_rows, 0) == [(rows[1], b_rows[0])]
    reach = rows.reach
    assert reach == [(1, 3), (1, 7)]
    stack_join(DESCENDANT, rows, 0, b_rows, 0)
    assert rows.reach is reach and doc.rows("t:a", None) is rows


def test_word_and_value_postings_read_text_children_only():
    doc = parse_document(
        '<a><b>Xml xml</b><b id="7">7<c>XML 8</c>0012</b>Straße<a>ﬁle-xml</a>xml</a>', 1
    )
    # a node's terms: distinct words, then integers, of its text children
    assert doc.terms(doc.node_by_start(5)) == (("7", "0012"), (7, 12))
    assert doc.terms(doc.root) == (("straße", "xml"), ())
    assert doc.terms(doc.node_by_start(6)) == doc.terms(doc.node_by_start(7)) == ((), ())
    postings = doc.postings()

    def starts(key, name=None):
        return [row[0].start for row in doc.rows(key, name)]

    # each node once, in label order, words folded as split_words folds
    # them, and the attribute value "7" under no key
    assert [lb.start for lb in postings["w:xml"]] == [1, 2, 8, 14]
    assert [lb.start for lb in postings["w:7"]] == [5]
    # the value keys: "7" and "0012" of the second b, and no "XML 8"
    assert {key: [lb.start for lb in labels] for key, labels in postings.items()
            if key.startswith("v:")} == {value_key("b", 7): [5], value_key("b", 12): [5]}

    # the centralized reader: a word's rows, kept to a name's nodes
    assert doc._index is None and doc._value_keys is None
    assert starts("w:xml") == [1, 2, 8, 14]
    assert starts("w:xml", "a") == [1, 14]
    assert starts("w:xml", "b") == [2]
    assert starts("w:straße", "a") == [1]
    assert starts("w:ﬁle", "a") == [14]
    assert starts("w:8", "c") == [8]
    assert starts("w:7", "@id") == starts("w:b", "b") == []
    index = doc.index()
    assert doc._value_keys is None  # a word read sorts no value key

    def in_range(name, lo, hi):
        return [row[0].start for row in _range_rows(doc, name, lo, hi)]

    # "7" and "0012" both lie in 7..12, yet their element comes once
    assert in_range("b", 7, 12) == [5]
    assert in_range("*", -5, 12) == [5]
    assert in_range("b", 8, 11) == in_range("@id", 0, 10) == []
    assert in_range("c", 8, 8) == []  # "XML 8" is no integer
    assert in_range("b", 10**19, 10**19 + 5) == []  # beyond the window
    assert doc._value_keys == [value_key("b", 7), value_key("b", 12)]
    assert doc.index() is index  # range reads do not build it again


def test_whitespace_only_text_dropped():
    doc = parse_document("<a>\n  <b/>\n</a>", 1)
    assert [n.kind for n in doc.nodes] == [ELEMENT, ELEMENT]


def test_malformed_and_empty_input():
    with pytest.raises(MalformedXml):
        parse_document("<a><b></a>", 1)
    with pytest.raises(MalformedXml):
        parse_document("<a/><b/>", 1)
    with pytest.raises(EmptyInput):
        parse_document("   ", 1)


def test_is_ancestor():
    a = StructuralId(1, 2, 9, 2)
    d = StructuralId(1, 3, 5, 3)
    assert is_ancestor(a, d)
    assert not is_ancestor(d, d)
    assert not is_ancestor(StructuralId(1, 2, 9, 2), StructuralId(2, 3, 5, 3))


def test_is_parent():
    sec = StructuralId(1, 2, 9, 2)
    title = StructuralId(1, 3, 5, 3)
    doc = StructuralId(1, 1, 10, 1)
    assert is_parent(sec, title)
    assert not is_parent(doc, title)
    assert is_parent(doc, sec)


def test_label_is_its_field_tuple():
    sid = StructuralId(1, 2, 9, 2)
    assert sid == (1, 2, 9, 2) and hash(sid) == hash((1, 2, 9, 2))
    assert (sid.doc_id, sid.start, sid.end, sid.depth) == tuple(sid)
    assert {sid: "x"}[(1, 2, 9, 2)] == "x"
    assert repr(sid) == "StructuralId(doc_id=1, start=2, end=9, depth=2)"


def test_labels_of_parsed_documents_sort_by_doc_then_start():
    rng = random.Random(7)
    docs = [parse_document(random_document_text(rng, 30), d) for d in (3, 1, 2)]
    labels = [n.label for doc in docs for n in doc.nodes]
    rng.shuffle(labels)
    by_start = sorted(labels, key=lambda lb: (lb.doc_id, lb.start))
    assert sorted(labels) == by_start


def test_unknown_node_messages_show_the_label_fields():
    doc = parse_document(D1, 1)
    with pytest.raises(UnknownNode) as exc:
        serialize_subtree(doc, StructuralId(1, 99, 100, 2))
    assert str(exc.value) == (
        "no node labeled StructuralId(doc_id=1, start=99, end=100, depth=2)"
        " in document 1"
    )
    with pytest.raises(UnknownNode) as exc:
        serialize_subtree(doc, StructuralId(1, 4, 4, 4))  # the text "dht"
    assert str(exc.value) == (
        "label StructuralId(doc_id=1, start=4, end=4, depth=4) is not an element node"
    )


def test_serialize_subtree():
    doc = parse_document(D1, 1)
    sec = doc.nodes[1].label
    title = doc.nodes[2].label
    assert serialize_subtree(doc, sec) == "<sec><title>dht</title><par>xml</par></sec>"
    assert serialize_subtree(doc, title) == "<title>dht</title>"
    assert serialize_subtree(doc, doc.root.label) == D1


def test_serialize_unknown_node():
    doc = parse_document(D1, 1)
    with pytest.raises(UnknownNode):
        serialize_subtree(doc, StructuralId(1, 99, 100, 2))


def test_escaping_round_trip():
    text = '<a x="q&quot;b">1 &lt; 2 &amp; 3</a>'
    doc = parse_document(text, 1)
    out = serialize_document(doc)
    again = parse_document(out, 1)
    assert serialize_document(again) == out
    assert again.nodes[1].attr_value == 'q"b'
    assert again.nodes[2].name_or_value == "1 < 2 & 3"


@pytest.mark.parametrize("text", [
    '<x:a xmlns:x="urn:u"><x:b>t</x:b></x:a>',
    '<a xmlns="urn:u"><b/></a>',
    '<a xml:lang="en">t</a>',
    '<a><b x:y="1" xmlns:x="urn:v"/></a>',
])
def test_namespaced_names_refused(text):
    # the parser reports them as {uri}local, which no serialization can
    # write back as well-formed XML
    with pytest.raises(MalformedXml):
        parse_document(text, 1)


def test_character_references_round_trip():
    doc = parse_document("<a><b>x&#13;y</b><c a='p&#13;q&#9;r&#10;s'/></a>", 1)
    out = serialize_document(doc)
    assert out == '<a><b>x&#13;y</b><c a="p&#13;q&#9;r&#10;s"/></a>'
    again = parse_document(out, 1)
    assert again.nodes[2].name_or_value == "x\ry"
    assert again.nodes[4].attr_value == "p\rq\tr\ns"


def test_extract_resources():
    doc = parse_document(D1, 1)
    assert [r.resource_id for r in extract_resources(doc, {"par"})] == ["1#1", "1#6"]
    assert [r.resource_id for r in extract_resources(doc, set())] == ["1#1"]
    assert len(extract_resources(doc, {"sec", "par", "title"})) == 4


def test_extract_resources_root_named_in_granularity():
    doc = parse_document("<par><par/></par>", 1)
    # the root is listed once even when its name is in the set
    assert [r.resource_id for r in extract_resources(doc, {"par"})] == ["1#1", "1#2"]


_GRAIN_NAMES = ("sec", "par", "doc")
_RAW_TEXT = st.text(alphabet='ab &<>"', max_size=4)
_ELEMENT_TREES = st.recursive(
    st.tuples(
        st.sampled_from(_GRAIN_NAMES),
        st.dictionaries(st.sampled_from(("id", "k")), _RAW_TEXT, max_size=2),
        _RAW_TEXT,
        st.just([]),
    ),
    lambda kids: st.tuples(
        st.sampled_from(_GRAIN_NAMES),
        st.dictionaries(st.sampled_from(("id", "k")), _RAW_TEXT, max_size=2),
        _RAW_TEXT,
        st.lists(st.tuples(kids, _RAW_TEXT), max_size=3),
    ),
    max_leaves=12,
)


def _xml_text(tree) -> str:
    """XML text of ``(name, attrs, text, [(child, tail)])``, escaped by
    ElementTree, so the package's own writer is not its oracle."""

    def build(node):
        name, attrs, text, kids = node
        elem = ET.Element(name, attrs)
        elem.text = text
        for kid, tail in kids:
            child = build(kid)
            child.tail = tail
            elem.append(child)
        return elem

    return ET.tostring(build(tree), encoding="unicode")


@given(tree=_ELEMENT_TREES, granularity=st.sets(st.sampled_from(_GRAIN_NAMES)))
@example(
    tree=("sec", {"k": '"&<>'}, "a<b", [
        (("sec", {}, "", [(("sec", {"id": "x"}, "", []), "&")]), ">"),
        (("par", {}, "", []), ""),
    ]),
    granularity={"sec", "par"},
)
def test_one_pass_extraction_equals_per_resource_serialization(tree, granularity):
    # covers attributes, escaped text and values, self-closed elements, a
    # granularity name nested in itself and a root named in the granularity
    doc = parse_document(_xml_text(tree), 3)
    resources = extract_resources(doc, granularity)
    wanted = [doc.root] + [
        n for n in doc.nodes
        if n.kind == ELEMENT and n is not doc.root and n.name in granularity
    ]
    assert [r.root_label for r in resources] == [n.label for n in wanted]
    # the oracle is a fresh walk over the labeled nodes, which reads
    # neither the parse's text nor its offsets
    fresh = parse_document(_xml_text(tree), 3)
    for res, node in zip(resources, wanted):
        assert res.resource_id == f"3#{res.root_label.start}"
        assert res.payload == _walk(fresh, fresh.node_at(node.label))


def _walk(doc, node) -> str:
    """``node``'s text from a fresh walk of the oracle's ``write``, which
    appends one part per label position in its interval."""
    out = []
    write(doc, node, out)
    assert len(out) == node.label.end - node.label.start + 1
    return "".join(out)


def _assert_slices_match_walks(doc):
    for node in doc.nodes:
        if node.kind == ELEMENT:
            want = _walk(doc, node)
            assert serialize_subtree(doc, node.label) == want
            assert serialize_node(doc, node.label) == want


@given(tree=_ELEMENT_TREES)
def test_slices_equal_a_fresh_walk_before_and_after_restore(tmp_path_factory, tree):
    text = _xml_text(tree)
    _assert_slices_match_walks(parse_document(text, 1))
    store = Store(StoreConfig(resource_granularity=set(_GRAIN_NAMES)))
    store.store_resource(text)
    path = str(tmp_path_factory.mktemp("slices") / "s.snap")
    snapshot(store, path)
    (doc,) = restore(path).documents.values()
    _assert_slices_match_walks(doc)


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: the document's labeled nodes, its
    children lists, text and offsets, or the type and message of its
    refusal."""
    try:
        doc = parse(text, 4)
    except Exception as exc:  # the refusals are compared, whatever they are
        return type(exc), str(exc)
    return doc.nodes, list(doc._children.items()), doc.text, doc.spans.tolist()


def _assert_parses_like_etree(text):
    assert _outcome(parse_document, text) == _outcome(parse_with_etree, text)


@given(tree=_ELEMENT_TREES)
def test_parse_equals_the_etree_oracle_on_random_trees(tree):
    _assert_parses_like_etree(_xml_text(tree))


_DEEP = "<a>" * 5000 + "x" + "</a>" * 5000

_PARSER_CASES = [
    # comments and processing instructions inside text, before and after
    # the root
    "<a>x<!--c-->y<?pi data?>z<b/> <!--c--> </a>",
    "<!--c--><?pi?><a>t</a><!--c--><?pi?>",
    # CDATA, character references and predefined entities
    "<a><![CDATA[<b>&amp;]]>t<![CDATA[]]></a>",
    "<a>&#65;&#x42;&amp;&lt;&gt;&quot;&apos;</a>",
    # internal DTD entities, in text and in attribute values, one of them
    # expanding to markup
    '<!DOCTYPE a [<!ENTITY e "x<b>y</b>z"><!ENTITY f "q">]><a k="&f;">&e;&f;</a>',
    # ATTLIST defaults, which follow the specified attributes
    '<!DOCTYPE a [<!ATTLIST a k CDATA "d" j CDATA #IMPLIED>]><a x="1"><a/></a>',
    # tab, newline, CR and escaped markup in attribute values; CR in text
    '<a x="p\tq\nr&lt;s&#9;&#10;&#13;" y=\'"\'>x\r\ny&#13;</a>',
    # a raw < in an attribute value is refused
    '<a x="<"/>',
    # an encoding declaration does not apply to text already decoded; a BOM
    '<?xml version="1.0" encoding="latin-1"?><a>é</a>',
    "\ufeff<a>t</a>",
    # whitespace-only text and tails are dropped, other tails kept
    "<a>  <b/>\n\t<c> </c> x <d/>y</a>",
    "<a>\n<b>t</b>\n</a>\n",
    # junk after the root, a second root, unclosed and mismatched tags
    "<a/>junk",
    "<a/><b/>",
    "<a>",
    "<a><b></a>",
    "",
    "  \n",
    "<a>]]></a>",
    # text longer than the parser's text buffer, and one split by entities
    "<a>" + "x" * 20000 + "</a>",
    "<a>" + "x&amp;" * 5000 + "</a>",
    # an entity no DTD declares: expat refuses it itself
    "<a>&e;</a>",
    # an entity an external DTD might declare: expat lets it through,
    # and ElementTree refuses it
    '<!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>',
    '<!DOCTYPE a SYSTEM "a.dtd"><a>t&e;&f;</a>',
    '<!DOCTYPE a [<!ENTITY % p "x">%p;]><a>&e;</a>',
    '<!DOCTYPE a [<!ENTITY e SYSTEM "e.xml">]><a>&e;</a>',
    '<!DOCTYPE a SYSTEM "a.dtd"><a>&' + "é" * 60 + ";</a>",
    '<?xml version="1.0" standalone="yes"?><!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>',
    # namespaced names are reported as {uri}local: an element at its end
    # and an attribute at its element's start
    '<x:a xmlns:x="urn:u"><x:b>t</x:b></x:a>',
    '<x:a xmlns:x="urn:u"><b y:z="1" xmlns:y="urn:v"/></x:a>',
    '<a xmlns="urn:u"><b/></a>',
    '<a xml:lang="en">t</a>',
    '<a xmlns=""><b/></a>',
    "<x:a>t</x:a>",
    # a syntax error, and an undefined entity, win over a namespaced name
    '<x:a xmlns:x="urn:u"><b></x:a>',
    '<a xmlns:y="urn:v" y:z="1"><b></a>',
    '<x:a xmlns:x="urn:u"/><junk/>',
    '<!DOCTYPE a SYSTEM "a.dtd"><x:a xmlns:x="urn:u">&e;</x:a>',
    # any depth
    _DEEP,
    "<a>" * 5000 + "</a>" * 4999,
]


@pytest.mark.parametrize("text", _PARSER_CASES)
def test_parse_equals_the_etree_oracle(text):
    _assert_parses_like_etree(text)


def test_parse_refusals_the_first_parser_got_wrong():
    # pinned apart from the oracle, so a broken oracle cannot hide them
    with pytest.raises(MalformedXml) as exc:
        parse_document('<!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>', 1)
    assert str(exc.value) == "undefined entity &e;: line 1, column 30"
    with pytest.raises(MalformedXml) as exc:
        parse_document('<x:a xmlns:x="urn:u"><x:b>t</x:b></x:a>', 1)
    assert str(exc.value) == "namespaced name '{urn:u}b' is not supported"
    with pytest.raises(MalformedXml) as exc:
        parse_document('<x:a xmlns:x="urn:u"><b y:z="1" xmlns:y="urn:v"/></x:a>', 1)
    assert str(exc.value) == "namespaced name '{urn:v}z' is not supported"
    with pytest.raises(MalformedXml) as exc:
        parse_document('<x:a xmlns:x="urn:u"><b></x:a>', 1)
    assert str(exc.value) == "mismatched tag: line 1, column 26"


@pytest.mark.parametrize("text", [D1, "<a><b></a>", '<x:a xmlns:x="urn:u"/>',
                                  '<!DOCTYPE a SYSTEM "a.dtd"><a>&e;</a>'])
def test_a_parse_leaves_nothing_for_the_cyclic_collector(text):
    # a parse's state is freed when it returns or raises, so a restore of
    # many documents leaves no cycle behind for a full collection to find
    gc.collect()
    gc.disable()
    try:
        try:
            parse_document(text, 1)
        except MalformedXml:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("backend", ["centralized", "p2p"])
def test_text_is_one_copy_built_by_the_parse(tmp_path, backend):
    doc = parse_document(D1, 1)
    # the parse writes the text and its offsets
    assert doc.text == D1
    # one array of offsets, one per label position and one before them
    assert type(doc.spans) is array and len(doc.spans) == doc.root.label.end + 1
    sec = doc.nodes[1].label
    assert serialize_subtree(doc, sec) == "<sec><title>dht</title><par>xml</par></sec>"

    store = Store(StoreConfig(backend=backend, resource_granularity={"par"}))
    store.store_resource(D1)
    kept = store.documents[1]
    text = kept.text
    assert store.get_resource("1#1").payload is text
    assert extract_resources(kept, {"par"})[0].payload is text
    assert serialize_document(kept) is text
    assert store.get_resource("1#6").payload == "<par>xml</par>"
    path = str(tmp_path / "s.snap")
    snapshot(store, path)
    again = restore(path)
    assert again.get_resource("1#1").payload is again.documents[1].text == D1


def test_recompose_one_resource_per_distinct_label_in_label_order():
    # both backends build their answers here, so the transparency tests
    # cannot see a fault in it
    a, b, c = StructuralId(2, 1, 4, 1), StructuralId(1, 5, 5, 2), StructuralId(1, 2, 9, 1)
    calls = []

    def payloads(labels):
        calls.append(list(labels))
        return [f"<p{label.start}/>" for label in labels]

    got = recompose([a, b, a, c, b], payloads)
    assert calls == [[c, b, a]]
    assert [(r.resource_id, r.doc_id, r.root_label, r.payload) for r in got] == [
        ("1#2", 1, c, "<p2/>"), ("1#5", 1, b, "<p5/>"), ("2#1", 2, a, "<p1/>"),
    ]
    assert recompose(iter([]), payloads) == []


def _naive_spans(xml_text):
    """Independent oracle: recursive descent over the raw text, elements only.

    Returns (name, depth) in document order plus the nesting structure as
    matched span indices, without using the package parser.
    """
    import re

    token = re.compile(r"<(/?)([^\s/>]+)([^>]*?)(/?)>")
    spans = []
    stack = []
    for m in token.finditer(xml_text):
        closing, name, _attrs, selfclose = m.groups()
        if closing:
            stack.pop()
        elif selfclose:
            spans.append((name, len(stack) + 1))
        else:
            stack.append(name)
            spans.append((name, len(stack)))
    return spans


@given(st.integers(min_value=0, max_value=10_000))
def test_parse_matches_naive_recursive_oracle(seed):
    rng = random.Random(seed)
    text = random_document_text(rng, max_nodes=25)
    doc = parse_document(text, 1)
    got = [
        (n.name_or_value, n.label.depth) for n in doc.nodes if n.kind == ELEMENT
    ]
    assert got == _naive_spans(text)
    # nesting: sorted by start gives document order (already asserted by
    # construction), intervals properly nest
    elems = [n.label for n in doc.nodes if n.kind == ELEMENT]
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            inside = a.start < b.start and b.end < a.end
            disjoint = b.start > a.end
            assert inside or disjoint


@given(st.integers(min_value=0, max_value=10_000))
def test_ancestor_is_strict_partial_order(seed):
    rng = random.Random(seed)
    doc = parse_document(random_document_text(rng, 20), 1)
    elems = [n.label for n in doc.nodes if n.kind == ELEMENT]
    for a in elems:
        assert not is_ancestor(a, a)
        for b in elems:
            if a == b:
                continue
            relations = [
                is_ancestor(a, b),
                is_ancestor(b, a),
                b.start > a.end or a.start > b.end,
            ]
            assert sum(relations) == 1


@given(st.integers(min_value=0, max_value=10_000))
def test_serialize_parse_round_trip(seed):
    rng = random.Random(seed)
    doc = parse_document(random_document_text(rng, 25), 1)
    for node in doc.nodes:
        if node.kind != ELEMENT:
            continue
        payload = serialize_subtree(doc, node.label)
        sub = parse_document(payload, 1)
        assert [(n.kind, n.name_or_value) for n in sub.nodes] == [
            (m.kind, m.name_or_value) for m in _subtree_nodes(doc, node)
        ]


def _subtree_nodes(doc, root):
    out = [root]
    for node in doc.nodes:
        if node.label.start > root.label.start and node.label.end < root.label.end:
            out.append(node)
    return sorted(out, key=lambda n: n.label.start)
