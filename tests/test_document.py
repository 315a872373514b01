import random
import xml.etree.ElementTree as ET

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
    serialize_subtree,
)
from twigstore.errors import EmptyInput, MalformedXml, UnknownNode

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


def test_name_postings_hold_elements_and_attributes_only():
    # text "a" and the attribute value "b" look like names but are not
    doc = parse_document('<a id="b"><b>a</b>a<a/></a>', 1)
    assert doc._by_name is None  # parsing never builds the postings
    assert [(n.kind, n.label.start) for n in doc.named("a")] == [
        (ELEMENT, 1), (ELEMENT, 7)
    ]
    assert [n.label.start for n in doc.named("b")] == [3]
    assert [(n.kind, n.attr_value) for n in doc.named("@id")] == [(ATTRIBUTE, "b")]
    assert doc.named("c") == []


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
    for res in resources:
        assert res.resource_id == f"3#{res.root_label.start}"
        assert res.payload == serialize_subtree(doc, res.root_label)


def test_recompose_one_resource_per_distinct_label_in_label_order():
    # both backends build their answers here, so the transparency tests
    # cannot see a fault in it
    a, b, c = StructuralId(2, 1, 4, 1), StructuralId(1, 5, 5, 2), StructuralId(1, 2, 9, 1)
    fetched = []

    def payload(label):
        fetched.append(label)
        return f"<p{label.start}/>"

    got = recompose([a, b, a, c, b], payload)
    assert fetched == [c, b, a]
    assert [(r.resource_id, r.doc_id, r.root_label, r.payload) for r in got] == [
        ("1#2", 1, c, "<p2/>"), ("1#5", 1, b, "<p5/>"), ("2#1", 2, a, "<p1/>"),
    ]
    assert recompose(iter([]), payload) == []


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
