"""XML documents with interval-encoded structural labels.

Every node (element, attribute, text) of a parsed document carries a
StructuralId ``(doc_id, start, end, depth)``.  Start/end values are drawn
from one counter in a single left-to-right pass: an element consumes one
value when it opens and one when it closes; attribute and text nodes
consume a single value (start == end).  Ancestry is then pure interval
containment, which is what the distributed structural joins rely on.

Attributes are modeled as child nodes named ``"@name"`` so tree patterns
can address them like elements; the attribute's value is kept on the node
for serialization and is not word-indexed.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable

from .errors import EmptyInput, MalformedXml, UnknownNode

ELEMENT = "element"
TEXT = "text"
ATTRIBUTE = "attribute"

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
_INT_RE = re.compile(r"([+-]?)0*([0-9]+)")

# text counts as an integer only within +-INT_WINDOW, on both backends
INT_WINDOW = 10**18
_WINDOW_DIGITS = len(str(INT_WINDOW))


@dataclass(frozen=True, slots=True, order=True)
class StructuralId:
    """Interval label of one node; orders by (doc_id, start)."""

    doc_id: int
    start: int
    end: int
    depth: int


@dataclass(frozen=True, slots=True)
class Node:
    node_id: int
    kind: str
    name_or_value: str
    label: StructuralId
    attr_value: str = ""

    @property
    def name(self) -> str:
        return self.name_or_value


@dataclass(slots=True)
class Document:
    """Parsed XML document; immutable after construction, apart from the
    name postings ``named`` builds on first use.

    ``nodes`` is in document (start) order, with the root first.
    """

    doc_id: int
    root: Node = field(init=False)
    nodes: list[Node] = field(default_factory=list)
    _children: dict[int, list[Node]] = field(default_factory=dict)
    _by_start: dict[int, Node] = field(default_factory=dict)
    _by_name: dict[str, list[Node]] | None = None

    def finish(self) -> None:
        self.root = self.nodes[0]
        for node in self.nodes:
            self._by_start[node.label.start] = node

    def node_at(self, label: StructuralId) -> Node:
        node = self._by_start.get(label.start)
        if node is None or node.label != label or label.doc_id != self.doc_id:
            raise UnknownNode(f"no node labeled {label} in document {self.doc_id}")
        return node

    def node_by_start(self, start: int) -> Node:
        node = self._by_start.get(start)
        if node is None:
            raise UnknownNode(f"no node at start {start} in document {self.doc_id}")
        return node

    def named(self, name: str) -> list[Node]:
        """The element and attribute nodes called ``name``, in document order.

        The postings of every name are built in one pass on the first call,
        so parsing (every p2p ingest and restore) never pays for them.
        """
        if self._by_name is None:
            by_name: dict[str, list[Node]] = {}
            for node in self.nodes:
                if node.kind != TEXT:
                    by_name.setdefault(node.name, []).append(node)
            self._by_name = by_name
        return self._by_name.get(name, [])

    def children(self, node: Node) -> list[Node]:
        return self._children.get(node.node_id, [])

    def text_children(self, node: Node) -> list[str]:
        return [c.name_or_value for c in self.children(node) if c.kind == TEXT]


@dataclass(frozen=True, slots=True)
class Resource:
    """A storable/returnable unit: a document or one of its subtrees."""

    resource_id: str
    doc_id: int
    root_label: StructuralId
    payload: str


def _resource(label: StructuralId, payload: str) -> Resource:
    return Resource(f"{label.doc_id}#{label.start}", label.doc_id, label, payload)


def recompose(
    labels: Iterable[StructuralId], payload: Callable[[StructuralId], str]
) -> list[Resource]:
    """One resource per distinct label, in label order.

    ``payload`` is called once per distinct label, in that order: the
    centralized backend serializes the node, the p2p executor fetches it
    from the document's home peer.
    """
    return [_resource(label, payload(label)) for label in sorted(set(labels))]


def is_ancestor(a: StructuralId, d: StructuralId) -> bool:
    """Strict interval containment within one document."""
    return a.doc_id == d.doc_id and a.start < d.start and d.end < a.end


def is_parent(a: StructuralId, d: StructuralId) -> bool:
    return is_ancestor(a, d) and d.depth == a.depth + 1


def split_words(text: str) -> list[str]:
    """Lowercased alphanumeric runs of ``text``, in occurrence order."""
    return _WORD_RE.findall(text.lower())


def parse_int_content(text: str) -> int | None:
    """The value of a text node whose full content is a decimal integer
    within +-INT_WINDOW; None for any other text.

    Digits are counted, leading zeros aside, before ``int`` runs, so text
    of any length is answered without reaching int's digit limit.
    """
    m = _INT_RE.fullmatch(text.strip())
    if m is None or len(m.group(2)) > _WINDOW_DIGITS:
        return None
    value = int(m.group(1) + m.group(2))
    return value if -INT_WINDOW <= value <= INT_WINDOW else None


def parse_document(xml_text: str, doc_id: int) -> Document:
    """Parse ``xml_text`` and assign interval labels in one counter pass.

    Whitespace-only text nodes are dropped so payloads stay canonical.
    Raises EmptyInput for blank input and MalformedXml for anything the
    XML tokenizer rejects (including trailing content after the root).
    """
    if not xml_text.strip():
        raise EmptyInput("no XML content")
    try:
        root_elem = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from None

    doc = Document(doc_id=doc_id)
    counter = [0]
    ids = [0]

    def next_pos() -> int:
        counter[0] += 1
        return counter[0]

    def next_id() -> int:
        ids[0] += 1
        return ids[0]

    def leaf(kind: str, text: str, depth: int, value: str = "") -> Node:
        pos = next_pos()
        node = Node(next_id(), kind, text, StructuralId(doc_id, pos, pos, depth), value)
        doc.nodes.append(node)
        return node

    def walk(elem: ET.Element, depth: int) -> Node:
        start = next_pos()
        node_id = next_id()
        slot = len(doc.nodes)
        doc.nodes.append(None)  # type: ignore[arg-type]  # filled once end is known
        kids: list[Node] = []
        for name, value in elem.attrib.items():
            kids.append(leaf(ATTRIBUTE, "@" + name, depth + 1, value))
        if elem.text and elem.text.strip():
            kids.append(leaf(TEXT, elem.text, depth + 1))
        for child in elem:
            kids.append(walk(child, depth + 1))
            if child.tail and child.tail.strip():
                kids.append(leaf(TEXT, child.tail, depth + 1))
        end = next_pos()
        node = Node(node_id, ELEMENT, elem.tag, StructuralId(doc_id, start, end, depth))
        doc.nodes[slot] = node
        if kids:
            doc._children[node_id] = kids
        return node

    walk(root_elem, 1)
    doc.finish()
    return doc


_TEXT_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;")]
_ATTR_ESCAPES = _TEXT_ESCAPES + [('"', "&quot;")]


def _escape(value: str, table) -> str:
    for raw, rep in table:
        value = value.replace(raw, rep)
    return value


def serialize_subtree(doc: Document, root_label: StructuralId) -> str:
    """Canonical XML text of the subtree rooted at ``root_label``.

    No XML declaration, attributes in document order, no added whitespace;
    childless elements serialize self-closed.  Only element nodes are
    addressable.
    """
    node = doc.node_at(root_label)
    if node.kind != ELEMENT:
        raise UnknownNode(f"label {root_label} is not an element node")
    out: list[str] = []
    _write(doc, node, out)
    return "".join(out)


def _write(
    doc: Document,
    node: Node,
    out: list[str],
    cut: set[str] | frozenset[str] = frozenset(),
    marks: list[list] | None = None,
) -> None:
    """Append ``node``'s text to ``out`` in parts.

    Each element named in ``cut`` appends ``[node, first part, end part]``
    to ``marks`` in document order, so its text is ``out[first:end]``.
    """
    mark = None
    if node.name in cut:
        mark = [node, len(out), 0]
        marks.append(mark)  # type: ignore[union-attr]
    attrs = []
    content = []
    for child in doc.children(node):
        if child.kind == ATTRIBUTE:
            attrs.append(child)
        else:
            content.append(child)
    out.append("<" + node.name)
    for a in attrs:
        out.append(f' {a.name[1:]}="{_escape(a.attr_value, _ATTR_ESCAPES)}"')
    if content:
        out.append(">")
        for child in content:
            if child.kind == TEXT:
                out.append(_escape(child.name_or_value, _TEXT_ESCAPES))
            else:
                _write(doc, child, out, cut, marks)
        out.append("</" + node.name + ">")
    else:
        out.append("/>")
    if mark is not None:
        mark[2] = len(out)


def serialize_document(doc: Document) -> str:
    return serialize_subtree(doc, doc.root.label)


def serialize_node(doc: Document, label: StructuralId) -> str:
    """Like serialize_subtree, but attribute nodes render as a small element.

    Query results may return attribute nodes; ``<name>value</name>`` keeps
    their payloads well-formed XML.
    """
    node = doc.node_at(label)
    if node.kind == ATTRIBUTE:
        name = node.name[1:]
        return f"<{name}>{_escape(node.attr_value, _TEXT_ESCAPES)}</{name}>"
    return serialize_subtree(doc, label)


def extract_resources(doc: Document, granularity: set[str]) -> list[Resource]:
    """One resource for the root plus one per element named in ``granularity``.

    Resource ids are ``"<doc_id>#<start>"``; attribute and text nodes are
    never resources.  The document is serialized once: each payload is the
    slice of the root's text between the parts its element started and
    ended at, equal to ``serialize_subtree`` of that element.
    """
    out: list[str] = []
    marks: list[list] = []
    _write(doc, doc.root, out, granularity, marks)
    text = "".join(out)
    resources = [_resource(doc.root.label, text)]
    if marks:
        offsets = [0, *accumulate(map(len, out))]
        for node, first, end in marks:
            if node is not doc.root:
                payload = text[offsets[first] : offsets[end]]
                resources.append(_resource(node.label, payload))
    return resources
