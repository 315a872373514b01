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

A document has one posting index, ``Document.postings``, keyed as the
overlays key it (``t:name``, ``w:word``, ``v:name=enc``, built and read
back only here) from each node's ``Document.terms``: the p2p backend
publishes it and the centralized backend reads it.
"""

from __future__ import annotations

import re
from array import array
from itertools import accumulate, chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence
from xml.parsers import expat

from .errors import EmptyInput, MalformedXml, UnknownNode

ELEMENT = "element"
TEXT = "text"
ATTRIBUTE = "attribute"

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
_INT_RE = re.compile(r"([+-]?)0*([0-9]+)")

# text counts as an integer only within +-INT_WINDOW, on both backends
INT_WINDOW = 10**18
_WINDOW_DIGITS = len(str(INT_WINDOW))
# a value key's integer, offset to be non-negative, as 20 decimal digits:
# byte order on the keys of one name is numeric order
_INT_OFFSET = 10**19


# -- posting keys: prefix-disjoint, one per name, word and (name, value) ------


def tag_key(name: str) -> str:
    return "t:" + name


def word_key(word: str) -> str:
    return "w:" + word


def encode_int(value: int) -> str:
    if abs(value) > INT_WINDOW + 1:
        raise ValueError(f"{value} outside the range-indexable window")
    return f"{value + _INT_OFFSET:020d}"


def value_key(name: str, value: int) -> str:
    return f"v:{name}={encode_int(value)}"


def value_bounds(name: str, lo: int, hi: int) -> tuple[str, str] | None:
    """The half-open key interval of ``name`` values in [lo, hi], clipped
    to the window; None when no integer in the window lies in [lo, hi]."""
    lo, hi = max(lo, -INT_WINDOW), min(hi, INT_WINDOW)
    if lo > hi:
        return None
    return value_key(name, lo), value_key(name, hi + 1)


def tag_name(key: str) -> str | None:
    """The name ``key`` is the ``tag_key`` of; None for any other key."""
    return key[2:] if key[:2] == "t:" else None


def is_value_key(key: str) -> bool:
    return key[:2] == "v:"


def value_intervals(name: str, lo: int, hi: int, keys: Iterable[str]) -> list[tuple[str, str]]:
    """The ``value_bounds`` of ``name`` in [lo, hi], or for ``"*"`` of each
    name ``keys`` holds a ``value_key`` of, in name order; none when no
    integer in the window lies in [lo, hi]."""
    bounds = value_bounds(name, lo, hi)
    if bounds is None:
        return []
    if name != "*":
        return [bounds]
    names = sorted({k[2 : k.index("=")] for k in keys if is_value_key(k)})
    return [value_bounds(each, lo, hi) for each in names]


class StructuralId(NamedTuple):
    """Interval label of one node.

    A plain tuple, so labels compare, sort and hash in C.  No two nodes of
    a parsed document share a start, so its labels sort by (doc_id, start).
    """

    doc_id: int
    start: int
    end: int
    depth: int


class Node:
    """One element, attribute or text node; treated as immutable.  Nodes
    are equal when their fields are, so two parses of one text are."""

    __slots__ = ("kind", "name_or_value", "label", "attr_value")

    def __init__(
        self, kind: str, name_or_value: str, label: StructuralId, attr_value: str = ""
    ):
        self.kind = kind
        self.name_or_value = name_or_value
        self.label = label
        self.attr_value = attr_value

    def __eq__(self, other: object) -> bool:
        if type(other) is not Node:
            return NotImplemented
        return (self.kind, self.name_or_value, self.label, self.attr_value) == (
            other.kind, other.name_or_value, other.label, other.attr_value)

    @property
    def name(self) -> str:
        return self.name_or_value


class Rows(list):
    """One-label rows ``(label,)`` in label order: a posting list as the
    structural-join kernel reads it.

    ``reach`` is the kernel's skip index over these rows, None until
    ``twigjoin.stack_join`` first skips parents in them; it is kept here,
    with the rows it indexes, so a document's cached rows build it once.
    """

    __slots__ = ("reach",)

    def __init__(self, rows: Iterable[tuple[StructuralId]]):
        super().__init__(rows)
        self.reach: list[tuple[int, int]] | None = None


class Document:
    """Parsed XML document; immutable after construction, apart from what
    the centralized backend builds on its first query: the document's
    posting index (``index``), its sorted value keys, the one-label join
    rows of each key read (``rows``), and each such list's skip index,
    which the join kernel builds on its first skip over it.  The parse
    writes the canonical ``text`` and its offset table ``spans``, one
    ``array`` of character offsets by label position (see
    ``parse_document``), and every payload is a slice of that text.

    ``nodes`` is in document (start) order, with the root first.  Nothing
    built on first use is persisted, so parsing (every ingest and restore)
    pays for none of it.
    """

    __slots__ = (
        "doc_id", "root", "nodes", "_children", "_by_start", "_index",
        "_value_keys", "_rows", "text", "spans",
    )

    def __init__(self, doc_id: int):
        self.doc_id = doc_id
        self.root: Node  # set by ``finish``
        self.nodes: list[Node] = []
        self._children: dict[int, list[Node]] = {}  # by start
        self._by_start: dict[int, Node] = {}
        self._index: dict[str, list[StructuralId]] | None = None
        self._value_keys: list[str] | None = None
        # (posting key, name kept or None) -> its join rows
        self._rows: dict[tuple[str, str | None], Rows] = {}
        self.text: str  # set by ``parse_document``, as are the spans
        self.spans: array

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

    def postings(self) -> dict[str, list[StructuralId]]:
        """The document's posting index, built afresh: per key, in the
        order keys are first filed, the labels of its element and
        attribute nodes in label order.  One pass over ``nodes``, which is
        in label order (mixed content ``<a><b>foo</b>foo</a>`` included),
        files each node under ``tag_key`` of its name, then ``word_key`` of
        each word and ``value_key`` of each value of its ``terms``, so no
        list holds a label twice."""
        index: dict[str, list[StructuralId]] = {}
        for node in self.nodes:
            if node.kind == TEXT:
                continue
            name, label = node.name_or_value, node.label
            index.setdefault(tag_key(name), []).append(label)
            words, values = self.terms(node)
            for word in words:
                index.setdefault(word_key(word), []).append(label)
            for value in values:
                index.setdefault(value_key(name, value), []).append(label)
        return index

    def index(self) -> dict[str, list[StructuralId]]:
        """``postings``, built on the first call and kept: the centralized
        backend's index.  The p2p backend publishes ``postings`` and keeps
        nothing here."""
        if self._index is None:
            self._index = self.postings()
        return self._index

    def value_keys(self) -> list[str]:
        """The ``v:`` keys of ``index``, sorted as the range overlay orders
        them; built on the first call and kept."""
        if self._value_keys is None:
            self._value_keys = sorted(filter(is_value_key, self.index()))
        return self._value_keys

    def rows(self, key: str, name: str | None) -> Rows:
        """The labels ``index`` holds under ``key``, kept to the nodes
        called ``name`` unless it is None, as the join kernel's one-label
        rows in label order; built on the first call for the pair and
        kept.  Key ``"*"`` holds every element and attribute: each
        ``t:`` list, merged."""
        rows = self._rows.get((key, name))
        if rows is None:
            index = self.index()
            if key == "*":
                labels = sorted(chain.from_iterable(
                    labels for k, labels in index.items() if k[0] == "t"))
            else:
                labels = index.get(key, [])
            if name is not None:
                by_start = self._by_start
                labels = [lb for lb in labels if by_start[lb.start].name_or_value == name]
            rows = self._rows[(key, name)] = Rows(zip(labels))
        return rows

    def terms(self, node: Node) -> tuple[Sequence[str], Sequence[int]]:
        """What ``node`` is indexed under on both backends: the distinct
        ``split_words`` words and ``parse_int_content`` integers of its text
        children, each in first-occurrence order; ``((), ())`` for a node
        with no text child, every attribute and text node among them."""
        texts = [c.name_or_value for c in self._children.get(node.label.start, ())
                 if c.kind == TEXT]
        if not texts:
            return (), ()
        if len(texts) == 1:  # most elements: nothing to merge across texts
            (text,) = texts
            value = parse_int_content(text)
            return (tuple(dict.fromkeys(split_words(text))),
                    () if value is None else (value,))
        words = dict.fromkeys(chain.from_iterable(map(split_words, texts)))
        values = dict.fromkeys(
            v for v in map(parse_int_content, texts) if v is not None)
        return tuple(words), tuple(values)

    def text_children(self, node: Node) -> Iterator[str]:
        """The text of ``node``'s text children, in document order."""
        kids = self._children.get(node.label.start, ())
        return (c.name_or_value for c in kids if c.kind == TEXT)


class Resource:
    """A storable/returnable unit: a document or one of its subtrees;
    treated as immutable."""

    __slots__ = ("resource_id", "doc_id", "root_label", "payload")

    def __init__(
        self, resource_id: str, doc_id: int, root_label: StructuralId, payload: str
    ):
        self.resource_id = resource_id
        self.doc_id = doc_id
        self.root_label = root_label
        self.payload = payload


def _resource(label: StructuralId, payload: str) -> Resource:
    return Resource(f"{label.doc_id}#{label.start}", label.doc_id, label, payload)


def recompose(
    labels: Iterable[StructuralId],
    payloads: Callable[[list[StructuralId]], list[str]],
) -> list[Resource]:
    """One resource per distinct label, in label order.

    ``payloads`` is called once, with the distinct labels in that order,
    and returns their payloads in the same order: the centralized backend
    serializes each node, the p2p executor fetches them from the
    documents' home peers, one request per home.
    """
    distinct = sorted(set(labels))
    return [
        _resource(label, payload)
        for label, payload in zip(distinct, payloads(distinct), strict=True)
    ]


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
    """Parse ``xml_text``, label its nodes and write its canonical text in
    one pass over the parser's events.

    Whitespace-only text nodes are dropped so payloads stay canonical.
    Raises EmptyInput for blank input and MalformedXml for anything the
    XML tokenizer rejects (including trailing content after the root), for
    a reference to an entity the document does not declare, and for
    namespaced names, reported as ``{uri}local``: no serialization could
    write them back as well-formed XML.  A syntax error anywhere wins over
    a namespaced name; of those, the first in labeling order is reported,
    an attribute at its element's start and an element at its end.

    The parser is set up as ElementTree sets up its own, and events arrive
    in document order, so each start, text and end takes the next label
    position and appends that position's part of the canonical text: the
    start tag with its attributes at an element's start, an empty part at
    each attribute, the escaped text at a text node and the end tag at the
    element's end, empty when the element self-closes.  So ``spans[p]`` is
    the text's length up to the end of position ``p``'s part, and an
    element labeled ``(start, end)`` is ``text[spans[start - 1] : spans[end]]``.
    """
    if not xml_text.strip():
        raise EmptyInput("no XML content")
    doc = Document(doc_id)
    nodes = doc.nodes
    children = doc._children
    parts: list[str] = []  # position p's part is parts[p - 1]
    data: list[str] = []  # character data since the last start or end tag
    # per open element, outermost first: its start tag without the closing
    # bracket, its start, its slot in nodes (filled once its end is known),
    # its last attribute's position and its children so far
    stack: list[tuple[str, int, int, int, list[Node]]] = []
    namespaced: list[str] = []  # the first namespaced name, in labeling order

    def add_text() -> None:
        value = "".join(data)
        data.clear()
        if value.strip():
            pos = len(parts) + 1
            node = Node(TEXT, value, StructuralId(doc_id, pos, pos, len(stack) + 1))
            nodes.append(node)
            stack[-1][4].append(node)
            parts.append(_escape(value, _TEXT_ESCAPES))

    def open_element(name: str, attrs: list[str]) -> None:
        if data:
            add_text()
        depth = len(stack) + 1
        slot = len(nodes)
        nodes.append(None)  # type: ignore[arg-type]
        parts.append("")
        start = pos = len(parts)
        kids: list[Node] = []
        tag = "<" + name
        for i in range(0, len(attrs), 2):
            attr, value = attrs[i], attrs[i + 1]
            if "}" in attr and not namespaced:
                namespaced.append("{" + attr)
            pos += 1
            node = Node(ATTRIBUTE, "@" + attr, StructuralId(doc_id, pos, pos, depth + 1),
                        value)
            nodes.append(node)
            kids.append(node)
            parts.append("")
            tag += f' {attr}="{_escape(value, _ATTR_ESCAPES)}"'
        parts[start - 1] = tag + ">"
        stack.append((tag, start, slot, pos, kids))

    def close_element(name: str) -> None:
        if data:
            add_text()
        tag, start, slot, inner, kids = stack.pop()
        if "}" in name and not namespaced:
            namespaced.append("{" + name)
        if len(parts) == inner:  # no child but attributes: self-closed
            parts[start - 1] = tag + "/>"
            parts.append("")
        else:
            parts.append("</" + name + ">")
        node = nodes[slot] = Node(
            ELEMENT, name, StructuralId(doc_id, start, len(parts), len(stack) + 1))
        if kids:
            children[start] = kids
        if stack:
            stack[-1][4].append(node)

    def refuse_entity(markup: str) -> None:
        # a reference to an entity the parser could not expand, as
        # ElementTree refuses it: an external DTD may declare more
        # entities, so expat itself lets the reference through
        if markup.startswith("&"):
            ref = markup.encode("utf-8")[:100].decode("utf-8", "replace")
            raise MalformedXml(f"undefined entity {ref}: line {parser.CurrentLineNumber}, "
                               f"column {parser.CurrentColumnNumber}")

    parser = expat.ParserCreate(namespace_separator="}")
    parser.ordered_attributes = True
    parser.buffer_text = True
    parser.StartElementHandler = open_element
    parser.EndElementHandler = close_element
    parser.CharacterDataHandler = data.append
    parser.DefaultHandlerExpand = refuse_entity
    try:
        parser.Parse(xml_text, True)
    except expat.ExpatError as exc:
        raise MalformedXml(str(exc)) from None
    finally:
        # refuse_entity refers to the parser, which refers to it: left in
        # place, that cycle would keep the parser and all of the parse's
        # state, parts included, until the cyclic collector ran
        parser.DefaultHandlerExpand = None
    if namespaced:
        raise MalformedXml(f"namespaced name {namespaced[0]!r} is not supported")
    doc.spans = array("q", accumulate(map(len, parts), initial=0))
    doc.text = "".join(parts)
    doc.finish()
    return doc


# parsing turns a literal CR in text, and a literal tab, LF or CR in an
# attribute value, into other whitespace, so those go out as references
_TEXT_ESCAPES = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ("\r", "&#13;")]
_ATTR_ESCAPES = _TEXT_ESCAPES + [('"', "&quot;"), ("\t", "&#9;"), ("\n", "&#10;")]


def _escape(value: str, table) -> str:
    for raw, rep in table:
        value = value.replace(raw, rep)
    return value


def serialize_subtree(doc: Document, root_label: StructuralId) -> str:
    """Canonical XML text of the subtree rooted at ``root_label``.

    No XML declaration, attributes in document order, no added whitespace;
    childless elements serialize self-closed.  Only element nodes are
    addressable.  The text is a slice of the document's text.
    """
    node = doc.node_at(root_label)
    if node.kind != ELEMENT:
        raise UnknownNode(f"label {root_label} is not an element node")
    return doc.text[doc.spans[root_label.start - 1] : doc.spans[root_label.end]]


def serialize_document(doc: Document) -> str:
    """The document's text: the root resource's payload itself."""
    return doc.text


def serialize_node(doc: Document, label: StructuralId) -> str:
    """Like serialize_subtree, but attribute nodes render as a small element.

    Query results may return attribute nodes; ``<name>value</name>`` keeps
    their payloads well-formed XML.  Only attribute and text labels have
    ``start == end``, so an element's label is looked up once, by
    ``serialize_subtree``.
    """
    if label.start == label.end:
        node = doc.node_at(label)
        if node.kind == ATTRIBUTE:
            name = node.name[1:]
            return f"<{name}>{_escape(node.attr_value, _TEXT_ESCAPES)}</{name}>"
    return serialize_subtree(doc, label)


def extract_resources(doc: Document, granularity: set[str]) -> list[Resource]:
    """One resource for the root plus one per element named in ``granularity``.

    Resource ids are ``"<doc_id>#<start>"``; attribute and text nodes are
    never resources.  The root's payload is the document's text, and
    each other payload is a slice of it, equal to ``serialize_subtree`` of
    that element.
    """
    text, spans = doc.text, doc.spans
    resources = [_resource(doc.root.label, text)]
    if granularity:
        for node in islice(doc.nodes, 1, None):
            if node.name_or_value in granularity and node.kind == ELEMENT:
                label = node.label
                payload = text[spans[label.start - 1] : spans[label.end]]
                resources.append(_resource(label, payload))
    return resources
