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
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, islice
from operator import attrgetter, itemgetter
from sys import intern
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
    """One-label rows ``(label,)`` in label order: a name's nodes as the
    structural-join kernel reads them.

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
    its query methods build on first use: the name, word and value postings
    of ``named``, ``with_word`` and ``in_range``, the one-label join rows of
    ``rows``, one ``Rows`` per name, and each such list's skip index, which
    the join kernel builds on its first skip over it.  The parse writes
    the canonical ``text`` and its offset table ``spans``, one ``array`` of
    character offsets by label position (see ``parse_document``), and every
    payload is a slice of that text.

    ``nodes`` is in document (start) order, with the root first.  What a
    node is indexed under beyond its name, its words and integer values,
    is decided in one place, ``terms``, which the p2p publication reads
    too.  The name postings are built in one pass over ``nodes``, the word
    and value postings together in another (``_postings``, on the first
    word or range lookup), each name's rows in one pass over its postings,
    and none of them is persisted, so parsing (every ingest and restore)
    pays for none of them.
    """

    __slots__ = (
        "doc_id", "root", "nodes", "_children", "_by_start", "_by_name",
        "_by_word", "_by_value", "_rows", "text", "spans",
    )

    def __init__(self, doc_id: int):
        self.doc_id = doc_id
        self.root: Node  # set by ``finish``
        self.nodes: list[Node] = []
        self._children: dict[int, list[Node]] = {}  # by start
        self._by_start: dict[int, Node] = {}
        self._by_name: dict[str | None, list[Node]] | None = None  # None: every name
        # name -> word -> the nodes whose text children hold the word
        self._by_word: dict[str, dict[str, tuple[Node, ...]]] | None = None
        # name -> (integer texts in ascending order, the node holding each)
        self._by_value: dict[str, tuple[list[int], list[Node]]] | None = None
        self._rows: dict[str | None, Rows] = {}  # None: every name
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

    def named(self, name: str | None) -> list[Node]:
        """The element and attribute nodes called ``name`` (any name for
        None), in document order."""
        if self._by_name is None:
            by_name: dict[str | None, list[Node]] = {}
            for node in self.nodes:
                if node.kind != TEXT:
                    by_name.setdefault(node.name, []).append(node)
            self._by_name = by_name
        if name is None and None not in self._by_name:
            self._by_name[None] = [node for node in self.nodes if node.kind != TEXT]
        return self._by_name.get(name, [])

    def rows(self, name: str | None) -> Rows:
        """``named(name)`` as the join kernel's one-label rows, in label
        order; built on the first call for ``name`` and kept."""
        rows = self._rows.get(name)
        if rows is None:
            rows = self._rows[name] = Rows((node.label,) for node in self.named(name))
        return rows

    def with_word(self, name: str | None, word: str) -> Sequence[Node]:
        """The nodes called ``name`` (any name for None) with ``word`` among
        their ``terms``, in document order."""
        if self._by_word is None:
            self._postings()
        if name is not None:
            return self._by_word.get(name, {}).get(word, ())
        runs = (by_word.get(word, ()) for by_word in self._by_word.values())
        return sorted(chain.from_iterable(runs), key=attrgetter("label"))

    def in_range(self, name: str | None, lo: int, hi: int) -> list[Node]:
        """The nodes called ``name`` (any name for None) with a value in
        ``[lo, hi]`` among their ``terms``, each once, in document order."""
        if self._by_value is None:
            self._postings()
        names = self._by_value if name is None else [name]
        hits: dict[StructuralId, Node] = {}
        for each in names:
            values, nodes = self._by_value.get(each, ((), ()))
            for node in nodes[bisect_left(values, lo) : bisect_right(values, hi)]:
                hits[node.label] = node
        return [hits[label] for label in sorted(hits)]

    def _postings(self) -> None:
        """Build the word and value postings together, in one pass over
        ``nodes`` reading each node's ``terms``."""
        by_word: dict[str, dict[str, list[Node]]] = {}
        pairs: dict[str, list[tuple[int, Node]]] = {}
        for node in self.nodes:
            words, values = self.terms(node)
            if words:
                postings = by_word.setdefault(node.name, {})
                for word in words:
                    # one string per distinct word, whichever names hold it
                    postings.setdefault(intern(word), []).append(node)
            if values:
                pairs.setdefault(node.name, []).extend((v, node) for v in values)
        self._by_word = {
            name: {word: tuple(nodes) for word, nodes in postings.items()}
            for name, postings in by_word.items()
        }
        self._by_value = {}
        for name, entries in pairs.items():
            entries.sort(key=itemgetter(0))  # stable: ties stay in document order
            self._by_value[name] = ([v for v, _ in entries], [n for _, n in entries])

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
