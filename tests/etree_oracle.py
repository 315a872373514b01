"""The ElementTree parser that ``document.parse_document`` replaced, kept
as its oracle: parse into an ElementTree tree, label it in one walk, then
write the canonical text in a second walk over the labeled nodes.

``parse_document`` must build the same ``Document`` from the same text,
and refuse the same text with the same error type and message.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from array import array
from itertools import accumulate
from typing import Iterator

from twigstore.document import (
    ATTRIBUTE,
    ELEMENT,
    TEXT,
    Document,
    Node,
    StructuralId,
    _ATTR_ESCAPES,
    _TEXT_ESCAPES,
    _escape,
)
from twigstore.errors import EmptyInput, MalformedXml


def parse_with_etree(xml_text: str, doc_id: int) -> Document:
    if not xml_text.strip():
        raise EmptyInput("no XML content")
    try:
        root_elem = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from None

    doc = Document(doc_id)
    _label(root_elem, doc_id, doc.nodes, doc._children)
    doc.finish()
    out: list[str] = []
    write(doc, doc.root, out)
    doc.spans = array("q", accumulate(map(len, out), initial=0))
    doc.text = "".join(out)
    return doc


def _label(
    root: ET.Element, doc_id: int, nodes: list[Node], children: dict[int, list[Node]]
) -> None:
    """Label ``root``'s subtree from position 1 on: append its nodes to
    ``nodes`` in document order and record each element's children in
    ``children`` by its start.

    The open ancestors of the element being labeled live on an explicit
    stack, so any depth the parser accepts is labeled.
    """
    pos = 0
    # per open ancestor, outermost first: the element, its start, its slot
    # in nodes (filled once its end is known), its children so far and its
    # child elements not yet labeled
    stack: list[tuple[ET.Element, int, int, list[Node], Iterator[ET.Element]]] = []
    elem = root
    while True:
        depth = len(stack) + 1
        pos += 1
        start = pos
        slot = len(nodes)
        nodes.append(None)  # type: ignore[arg-type]
        kids: list[Node] = []
        for name, value in elem.attrib.items():
            pos += 1
            node = Node(ATTRIBUTE, "@" + _plain(name),
                        StructuralId(doc_id, pos, pos, depth + 1), value)
            nodes.append(node)
            kids.append(node)
        text = elem.text
        if text and text.strip():
            pos += 1
            node = Node(TEXT, text, StructuralId(doc_id, pos, pos, depth + 1))
            nodes.append(node)
            kids.append(node)
        rest = iter(elem)
        # close each element with no child left, innermost first
        while (child := next(rest, None)) is None:
            pos += 1
            node = nodes[slot] = Node(ELEMENT, _plain(elem.tag),
                                      StructuralId(doc_id, start, pos, depth))
            if kids:
                children[start] = kids
            if not stack:
                return
            text = elem.tail
            elem, start, slot, kids, rest = stack.pop()
            kids.append(node)
            if text and text.strip():
                pos += 1
                node = Node(TEXT, text, StructuralId(doc_id, pos, pos, depth))
                nodes.append(node)
                kids.append(node)
            depth -= 1
        stack.append((elem, start, slot, kids, rest))
        elem = child


def _plain(name: str) -> str:
    if name[0] == "{":
        raise MalformedXml(f"namespaced name {name!r} is not supported")
    return name


def write(doc: Document, node: Node, out: list[str]) -> None:
    """Append ``node``'s canonical text to ``out``, one part per label
    position in its interval: the start tag with its attributes at its
    start, an empty part at each attribute, each text node's escaped text
    at its own and the end tag at its end (empty when it self-closes).

    The open elements live on an explicit stack, so any depth is written.
    """
    inner = _open(doc, node, out)
    stack = [] if inner is None else [(node, iter(inner))]
    while stack:
        elem, rest = stack[-1]
        for kid in rest:
            if kid.kind == TEXT:
                out.append(_escape(kid.name_or_value, _TEXT_ESCAPES))
            elif (inner := _open(doc, kid, out)) is None:
                continue
            else:
                stack.append((kid, iter(inner)))
                break
        else:
            stack.pop()
            out.append("</" + elem.name_or_value + ">")


def _open(doc: Document, node: Node, out: list[str]) -> list[Node] | None:
    """Append ``node``'s start tag and an empty part per attribute; return
    its children after the attributes, or None when it self-closes (its
    end part is then appended, empty).

    A document's attribute nodes come before its other children.
    """
    kids = doc._children.get(node.label.start, ())
    n = 0
    tag = "<" + node.name_or_value
    for kid in kids:
        if kid.kind != ATTRIBUTE:
            break
        n += 1
        tag += f' {kid.name_or_value[1:]}="{_escape(kid.attr_value, _ATTR_ESCAPES)}"'
    if n == len(kids):
        out.append(tag + "/>")
        out += [""] * (n + 1)
        return None
    out.append(tag + ">")
    out += [""] * n
    return kids[n:]
