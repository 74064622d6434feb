"""Reliability block diagrams: tree model, text parser, JSON loader.

The text grammar is small:

    node  := IDENT "@" node | group | IDENT
    group := ("series" | "parallel") "(" node ("," node)+ ")"

An identifier on its own is a component; ``IDENT "@" node`` attaches a data
binding label to a node (used for subsystems with their own test data).
``#`` starts a comment running to end of line.  A JSON tree with the same
shape ({"type": ..., "id": ..., "label": ..., "children": [...]}) is
accepted interchangeably for machine-generated diagrams.  Either form may
nest groups at most ``MAX_DEPTH`` levels deep.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace

from .errors import RbdError, RbdSyntaxError

__all__ = [
    "RbdNode",
    "SystemSpec",
    "component",
    "series",
    "parallel",
    "parse_rbd",
    "rbd_from_json",
    "format_rbd",
    "load_system_source",
    "validate_bindings",
]

_KEYWORDS = ("series", "parallel")

# Deepest group nesting either grammar accepts; deeper input is rejected
# before it can exhaust the interpreter's recursion limit.
MAX_DEPTH = 100


@dataclass(frozen=True)
class RbdNode:
    """One node of a block diagram: a component or a series/parallel group.

    Components carry an ``id``; groups carry at least two ``children``.  Any
    node may carry a ``label`` naming it as a binding target for its own
    lifetime data or prior; a component's binding name defaults to its id.
    """

    kind: str
    id: str | None = None
    label: str | None = None
    children: tuple["RbdNode", ...] = ()

    def __post_init__(self):
        if self.kind not in ("component", "series", "parallel"):
            raise RbdError(f"unknown node kind {self.kind!r}")
        if self.kind == "component":
            if not self.id:
                raise RbdError("component nodes need an id")
            if self.children:
                raise RbdError("component nodes cannot have children")
        else:
            if self.id is not None:
                raise RbdError("group nodes cannot carry a component id")
            if len(self.children) < 2:
                raise RbdError(f"'{self.kind}' group needs at least 2 children")
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def binding_label(self) -> str | None:
        if self.label is not None:
            return self.label
        return self.id if self.kind == "component" else None

    def iter_nodes(self) -> Iterator["RbdNode"]:
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def iter_components(self) -> Iterator["RbdNode"]:
        return (n for n in self.iter_nodes() if n.kind == "component")


def component(name: str, label: str | None = None) -> RbdNode:
    return RbdNode("component", id=name, label=label)


def series(*children: RbdNode, label: str | None = None) -> RbdNode:
    return RbdNode("series", label=label, children=children)


def parallel(*children: RbdNode, label: str | None = None) -> RbdNode:
    return RbdNode("parallel", label=label, children=children)


def _validate_tree(root: RbdNode) -> dict[str, RbdNode]:
    """Check global uniqueness of component ids and binding labels."""
    ids: set[str] = set()
    labels: dict[str, RbdNode] = {}
    for node in root.iter_nodes():
        if node.kind == "component":
            if node.id in ids:
                raise RbdError(f"duplicate component id '{node.id}'")
            ids.add(node.id)
        name = node.binding_label
        if name is not None:
            if name in labels:
                raise RbdError(f"duplicate binding label '{name}'")
            labels[name] = node
    return labels


@dataclass(frozen=True)
class SystemSpec:
    """A validated diagram.

    ``labels`` maps every bindable label to its node; a node's dataset and
    prior are the ones stored under its binding label.
    """

    root: RbdNode
    labels: dict[str, RbdNode] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "labels", _validate_tree(self.root))


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "(", ")", ",", "@", "eof"
    text: str
    line: int
    col: int


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c in "_-."


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c.isspace():
            col += 1
            i += 1
        elif c == "#":
            while i < n and source[i] != "\n":
                i += 1
        elif c in "(),@":
            tokens.append(_Token(c, c, line, col))
            col += 1
            i += 1
        elif _is_ident_start(c):
            start = i
            start_col = col
            while i < n and _is_ident_char(source[i]):
                i += 1
                col += 1
            tokens.append(_Token("ident", source[start:i], line, start_col))
        else:
            raise RbdSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = "end of input" if tok.kind == "eof" else repr(tok.text)
            raise RbdSyntaxError(f"expected {what}, found {found}", tok.line, tok.col)
        return self.advance()

    def parse_node(self, depth: int = 0) -> RbdNode:
        tok = self.expect("ident", "component name or group keyword")
        if self.peek().kind != "@":
            return self.parse_unlabeled(tok, depth)
        if tok.text in _KEYWORDS:
            raise RbdSyntaxError(f"'{tok.text}' is reserved and cannot be a label", tok.line, tok.col)
        self.advance()
        inner = self.expect("ident", "component name or group keyword")
        if self.peek().kind == "@":
            raise RbdSyntaxError(f"node already labeled '{inner.text}'", tok.line, tok.col)
        return replace(self.parse_unlabeled(inner, depth), label=tok.text)

    def parse_unlabeled(self, tok: _Token, depth: int) -> RbdNode:
        name = tok.text
        if self.peek().kind == "(":
            if name not in _KEYWORDS:
                raise RbdSyntaxError(f"unknown keyword '{name}'", tok.line, tok.col)
            if depth >= MAX_DEPTH:
                raise RbdSyntaxError(
                    f"groups nest more than {MAX_DEPTH} levels deep", tok.line, tok.col
                )
            self.advance()
            children = [self.parse_node(depth + 1)]
            while self.peek().kind == ",":
                self.advance()
                children.append(self.parse_node(depth + 1))
            closing = self.expect(")", "',' or ')'")
            if len(children) < 2:
                raise RbdSyntaxError(
                    f"'{name}' group needs at least 2 children", closing.line, closing.col
                )
            return RbdNode(name, children=tuple(children))
        if name in _KEYWORDS:
            raise RbdSyntaxError(
                f"'{name}' is reserved and cannot be a component name", tok.line, tok.col
            )
        return RbdNode("component", id=name)


def parse_rbd(source: str) -> SystemSpec:
    """Parse block diagram source text into a validated ``SystemSpec``.

    Raises ``RbdSyntaxError`` with line/column on malformed text (including
    unbalanced parentheses and trailing input) and ``RbdError`` on duplicate
    ids or labels.
    """
    parser = _Parser(_tokenize(source))
    root = parser.parse_node()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise RbdSyntaxError(
            f"unexpected trailing input {trailing.text!r}", trailing.line, trailing.col
        )
    return SystemSpec(root)


def rbd_from_json(data) -> RbdNode:
    """Build a tree from the JSON object form of the grammar."""
    return _node_from_json(data, 0)


def _json_name(data: dict, key: str, what: str) -> str:
    """``data[key]`` checked against the identifier rule of the text grammar."""
    name = data.get(key)
    if not isinstance(name, str):
        raise RbdError(f"{what} must be a string, not {type(name).__name__}")
    if (
        not name
        or not _is_ident_start(name[0])
        or not all(map(_is_ident_char, name[1:]))
        or name in _KEYWORDS
    ):
        raise RbdError(f"{what} {name!r} is not a valid name")
    return name


def _node_from_json(data, depth: int) -> RbdNode:
    if not isinstance(data, dict):
        raise RbdError("JSON diagram nodes must be objects")
    kind = data.get("type")
    label = _json_name(data, "label", "node label") if data.get("label") is not None else None
    if kind == "component":
        node = RbdNode("component", id=_json_name(data, "id", "component id"), label=label)
    elif kind in _KEYWORDS:
        children = data.get("children")
        if not isinstance(children, list):
            raise RbdError(f"'{kind}' node needs a children array")
        if depth >= MAX_DEPTH:
            raise RbdError(f"groups nest more than {MAX_DEPTH} levels deep")
        children = tuple(_node_from_json(c, depth + 1) for c in children)
        node = RbdNode(kind, label=label, children=children)
    else:
        raise RbdError(f"unknown node type {kind!r}")
    return node


def format_rbd(node: RbdNode) -> str:
    """Canonical source text for a tree; parses back to an equal tree."""
    prefix = f"{node.label}@" if node.label is not None else ""
    if node.kind == "component":
        return f"{prefix}{node.id}"
    inner = ", ".join(format_rbd(c) for c in node.children)
    return f"{prefix}{node.kind}({inner})"


def load_system_source(source: str) -> SystemSpec:
    """Parse either grammar: JSON when the text starts with '{', else the DSL."""
    stripped = source.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise RbdSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
        except RecursionError:
            raise RbdSyntaxError("invalid JSON: nested too deeply") from None
        return SystemSpec(rbd_from_json(data))
    return parse_rbd(source)


def validate_bindings(
    spec: SystemSpec,
    dataset_names: Iterable[str],
    prior_names: Iterable[str] = (),
) -> list[str]:
    """Cross-check dataset and prior names against the diagram's labels.

    Returns one message per name that matches no node label, datasets first,
    each kind in sorted order.  An empty list means everything is consistent;
    components left without data or a prior are the fit's to report.
    """
    return [
        f"{kind} '{name}' does not match any node label"
        for kind, names in (("dataset", dataset_names), ("prior", prior_names))
        for name in sorted(set(names) - spec.labels.keys())
    ]
