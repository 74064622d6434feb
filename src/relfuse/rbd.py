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
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

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


# The text form's scanner: a newline, other blanks, a comment, a mark, a word
# or any other character.  ``\s`` and ``\w`` match ``str.isspace`` and ``str.isalnum`` or ``_``.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<blank>[^\S\n]+)|(?P<comment>#.*)|(?P<mark>[(),@])|(?P<word>[\w.-]+)|(?P<other>.)"
)


def _is_name(text: str) -> bool:
    """Whether ``text`` is one word of ``_TOKEN`` that starts with a letter or ``_`` (``re`` has no letter class)."""
    match = _TOKEN.fullmatch(text)
    return match is not None and match.lastgroup == "word" and (text[0].isalpha() or text[0] == "_")


def _tokenize(source: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` of each name and mark, then of the end of ``source``.

    Scanning all of it first reports a bad character ahead of any parse error.
    """
    tokens, line, line_start = [], 1, 0
    for match in _TOKEN.finditer(source):
        kind, text, col = match.lastgroup, match.group(), match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "mark" or kind == "word" and _is_name(text):
            tokens.append(("name" if kind == "word" else text, text, line, col))
        elif kind in ("word", "other"):
            raise RbdSyntaxError(f"unexpected character {text[0]!r}", line, col)
    tokens.append(("eof", "", line, len(source) - line_start + 1))
    return tokens


def parse_rbd(source: str) -> SystemSpec:
    """Parse block diagram source text into a validated ``SystemSpec``.

    Raises ``RbdSyntaxError`` with line/column on malformed text (including
    unbalanced parentheses and trailing input) and ``RbdError`` on duplicate
    ids or labels.
    """
    tokens, pos = _tokenize(source), 0

    def take(kind: str = "name", what: str = "component name or group keyword") -> tuple[str, int, int]:
        nonlocal pos
        found, text, line, col = tokens[pos]
        if found != kind:
            found = "end of input" if found == "eof" else repr(text)
            raise RbdSyntaxError(f"expected {what}, found {found}", line, col)
        pos += 1
        return text, line, col

    def node(depth: int, label: str | None = None, label_at: tuple[int, ...] = ()) -> RbdNode:
        nonlocal pos
        name, line, col = take()
        if tokens[pos][0] == "@":
            if label is not None:
                raise RbdSyntaxError(f"node already labeled '{name}'", *label_at)
            if name in _KEYWORDS:
                raise RbdSyntaxError(f"'{name}' is reserved and cannot be a label", line, col)
            pos += 1
            return node(depth, name, (line, col))
        if tokens[pos][0] != "(":
            if name in _KEYWORDS:
                raise RbdSyntaxError(f"'{name}' is reserved and cannot be a component name", line, col)
            return RbdNode("component", id=name, label=label)
        if name not in _KEYWORDS:
            raise RbdSyntaxError(f"unknown keyword '{name}'", line, col)
        if depth >= MAX_DEPTH:
            raise RbdSyntaxError(f"groups nest more than {MAX_DEPTH} levels deep", line, col)
        children = []
        while not children or tokens[pos][0] == ",":  # "(" before the first child, "," before each other
            pos += 1
            children.append(node(depth + 1))
        _, line, col = take(")", "',' or ')'")
        if len(children) < 2:
            raise RbdSyntaxError(f"'{name}' group needs at least 2 children", line, col)
        return RbdNode(name, label=label, children=children)

    root = node(0)
    kind, text, line, col = tokens[pos]
    if kind != "eof":
        raise RbdSyntaxError(f"unexpected trailing input {text!r}", line, col)
    return SystemSpec(root)


def rbd_from_json(data) -> RbdNode:
    """Build a tree from the JSON object form of the grammar."""
    return _node_from_json(data, 0)


def _json_name(data: dict, key: str, what: str) -> str:
    """``data[key]`` checked against the identifier rule of the text grammar."""
    name = data.get(key)
    if not isinstance(name, str):
        raise RbdError(f"{what} must be a string, not {type(name).__name__}")
    if not _is_name(name) or name in _KEYWORDS:
        raise RbdError(f"{what} {name!r} is not a valid name")
    return name


def _node_from_json(data, depth: int) -> RbdNode:
    if not isinstance(data, dict):
        raise RbdError("JSON diagram nodes must be objects")
    kind = data.get("type")
    label = _json_name(data, "label", "node label") if data.get("label") is not None else None
    if kind == "component":
        return RbdNode("component", id=_json_name(data, "id", "component id"), label=label)
    if kind not in _KEYWORDS:
        raise RbdError(f"unknown node type {kind!r}")
    children = data.get("children")
    if not isinstance(children, list):
        raise RbdError(f"'{kind}' node needs a children array")
    if depth >= MAX_DEPTH:
        raise RbdError(f"groups nest more than {MAX_DEPTH} levels deep")
    return RbdNode(kind, label=label, children=[_node_from_json(c, depth + 1) for c in children])


def format_rbd(node: RbdNode) -> str:
    """Canonical source text for a tree; parses back to an equal tree."""
    prefix = f"{node.label}@" if node.label is not None else ""
    if node.kind == "component":
        return f"{prefix}{node.id}"
    inner = ", ".join(format_rbd(c) for c in node.children)
    return f"{prefix}{node.kind}({inner})"


def load_system_source(source: str) -> SystemSpec:
    """Parse either grammar: JSON when the text starts with '{', else the DSL.

    ``source`` is text, so a byte-order mark is the file reader's to drop (``dataio.read_text``).
    """
    body = source.lstrip()
    if body.startswith("{"):
        # json.loads skips only four kinds of blank; spaces in their place keep every position.
        lead = re.sub(r"[^\n]", " ", source[: len(source) - len(body)])
        try:
            data = json.loads(lead + body)
        except json.JSONDecodeError as exc:
            raise RbdSyntaxError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
        except ValueError as exc:  # an integer past Python's digit limit
            raise RbdSyntaxError(f"invalid JSON: {exc}") from None
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
