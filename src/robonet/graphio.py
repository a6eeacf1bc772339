"""Graph file ingestion and export.

JSON is the canonical, lossless format:

    {"n": 3, "roots": [1], "edges": [[1, 2], [2, 3]]}

A small DOT subset is accepted as a convenience import: integer node
names, plain ``a -> b;`` edges, and a ``root=true`` node attribute
marking leaders.  Anything else (chains, subgraphs, edge attributes,
comments) is rejected with line/column information.

Both readers hold a file to :data:`~robonet.digraph.MAX_GENERATED_EDGES`
edges, counted before the edges are validated or built, and error
messages quote at most a short prefix of a malformed value.
"""
from __future__ import annotations

import json
import re
import reprlib

from . import digraph
from .digraph import Digraph, new_digraph
from .errors import GraphFormatError, GraphTooLargeError


# ---------------------------------------------------------------------------
# JSON


def graph_to_json_dict(g: Digraph) -> dict:
    if g.vertices != frozenset(range(1, g.n + 1)):
        raise GraphFormatError("only graphs on contiguous vertices 1..n are exportable")
    return {
        "n": g.n,
        "roots": list(g.roots),
        "edges": [[tail, head] for tail, head in g.sorted_edges],
    }


def dumps_json_graph(g: Digraph) -> str:
    return json.dumps(graph_to_json_dict(g), sort_keys=True, indent=2) + "\n"


def parse_json_graph(text: str, strip_self_loops: bool = False) -> Digraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise GraphFormatError("invalid JSON: values nested too deeply") from exc
    if not isinstance(payload, dict):
        raise GraphFormatError("top-level JSON value must be an object")
    missing = {"n", "roots", "edges"} - payload.keys()
    if missing:
        raise GraphFormatError(f"missing keys: {sorted(missing)}")
    n = payload["n"]
    roots = payload["roots"]
    edges = payload["edges"]
    if type(n) is not int:  # a JSON true or false is a bool, which isinstance takes for an int
        raise GraphFormatError('"n" must be an integer')
    if not isinstance(roots, list) or not all(type(r) is int for r in roots):
        raise GraphFormatError('"roots" must be a list of integers')
    if not isinstance(edges, list):
        raise GraphFormatError('"edges" must be a list of [tail, head] pairs')
    _check_edge_count(len(edges))
    for item in edges:
        pair = isinstance(item, list) and len(item) == 2
        if not (pair and type(item[0]) is int and type(item[1]) is int):
            raise GraphFormatError(
                f'"edges" entry {reprlib.repr(item)} is not a [tail, head] pair'
            )
    return new_digraph(n, roots, edges, strip_self_loops=strip_self_loops)


def _check_edge_count(count: int) -> None:
    limit = digraph.MAX_GENERATED_EDGES  # read per call, so tests can lower it
    if count > limit:
        raise GraphTooLargeError(f"edge count exceeds the limit of {limit}")


# ---------------------------------------------------------------------------
# DOT subset


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<int>\d+)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<arrow>->)
      | (?P<punct>[{}\[\];,=])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _DotScanner:
    def __init__(self, text: str) -> None:
        self.tokens: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        for match in _TOKEN.finditer(text):
            kind = match.lastgroup
            value = match.group()
            if kind == "bad":
                raise GraphFormatError(f"line {line} col {col}: unexpected character {value!r}")
            if kind != "ws":
                self.tokens.append((kind, value, line, col))
            newlines = value.count("\n")
            if newlines:
                line += newlines
                col = len(value) - value.rfind("\n")
            else:
                col += len(value)
        self.pos = 0

    def peek(self) -> tuple[str, str, int, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int, int]:
        tok = self.peek()
        if tok is None:
            raise GraphFormatError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, value: str) -> None:
        kind, got, line, col = self.next()
        if got != value:
            raise GraphFormatError(f"line {line} col {col}: expected {value!r}, got {got!r}")


def _parse_attrs(scanner: _DotScanner) -> dict[str, str]:
    scanner.expect("[")
    attrs: dict[str, str] = {}
    while True:
        kind, value, line, col = scanner.next()
        if value == "]":
            return attrs
        if kind not in ("name", "int"):
            raise GraphFormatError(f"line {line} col {col}: expected an attribute name")
        key = value
        scanner.expect("=")
        vkind, vvalue, vline, vcol = scanner.next()
        if vkind not in ("name", "int"):
            raise GraphFormatError(f"line {vline} col {vcol}: expected an attribute value")
        attrs[key] = vvalue
        nxt = scanner.peek()
        if nxt is not None and nxt[1] == ",":
            scanner.next()


def parse_dot_graph(text: str, strip_self_loops: bool = False) -> Digraph:
    scanner = _DotScanner(text)
    kind, value, line, col = scanner.next()
    if value != "digraph":
        raise GraphFormatError(f"line {line} col {col}: expected 'digraph'")
    nxt = scanner.peek()
    if nxt is not None and nxt[0] in ("name", "int") and nxt[1] != "{":
        scanner.next()  # optional graph name
    scanner.expect("{")

    roots: list[int] = []
    vertices: set[int] = set()
    edges: list[tuple[int, int]] = []
    while True:
        kind, value, line, col = scanner.next()
        if value == "}":
            break
        if kind != "int":
            raise GraphFormatError(
                f"line {line} col {col}: unsupported construct {value!r}; only integer "
                "node statements and single edges are accepted"
            )
        first = int(value)
        vertices.add(first)
        nxt = scanner.peek()
        if nxt is not None and nxt[1] == "->":
            scanner.next()
            hkind, hvalue, hline, hcol = scanner.next()
            if hkind != "int":
                raise GraphFormatError(f"line {hline} col {hcol}: expected an integer node")
            head = int(hvalue)
            vertices.add(head)
            edges.append((first, head))
            _check_edge_count(len(edges))
            nxt = scanner.peek()
            if nxt is not None and nxt[1] == "->":
                raise GraphFormatError(
                    f"line {nxt[2]} col {nxt[3]}: edge chains are not supported; "
                    "write one edge per statement"
                )
            if nxt is not None and nxt[1] == "[":
                raise GraphFormatError(
                    f"line {nxt[2]} col {nxt[3]}: edge attributes are not supported"
                )
        elif nxt is not None and nxt[1] == "[":
            attrs = _parse_attrs(scanner)
            unknown = set(attrs) - {"root"}
            if unknown:
                raise GraphFormatError(
                    f"line {line}: unsupported node attribute {sorted(unknown)[0]!r}"
                )
            if attrs.get("root", "false").lower() == "true":
                roots.append(first)
        nxt = scanner.peek()
        if nxt is not None and nxt[1] == ";":
            scanner.next()
    if scanner.peek() is not None:
        kind, value, line, col = scanner.peek()
        raise GraphFormatError(f"line {line} col {col}: trailing content {value!r}")
    if not vertices:
        raise GraphFormatError("the digraph is empty")
    return new_digraph(
        max(vertices), roots, edges, strip_self_loops=strip_self_loops
    )


def graph_to_dot(g: Digraph) -> str:
    if g.vertices != frozenset(range(1, g.n + 1)):
        raise GraphFormatError("only graphs on contiguous vertices 1..n are exportable")
    lines = ["digraph {"]
    for v in range(1, g.n + 1):
        lines.append(f"  {v} [root=true];" if v in g.root_set else f"  {v};")
    for tail, head in g.sorted_edges:
        lines.append(f"  {tail} -> {head};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# auto-detection


def parse_graph_text(text: str, strip_self_loops: bool = False) -> Digraph:
    """Parse either format, sniffing JSON by its leading brace."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json_graph(text, strip_self_loops)
    return parse_dot_graph(text, strip_self_loops)


def load_graph_file(path: str, strip_self_loops: bool = False) -> Digraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph_text(handle.read(), strip_self_loops)
