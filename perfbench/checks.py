"""Checks of robonet's outputs that share no code with robonet.

Answers are checked against closed forms (the family degrees), against the
benchmark's own breadth-first search and subset search, and against
properties the method must have (region shape, witness replay, ranking
order).  Nothing is compared with a stored copy of an earlier output, and
witnesses are replayed rather than matched by identity, so a change of
tie-break still passes.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from itertools import combinations

from inputs import Graph, Op

SECTIONS = ("degrees", "indices", "classify", "region", "witnesses")


class CheckFailed(Exception):
    """An output contradicts a closed form, a brute-force answer or a required property."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reachability and brute force


def stranded(g: Graph, edges=frozenset(), vertices=frozenset()) -> list[int]:
    """Surviving followers that no root reaches once the given elements are removed."""
    alive = set(range(1, g.n + 1)) - set(vertices)
    succ: dict[int, list[int]] = {v: [] for v in alive}
    for tail, head in g.edges:
        if (tail, head) not in edges and tail in alive and head in alive:
            succ[tail].append(head)
    seen = set(g.roots)
    stack = list(g.roots)
    while stack:
        for head in succ[stack.pop()]:
            if head not in seen:
                seen.add(head)
                stack.append(head)
    return [v for v in g.followers if v in alive and v not in seen]


def breaks(g: Graph, edges=frozenset(), vertices=frozenset()) -> bool:
    """True when the removal strands a follower; removing every follower counts as a break."""
    if g.followers and set(vertices) >= set(g.followers):
        return True
    return bool(stranded(g, edges, vertices))


def brute_degree(g: Graph, kind: str) -> int:
    """Size of the smallest breaking link set (kind "link") or follower set ("agent")."""
    pool = g.edges if kind == "link" else g.followers
    for k in range(len(pool) + 1):
        for combo in combinations(pool, k):
            gone = frozenset(combo)
            if breaks(g, edges=gone) if kind == "link" else breaks(g, vertices=gone):
                return k
    return 0


def expected_degrees(g: Graph) -> tuple[int, int]:
    """(lc, ac): the closed form when the family has one, else subset search."""
    if g.lc is not None:
        return g.lc, g.ac
    return brute_degree(g, "link"), brute_degree(g, "agent")


# ---------------------------------------------------------------------------
# checks on one report


def check_degrees(degrees: dict, lc: int, ac: int) -> None:
    _require(degrees["lc"] == lc, f"lc is {degrees['lc']}, expected {lc}")
    _require(degrees["ac"] == ac, f"ac is {degrees['ac']}, expected {ac}")
    _require(degrees["jc"] == min(lc, ac), f"jc is {degrees['jc']}, expected min(lc, ac) = {min(lc, ac)}")


def _rank_key(agent: dict) -> tuple:
    return (
        -(agent["agent_criticality_index"] or 0),
        -(agent["link_criticality_index"] or 0),
        -(agent["critical_link_index"] or 0),
        -(agent["uncritical_link_index"] or 0),
        agent["vertex"],
    )


def check_indices(g: Graph, indices: dict, lc: int, controllable: bool) -> None:
    edges, agents, ranking = indices["edges"], indices["agents"], indices["ranking"]
    _require([tuple(r["edge"]) for r in edges] == sorted(g.edges), "edge records do not list every link once")
    _require([a["vertex"] for a in agents] == list(g.followers), "agent records do not list every follower once")
    if not controllable:
        _require(
            all(r["critical"] and r["agent_controllability_index"] is None
                and r["link_controllability_index"] is None for r in edges),
            "an uncontrollable graph must report every link critical with undefined indices",
        )
        _require(
            all(a["critical"] and a["agent_criticality_index"] is None for a in agents),
            "an uncontrollable graph must report every agent critical with undefined indices",
        )
        _require(ranking is None, "an uncontrollable graph has no ranking")
        return
    in_degree = Counter(head for _, head in g.edges)
    critical = {}
    for r in edges:
        edge = tuple(r["edge"])
        critical[edge] = r["critical"]
        if in_degree[edge[1]] == lc:
            _require(r["critical"], f"link {edge} enters a follower of in-degree lc={lc} but is not critical")
        _require(
            (r["link_controllability_index"] is None) == r["critical"],
            f"link {edge}: the link controllability index must be defined exactly for uncritical links",
        )
    for a in agents:
        out = [e for e in g.edges if e[0] == a["vertex"]]
        critical_out = sum(critical[e] for e in out)
        _require(
            a["critical_link_index"] == critical_out,
            f"agent {a['vertex']}: critical link index {a['critical_link_index']}, "
            f"but {critical_out} of its out-links are critical",
        )
        if critical_out == len(out):
            _require(a["uncritical_link_index"] == 0, f"agent {a['vertex']} has no uncritical out-link to remove")
    _require(ranking is not None and sorted(ranking) == list(g.followers), "ranking is not a permutation of the followers")
    _require(
        ranking == [a["vertex"] for a in sorted(agents, key=_rank_key)],
        "ranking does not follow the agent indices in their documented order",
    )


def triangle(degree: int) -> set[tuple[int, int]]:
    return {(r, s) for r in range(degree + 1) for s in range(degree + 1 - r)}


def check_region(g: Graph, region: dict, lc: int, ac: int) -> None:
    _require("error" not in region, f"region was not computed: {region.get('error')}")
    members = {tuple(p) for p in region["members"]}
    jc = min(lc, ac)
    _require(len(members) == len(region["members"]), "region lists a cell twice")
    _require((region["lc"], region["ac"], region["jc"]) == (lc, ac, jc), "region degrees differ from lc, ac, jc")
    for cell in sorted(triangle(jc)):
        _require(cell in members, f"region lacks the triangle cell {cell} of r + s <= jc = {jc}")
    for r, s in members:
        _require(0 <= r <= lc and 0 <= s <= ac, f"region cell {(r, s)} lies outside the box [0..{lc}]x[0..{ac}]")
        _require(r == 0 or (r - 1, s) in members, f"region is not downward closed below {(r, s)}")
        _require(s == 0 or (r, s - 1) in members, f"region is not downward closed below {(r, s)}")
    maximal = sorted(p for p in members if (p[0] + 1, p[1]) not in members and (p[0], p[1] + 1) not in members)
    _require(sorted(tuple(p) for p in region["frontier"]) == maximal, "frontier differs from the maximal region cells")
    _require(region["exact_for_degree"] == (members == triangle(jc)), "exact_for_degree contradicts the members")
    if g.complete:
        _require(members == triangle(jc), f"a complete graph's region must be exactly the triangle r + s <= {jc}")


def check_witness(g: Graph, kind: str, payload: dict | None, size: int) -> None:
    _require(payload is not None, f"{kind} witness is missing")
    edges = frozenset(tuple(e) for e in payload["edges"])
    vertices = frozenset(payload["vertices"])
    _require(edges <= set(g.edges), f"{kind} witness names a link not in the graph")
    _require(vertices <= set(g.followers), f"{kind} witness names a vertex that is not a follower")
    _require(kind != "link" or not vertices, "a link witness removes no agents")
    _require(kind != "agent" or not edges, "an agent witness removes no links")
    _require(len(edges) + len(vertices) == size, f"{kind} witness has {len(edges) + len(vertices)} elements, the degree is {size}")
    _require(breaks(g, edges, vertices), f"{kind} witness does not break controllability")
    _require(
        sorted(payload["unreachable"]) == stranded(g, edges, vertices),
        f"{kind} witness strands {stranded(g, edges, vertices)}, it lists {sorted(payload['unreachable'])}",
    )
    for e in sorted(edges):
        _require(not breaks(g, edges - {e}, vertices), f"{kind} witness is not minimal: putting back {e} does not restore")
    for v in sorted(vertices):
        _require(not breaks(g, edges, vertices - {v}), f"{kind} witness is not minimal: putting back {v} does not restore")


def check_report(g: Graph, doc: dict, sections: tuple[str, ...], lc: int, ac: int) -> None:
    """Check every requested section of one ``analyze`` report."""
    controllable = not stranded(g)
    _require(doc["controllable"] == controllable, f"controllable is {doc['controllable']}, the graph's is {controllable}")
    keys = {"classify": "classification"}
    for section in sections:
        _require(keys.get(section, section) in doc, f"report lacks the requested {section} section")
    if "degrees" in sections:
        check_degrees(doc["degrees"], lc, ac)
    if "indices" in sections:
        check_indices(g, doc["indices"], lc, controllable)
    if "classify" in sections and "region" in sections:
        failed = [row["name"] for row in doc["bounds"] if row["holds"] is False]
        _require(not failed, f"bound rows fail: {failed}")
    if not controllable:
        for section in ("classify", "region", "witnesses"):
            if section in sections:
                _require(doc[keys.get(section, section)] is None, f"{section} is defined for an uncontrollable graph")
        return
    if "region" in sections:
        check_region(g, doc["region"], lc, ac)
    if "classify" in sections:
        jointly = doc["classification"]["jointly_critical"]
        if g.complete:
            _require(jointly is True, "a complete graph must be jointly critical")
        if "region" in sections and jointly is not None:
            _require(jointly == doc["region"]["exact_for_degree"], "jointly_critical contradicts the region")
    if "witnesses" in sections:
        for kind, size in (("link", lc), ("agent", ac), ("mixed", min(lc, ac))):
            check_witness(g, kind, doc["witnesses"][kind], size)


def check_verify(g: Graph, text: str, lc: int, ac: int) -> None:
    """Check the fast and oracle columns of ``verify`` against the benchmark's own degrees."""
    rows = {}
    for line in text.splitlines()[1:]:
        match = re.fullmatch(r"(\S+)\s+(\d+)\s+(\d+)(\s+<- MISMATCH)?", line.strip())
        _require(match is not None, f"unreadable verify line {line!r}")
        rows[match[1]] = (int(match[2]), int(match[3]))
    jc = min(lc, ac)
    for name, value in (("lc", lc), ("ac", ac), ("jc", jc), ("jc(duplicate)", jc)):
        _require(rows.get(name) == (value, value), f"verify {name} row is {rows.get(name)}, expected {value} twice")
    if not stranded(g):
        _require("region" in rows and rows["region"][0] == rows["region"][1], "verify region sizes differ")


def requested_sections(op: Op) -> tuple[str, ...]:
    picked = tuple(s for s in SECTIONS if f"--{s}" in op.flags)
    return picked or SECTIONS


def check_op(op: Op, stdout: str, degrees: tuple[int, int]) -> None:
    lc, ac = degrees
    if op.command == "verify":
        check_verify(op.graph, stdout, lc, ac)
        return
    doc = json.loads(stdout) if "--json" in op.flags else parse_text_report(stdout)
    check_report(op.graph, doc, requested_sections(op), lc, ac)


# ---------------------------------------------------------------------------
# the text rendering, read back into the JSON report's shape

_WORDS = {"yes": True, "no": False, "undefined": None}


def _value(token: str):
    return _WORDS[token] if token in _WORDS else int(token)


def _pairs(text: str) -> list[list[int]]:
    return [[int(a), int(b)] for a, b in re.findall(r"\((\d+),(\d+)\)", text)]


def _ints(text: str) -> list[int]:
    return [] if text == "-" else [int(x) for x in text.split()]


def parse_text_report(text: str) -> dict:
    """Read ``analyze`` text output into the dictionary ``analyze --json`` prints."""
    doc: dict = {}
    section = None
    for line in text.splitlines():
        head, _, rest = line.strip().partition(": ")
        if line.startswith("controllable: "):
            doc["controllable"] = _value(rest)
        elif line.startswith("degrees: "):
            doc["degrees"] = {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", rest)}
        elif line.startswith("classification: "):
            found = dict(re.findall(r"(\w+)=(\w+)", rest))
            doc["classification"] = {k: _value(v) for k, v in found.items()} if found else None
        elif line in ("edges:", "agents:"):
            section = line[:-1]
            doc.setdefault("indices", {"edges": [], "agents": [], "ranking": None})
        elif line.startswith("ranking: "):
            doc["indices"]["ranking"] = None if rest == "undefined" else _ints(rest)
        elif line.startswith("region: "):
            section = "region"
            match = re.match(r"jc=(\d+) box=\[0\.\.(\d+)\]x\[0\.\.(\d+)\] exact_for_degree=(\w+)", rest)
            if match:
                doc["region"] = {"jc": int(match[1]), "lc": int(match[2]), "ac": int(match[3]),
                                 "exact_for_degree": _value(match[4])}
            else:
                doc["region"] = None if rest.startswith("undefined") else {"error": rest}
        elif line.startswith("witnesses:"):
            section = "witnesses"
            doc["witnesses"] = None if "undefined" in line else {}
        elif line == "bounds:":
            section = "bounds"
            doc["bounds"] = []
        elif line.startswith("budget: "):
            section = None
        elif section == "edges" and line.startswith("  ("):
            edge, *cells = line.split()
            doc["indices"]["edges"].append({
                "edge": _pairs(edge)[0],
                "critical": _value(cells[0]),
                "agent_controllability_index": _value(cells[1]),
                "link_controllability_index": _value(cells[2]),
            })
        elif section == "agents" and head.split()[0].isdigit():
            cells = [_value(c) for c in line.split()]
            names = ("vertex", "critical", "agent_criticality_index", "link_criticality_index",
                     "critical_link_index", "uncritical_link_index")
            doc["indices"]["agents"].append(dict(zip(names, cells)))
        elif section == "region" and head in ("members", "frontier"):
            doc["region"][head] = _pairs(rest)
        elif section == "witnesses":
            match = re.fullmatch(r"edges=(.*) vertices=(.*) strands=(.*)", rest)
            doc["witnesses"][head] = match and {
                "edges": _pairs(match[1]), "vertices": _ints(match[2]), "unreachable": _ints(match[3]),
            }
        elif section == "bounds":
            match = re.match(r"\s+\[(\w+|n/a )\] (\w+):", line)
            status = match[1]
            doc["bounds"].append({"name": match[2], "holds": {"pass": True, "FAIL": False}.get(status)})
    return doc
