"""Analysis report assembly and rendering.

One report dictionary feeds both the JSON and the text renderings, so the
two always carry identical numbers.  Undefined values (indices on an
uncontrollable graph, answers lost to the enumeration budget) are null in
JSON and the word "undefined" in text.  Reports contain nothing
run-dependent; repeated runs are byte-identical.
"""
from __future__ import annotations

import json

from .budget import DEFAULT_SUBSET_BUDGET
from .connectivity import WitnessSet, min_agent_cut_witness, min_link_cut_witness
from .criticality import AgentIndexRecord, agent_records, edge_records
from .digraph import Digraph
from .errors import GraphFormatError, InstanceTooLargeError, UncontrollableError
from .graphio import graph_to_json_dict
from .joint import (
    Classification,
    JointRegion,
    check_bounds,
    classify,
    critical_agent_link_witness,
    joint_region,
)

SECTIONS = ("degrees", "indices", "classify", "region", "witnesses")


def _graph_summary(g: Digraph) -> dict:
    try:
        return graph_to_json_dict(g)
    except GraphFormatError:
        # sub-digraphs left by vertex removal have holes in the id range
        return {
            "n": g.n,
            "vertices": sorted(g.vertices),
            "roots": list(g.roots),
            "edges": [[tail, head] for tail, head in g.sorted_edges],
        }


def build_report(
    g: Digraph,
    sections: tuple[str, ...] | None = None,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> dict:
    """Assemble the selected report sections (all of them by default).

    Every section and the bound checks read ``lc`` and ``ac`` from the
    pair of kernels that ``g`` carries, and the classification reads the
    region computed before it.
    """
    wanted = tuple(sections) if sections else SECTIONS
    unknown = set(wanted) - set(SECTIONS)
    if unknown:
        raise ValueError(f"unknown report section {sorted(unknown)[0]!r}")
    controllable = g.is_controllable()
    exhausted: list[str] = []
    doc: dict = {
        "schema": "robonet-report/1",
        "graph": _graph_summary(g),
        "controllable": controllable,
    }

    if "degrees" in wanted:
        lcv, acv = (kernel.base for kernel in g._kernels)
        doc["degrees"] = {"lc": lcv, "ac": acv, "jc": min(lcv, acv)}

    if "indices" in wanted:
        edges = edge_records(g)
        agents = agent_records(g, {r.edge for r in edges if not r.critical})
        doc["indices"] = {
            "edges": [
                {
                    "edge": list(r.edge),
                    "critical": r.critical,
                    "agent_controllability_index": r.agent_controllability_index,
                    "link_controllability_index": r.link_controllability_index,
                }
                for r in edges
            ],
            "agents": [
                {
                    "vertex": r.vertex,
                    "critical": r.critical,
                    "agent_criticality_index": r.agent_criticality_index,
                    "link_criticality_index": r.link_criticality_index,
                    "critical_link_index": r.critical_link_index,
                    "uncritical_link_index": r.uncritical_link_index,
                }
                for r in agents
            ],
            "ranking": (
                [r.vertex for r in sorted(agents, key=AgentIndexRecord.sort_key)]
                if controllable
                else None
            ),
        }

    region: JointRegion | None = None
    if "region" in wanted:
        if not controllable:
            doc["region"] = None
        else:
            try:
                region = joint_region(g, budget=budget)
                doc["region"] = {
                    "lc": region.lc,
                    "ac": region.ac,
                    "jc": region.jc,
                    "members": [list(p) for p in region.members],
                    "frontier": [list(p) for p in region.frontier],
                    "exact_for_degree": region.exact_for_degree,
                }
            except InstanceTooLargeError as exc:
                exhausted.append("region")
                doc["region"] = {"error": str(exc)}

    classification: Classification | None = None
    if "classify" in wanted:
        if controllable:
            classification = classify(g, budget=budget, _region=region)
            doc["classification"] = {
                "agent_critical": classification.agent_critical,
                "link_critical": classification.link_critical,
                "jointly_critical": classification.jointly_critical,
            }
        else:
            doc["classification"] = None

    if "witnesses" in wanted:
        doc["witnesses"] = _witness_section(g)

    if "classify" in wanted and "region" in wanted:
        doc["bounds"] = [
            {
                "name": row.name,
                "applicable": row.applicable,
                "holds": row.holds,
                "detail": row.detail,
            }
            for row in check_bounds(g, region=region, classification=classification)
        ]

    doc["budget"] = {"limit": budget, "exhausted_sections": sorted(exhausted)}
    return doc


def _witness_payload(w: WitnessSet) -> dict:
    return {
        "edges": [list(e) for e in sorted(w.edges)],
        "vertices": sorted(w.vertices),
        "unreachable": list(w.unreachable),
    }


def _witness_section(g: Digraph) -> dict | None:
    try:
        link = min_link_cut_witness(g)
        agent = min_agent_cut_witness(g)
    except UncontrollableError:
        return None
    return {
        "link": _witness_payload(link),
        "agent": _witness_payload(agent),
        "mixed": _witness_payload(critical_agent_link_witness(g)),
    }


# ---------------------------------------------------------------------------
# rendering


def _show(value) -> str:
    if value is None:
        return "undefined"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return str(value)


def _pair_list(pairs) -> str:
    return " ".join(f"({r},{s})" for r, s in pairs)


def render_text(doc: dict) -> str:
    lines: list[str] = []
    graph = doc["graph"]
    lines.append("robonet analysis")
    lines.append(
        f"graph: n={graph['n']} roots={graph['roots']} edges={len(graph['edges'])}"
    )
    lines.append(f"controllable: {_show(doc['controllable'])}")

    if "degrees" in doc:
        d = doc["degrees"]
        lines.append(f"degrees: lc={d['lc']} ac={d['ac']} jc={d['jc']}")

    if "classification" in doc:
        c = doc["classification"]
        if c is None:
            lines.append("classification: undefined (graph is uncontrollable)")
        else:
            lines.append(
                "classification:"
                f" agent_critical={_show(c['agent_critical'])}"
                f" link_critical={_show(c['link_critical'])}"
                f" jointly_critical={_show(c['jointly_critical'])}"
            )

    if "indices" in doc:
        idx = doc["indices"]
        lines.append("edges:")
        lines.append("  edge      critical  agent_ctrl_idx  link_ctrl_idx")
        for r in idx["edges"]:
            tail, head = r["edge"]
            lines.append(
                f"  ({tail},{head})".ljust(12)
                + _show(r["critical"]).ljust(10)
                + _show(r["agent_controllability_index"]).ljust(16)
                + _show(r["link_controllability_index"])
            )
        lines.append("agents:")
        lines.append(
            "  vertex  critical  agent_crit_idx  link_crit_idx  crit_links  uncrit_links"
        )
        for r in idx["agents"]:
            lines.append(
                f"  {r['vertex']}".ljust(8)
                + _show(r["critical"]).ljust(10)
                + _show(r["agent_criticality_index"]).ljust(16)
                + _show(r["link_criticality_index"]).ljust(15)
                + _show(r["critical_link_index"]).ljust(12)
                + _show(r["uncritical_link_index"])
            )
        ranking = idx["ranking"]
        if ranking is None:
            lines.append("ranking: undefined")
        else:
            lines.append("ranking: " + (" ".join(str(v) for v in ranking) or "-"))

    if "region" in doc:
        region = doc["region"]
        if region is None:
            lines.append("region: undefined (graph is uncontrollable)")
        elif "error" in region:
            lines.append(f"region: over budget ({region['error']})")
        else:
            lines.append(
                f"region: jc={region['jc']} box=[0..{region['lc']}]x[0..{region['ac']}]"
                f" exact_for_degree={_show(region['exact_for_degree'])}"
            )
            lines.append("  members: " + _pair_list(region["members"]))
            lines.append("  frontier: " + _pair_list(region["frontier"]))

    if "witnesses" in doc:
        wit = doc["witnesses"]
        if wit is None:
            lines.append("witnesses: undefined (no controllable baseline with followers)")
        else:
            lines.append("witnesses:")
            for kind in ("link", "agent", "mixed"):
                payload = wit[kind]
                edges = _pair_list(payload["edges"]) or "-"
                vertices = (
                    " ".join(str(v) for v in payload["vertices"]) or "-"
                )
                stranded = (
                    " ".join(str(v) for v in payload["unreachable"]) or "-"
                )
                lines.append(
                    f"  {kind}: edges={edges} vertices={vertices} strands={stranded}"
                )

    if "bounds" in doc:
        lines.append("bounds:")
        for row in doc["bounds"]:
            if not row["applicable"]:
                status = "skip"
            elif row["holds"] is None:
                status = "n/a "
            else:
                status = "pass" if row["holds"] else "FAIL"
            lines.append(f"  [{status}] {row['name']}: {row['detail']}")

    budget = doc["budget"]
    exhausted = ",".join(budget["exhausted_sections"]) or "-"
    lines.append(f"budget: limit={budget['limit']} exhausted={exhausted}")
    return "\n".join(lines) + "\n"


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
