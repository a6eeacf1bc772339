"""Joint link+agent failure analysis: degrees, regions, and digraph classes.

A graph is joint (r, s)-controllable when it survives every simultaneous
removal of u <= r links and v <= s followers with u + v < r + s.  The
joint controllability degree is the largest t with joint (u, v)-
controllability for all u + v <= t; it always equals min(lc, ac), and it
also equals the agent controllability of the edge-duplicate transform
restricted to original-vertex targets.  Mixed witnesses come from that
transform too: one minimum-weight vertex cut in which a link costs a
little less than an agent.

The joint region (all (r, s) pairs) is computed exactly.  Instead of
enumerating edge subsets, each quantifier block "all u-edge-subsets after
deleting the follower set A" collapses to the single polynomial test
``lc(g - A) > u``, so only follower subsets are enumerated; a brute-force
oracle cross-checks the result cell for cell in the test suite.  No graph
is built per subset: one flow network of g is built per region, each
subset masks the arcs that touch it, and each surviving target's flow is
capped at the running minimum over the targets before it.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable

from .budget import DEFAULT_SUBSET_BUDGET
from .connectivity import (
    WitnessSet,
    _DeletionDegrees,
    _min_vertex_cut,
    _replay,
    agent_controllability,
    link_controllability,
    max_edge_disjoint,
    max_vertex_disjoint,
)
from .criticality import agent_controllability_index
from .digraph import (
    Digraph,
    Edge,
    EdgeDuplicate,
    edge_duplicate,
    removal_breaks_controllability,
)
from .errors import (
    ConditionUnmetError,
    InstanceTooLargeError,
    NotACriticalAgentSetError,
    NotAnOutCutError,
    RobonetError,
    UncontrollableError,
    UnknownEdgeError,
)


def joint_controllability(g: Digraph) -> int:
    """Largest t such that any mixed removal of fewer than t elements is survived.

    Equals ``min(lc, ac)``; zero when the graph is uncontrollable.
    """
    return min(link_controllability(g), agent_controllability(g))


def duplicate_agent_controllability(dup: EdgeDuplicate) -> int:
    """Agent controllability of an edge-duplicate, targeting white vertices.

    Black vertices stand for links of the source graph.  They may be cut
    (that is the point of the transform) but they are not reachability
    targets: a black vertex whose tail agent was removed corresponds to a
    link that disappeared with its endpoint, not to a stranded agent.
    Restricting targets to white followers makes the minimum cut equal to
    the source graph's joint controllability degree.

    The white-follower count caps the result for the same reason the
    plain agent degree is capped at ``|V| - |R|``: wiping out every
    follower counts as a break, and that breaking set has no per-target
    cut.  Both conventions are the same rule carried through the
    white/black correspondence.
    """
    g = dup.graph
    white_followers = sorted(v for v in dup.white_of.values() if v not in g.root_set)
    if not white_followers:
        return 0
    per_target = min(max_vertex_disjoint(g, v).value for v in white_followers)
    return min(per_target, len(white_followers))


def joint_controllability_via_duplicate(g: Digraph) -> int:
    """Joint degree computed through the edge-duplicate transform only."""
    return duplicate_agent_controllability(edge_duplicate(g))


# ---------------------------------------------------------------------------
# joint (r, s) membership and the region


def _maximal_patterns(r: int, s: int, edge_count: int, follower_count: int) -> list[tuple[int, int]]:
    """Pareto-maximal (u, v) removal patterns for a joint (r, s) test.

    The tested domain is u <= min(r, |E|), v <= min(s, F), u + v < r + s;
    smaller patterns are implied by removal monotonicity.
    """
    v_cap = min(s, follower_count)
    u_for = {}
    for v in range(v_cap + 1):
        u = min(r, edge_count, r + s - 1 - v)
        if u < 0:
            continue
        u_for[v] = u
    patterns = []
    for v in sorted(u_for):
        if v == max(u_for) or u_for[v] > u_for[v + 1]:
            patterns.append((u_for[v], v))
    return patterns


def is_joint_rs_controllable(
    g: Digraph,
    r: int,
    s: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
    _degrees: _DeletionDegrees | None = None,
) -> bool:
    """Exact joint (r, s)-controllability test.

    The (0, 0) pair (and by extension any r + s <= 1, where only the
    empty removal is quantified) is anchored to plain controllability so
    that an uncontrollable graph is never vacuously joint-controllable.
    Deleting the full follower set counts as a break, mirroring
    :func:`~robonet.digraph.removal_breaks_controllability`.  Callers
    testing several pairs of one graph pass one ``_degrees`` kernel, so
    its network and its memo of ``lc(g - A)`` are shared between them.
    """
    if r < 0 or s < 0:
        raise ValueError("r and s must be non-negative")
    followers = g.followers
    if r + s == 0 or not followers:
        return g.is_controllable()
    patterns = _maximal_patterns(r, s, len(g.edges), len(followers))
    candidates = sum(comb(len(followers), v) for _, v in patterns)
    if candidates > budget:
        raise InstanceTooLargeError(
            f"joint ({r},{s}) test needs {candidates} follower subsets, budget is {budget}"
        )
    degrees = _degrees if _degrees is not None else _DeletionDegrees(g)
    for u, v in patterns:
        if v == len(followers):
            return False  # deleting every follower breaks by convention
        for combo in combinations(followers, v):
            if degrees.lc_without(frozenset(combo)) <= u:
                return False
    return True


@dataclass(frozen=True)
class JointRegion:
    """All (r, s) pairs a graph is joint (r, s)-controllable for.

    Membership is confined to the box [0..lc] x [0..ac]; the frontier
    lists the maximal pairs.  ``exact_for_degree`` is true when the
    region is exactly the triangle r + s <= jc.
    """

    lc: int
    ac: int
    jc: int
    members: tuple[tuple[int, int], ...]
    frontier: tuple[tuple[int, int], ...]

    @property
    def exact_for_degree(self) -> bool:
        return all(r + s <= self.jc for r, s in self.members)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return tuple(pair) in set(self.members)


def joint_region(g: Digraph, budget: int = DEFAULT_SUBSET_BUDGET) -> JointRegion:
    """Enumerate the joint region over its bounding box.

    Non-membership propagates up and to the right (the region is downward
    closed), so cells dominated by a known non-member are skipped.  Cells
    are visited one anti-diagonal at a time, so an over-budget error names
    a cell on the lowest diagonal that exceeds the budget.
    """
    if not g.is_controllable():
        raise UncontrollableError("the joint region is defined for controllable graphs")
    lcv = link_controllability(g)
    acv = agent_controllability(g)
    degrees = _DeletionDegrees(g)
    members: dict[tuple[int, int], bool] = {}
    for diag in range(lcv + acv + 1):
        for r in range(max(0, diag - acv), min(lcv, diag) + 1):
            s = diag - r
            dominated = (r > 0 and not members[(r - 1, s)]) or (s > 0 and not members[(r, s - 1)])
            members[(r, s)] = not dominated and is_joint_rs_controllable(g, r, s, budget, degrees)
    inside = sorted(pair for pair, ok in members.items() if ok)
    member_set = set(inside)
    frontier = tuple(
        (r, s)
        for r, s in inside
        if (r + 1, s) not in member_set and (r, s + 1) not in member_set
    )
    return JointRegion(
        lc=lcv,
        ac=acv,
        jc=min(lcv, acv),
        members=tuple(inside),
        frontier=frontier,
    )


# ---------------------------------------------------------------------------
# mixed witnesses


def critical_agent_link_witness(g: Digraph) -> WitnessSet:
    """One minimal mixed breaking set of size jc(g), with as few agents as possible.

    A breaking set of links and agents is a vertex cut of the
    edge-duplicate graph that separates some white follower from the
    roots, with each link cut as its black vertex.  Black vertices cost
    ``K`` and white followers ``K + 1``, where ``K`` exceeds the follower
    count, so one minimum-weight cut per white target minimises the size
    first and the agent count second; agents are usually the costlier
    failures, so witnesses lean on links when possible.  Ties go to the
    smallest target, whose canonical residual cut is returned.  When that
    cut has more than ``|F|`` elements, the full follower set breaks with
    fewer and is returned instead, as in
    :func:`~robonet.connectivity.min_agent_cut_witness`.
    """
    if not g.followers or not g.is_controllable():
        raise UncontrollableError("degrees are zero; every element is already critical")
    dup = edge_duplicate(g)
    followers = frozenset(g.followers)
    black_cost = len(followers) + 1

    def cost(v: int) -> int:
        return black_cost + 1 if v in followers else black_cost

    cuts = {t: _min_vertex_cut(dup.graph, t, cost) for t in g.followers}
    best = min(cuts, key=lambda t: (cuts[t][0], t))
    cut = cuts[best][1]
    if len(cut) > len(followers):
        edges, vertices = frozenset(), followers
    else:
        vertices = cut & followers
        edges = frozenset(dup.edge_for_black(v) for v in cut - vertices)
    unreachable = _replay(g, edges, vertices)
    return WitnessSet(kind="mixed", edges=edges, vertices=vertices, unreachable=unreachable)


# ---------------------------------------------------------------------------
# cut/agent substitution routines


def agent_set_from_cut(g: Digraph, cut: Iterable[Edge]) -> frozenset[int]:
    """Turn an out-cut into an agent set that severs the same frontier.

    Scans the cut in lexicographic order and takes the tail of each edge
    when it is a follower, otherwise the head.  The input must be the
    out-cut of some root-containing vertex set; when it is a minimum cut
    of a digraph whose root out-edges all have unit agent controllability
    index, removing the produced agents breaks controllability.
    """
    cut_edges = frozenset((int(t), int(h)) for t, h in cut)
    unknown = cut_edges - g.edges
    if unknown:
        tail, head = min(unknown)
        raise UnknownEdgeError(f"edge {tail}->{head} is not in the graph")
    tails = {t for t, _ in cut_edges}
    heads = {h for _, h in cut_edges}
    closure = _forward_closure(g.remove_edges(cut_edges), set(g.roots) | tails)
    if closure & heads:
        raise NotAnOutCutError(
            "the edge set is not the out-cut of any root-containing vertex set"
        )
    agents: list[int] = []
    for tail, head in sorted(cut_edges):
        pick = tail if tail not in g.root_set else head
        if pick not in agents:
            agents.append(pick)
    return frozenset(agents)


def _forward_closure(g: Digraph, seed: set[int]) -> set[int]:
    seen = set(seed)
    stack = list(seed)
    while stack:
        v = stack.pop()
        for _, head in g.out_edges(v):
            if head not in seen:
                seen.add(head)
                stack.append(head)
    return seen


def agent_substitution_witness(g: Digraph) -> tuple[frozenset[Edge], frozenset[int]]:
    """A minimum edge cut whose substituted agent set breaks the graph.

    Not every minimum cut works: when the head picks of
    :func:`agent_set_from_cut` consume every vertex beyond the cut's
    source side, no stranded survivor is left.  Scanning the canonical
    per-follower cuts in ascending target order finds a cut whose agent
    set is full-sized and breaking; for graphs whose root out-edges all
    have unit agent controllability index no failing instance is known.
    Returns ``(cut_edges, agents)``.
    """
    if not g.followers or not g.is_controllable():
        raise UncontrollableError("degrees are zero; every element is already critical")
    degree = link_controllability(g)
    for target in g.followers:
        flow = max_edge_disjoint(g, target)
        if flow.value != degree:
            continue
        agents = agent_set_from_cut(g, flow.cut_edges)
        if len(agents) == len(flow.cut_edges) and removal_breaks_controllability(
            g, vertices=agents
        ):
            return flow.cut_edges, agents
    raise RobonetError("no canonical minimum cut yields a breaking substituted agent set")


def link_set_from_agent_set(g: Digraph, cq: Iterable[int]) -> frozenset[Edge]:
    """Turn a critical agent set into a link set with the same breaking power.

    For each agent, in ascending order, the first out-edge with unit
    agent controllability index is picked.  If some agent has no such
    out-edge the substitution cannot cover it and
    :class:`ConditionUnmetError` is raised rather than returning a short
    set.
    """
    agents = sorted({int(v) for v in cq})
    if not agents:
        raise NotACriticalAgentSetError("the agent set is empty")
    for v in agents:
        if v in g.root_set or v not in g.vertices:
            raise NotACriticalAgentSetError(f"vertex {v} is not a follower")
    if not g.is_controllable():
        raise UncontrollableError("the graph must be controllable")
    if len(agents) != agent_controllability(g):
        raise NotACriticalAgentSetError(
            f"expected a minimum breaking set of {agent_controllability(g)} agents"
        )
    if not removal_breaks_controllability(g, vertices=agents):
        raise NotACriticalAgentSetError("removing the set does not break controllability")
    picked: list[Edge] = []
    uncovered: list[int] = []
    for v in agents:
        choice = None
        for edge in g.out_edges(v):
            if agent_controllability_index(g, edge) == 1:
                choice = edge
                break
        if choice is None:
            uncovered.append(v)
        else:
            picked.append(choice)
    if uncovered:
        raise ConditionUnmetError(
            f"agents {uncovered} have no out-edge with unit agent controllability index"
        )
    return frozenset(picked)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    """Failure-sensitivity classes of a controllable digraph.

    ``agent_critical`` and ``link_critical`` are the certificate
    conditions: every root out-edge has unit agent controllability index,
    respectively some minimum breaking agent set has a unit-index
    out-edge per member.  ``jointly_critical`` is the semantic property
    the certificates imply: the joint region is exactly the triangle
    r + s <= jc, so the joint degree alone characterizes survivable
    failures.  Complete digraphs show the semantic class is strictly
    larger than the conjunction of the two certificates.  ``None`` marks
    an answer that was not decidable within the enumeration budget.
    """

    agent_critical: bool
    link_critical: bool | None
    jointly_critical: bool | None


def classify(g: Digraph, budget: int = DEFAULT_SUBSET_BUDGET) -> Classification:
    if not g.is_controllable():
        raise UncontrollableError("classification is defined for controllable graphs")
    root_out = g.out_cut(g.roots).sorted_members
    agent_critical = all(agent_controllability_index(g, e) == 1 for e in root_out)
    link_critical = _link_critical(g, budget)
    if agent_critical and link_critical:
        jointly: bool | None = True
    else:
        jointly = _region_is_exact(g, budget)
    return Classification(
        agent_critical=agent_critical,
        link_critical=link_critical,
        jointly_critical=jointly,
    )


def _link_critical(g: Digraph, budget: int) -> bool | None:
    """Does some minimum breaking agent set have a unit-index out-edge per member?"""
    followers = g.followers
    if not followers:
        return False
    q = agent_controllability(g)
    index_cache: dict[Edge, int] = {}

    def unit_index(edge: Edge) -> bool:
        if edge not in index_cache:
            index_cache[edge] = agent_controllability_index(g, edge)
        return index_cache[edge] == 1

    scanned = 0
    for combo in combinations(followers, q):
        scanned += 1
        if scanned > budget:
            return None  # existential not settled within budget
        if not removal_breaks_controllability(g, vertices=combo):
            continue
        if any(
            removal_breaks_controllability(g, vertices=combo[:i] + combo[i + 1 :])
            for i in range(len(combo))
        ):
            continue
        if all(any(unit_index(e) for e in g.out_edges(v)) for v in combo):
            return True
    return False


def _region_is_exact(g: Digraph, budget: int) -> bool | None:
    """Is the joint region exactly the triangle r + s <= jc?

    By downward closure it suffices to show no pair on the diagonal
    r + s = jc + 1 is joint-controllable; degree equality lc == ac is
    necessary first.
    """
    lcv = link_controllability(g)
    acv = agent_controllability(g)
    degree = min(lcv, acv)
    if lcv != acv:
        return False
    degrees = _DeletionDegrees(g)
    try:
        for r in range(max(0, degree + 1 - acv), min(lcv, degree + 1) + 1):
            s = degree + 1 - r
            if is_joint_rs_controllable(g, r, s, budget, degrees):
                return False
    except InstanceTooLargeError:
        return None
    return True


# ---------------------------------------------------------------------------
# edge-count and region bound checks


@dataclass(frozen=True)
class BoundCheck:
    """One edge-count or region inequality with its applicability flag.

    The edge-count inequalities are single-root facts (their derivation
    charges follower in-degrees against one leader), and the agent-degree
    bound further needs some follower without a direct root link; outside
    those hypotheses small counterexamples exist, so the rows are marked
    not applicable rather than failed.
    """

    name: str
    applicable: bool
    holds: bool | None
    detail: str


def check_bounds(
    g: Digraph,
    region: JointRegion | None = None,
    classification: Classification | None = None,
) -> list[BoundCheck]:
    n = g.n
    m = len(g.roots)
    e = len(g.edges)
    lcv = link_controllability(g)
    acv = agent_controllability(g)
    degree = min(lcv, acv)
    controllable = g.is_controllable()
    single_root = m == 1
    rows: list[BoundCheck] = []

    rows.append(
        BoundCheck(
            name="edge_count_vs_lc",
            applicable=single_root,
            holds=(e >= (n - 1) * lcv) if single_root else None,
            detail=f"|E|={e} >= (n-1)*lc={(n - 1) * lcv}",
        )
    )
    ac_applicable = single_root and controllable and acv < n - m
    rows.append(
        BoundCheck(
            name="edge_count_vs_ac",
            applicable=ac_applicable,
            holds=(e >= n + acv - 2) if ac_applicable else None,
            detail=f"|E|={e} >= n+ac-2={n + acv - 2}",
        )
    )
    jc_applicable = single_root and controllable
    rows.append(
        BoundCheck(
            name="edge_count_vs_jc",
            applicable=jc_applicable,
            holds=(e >= max((n - 1) * degree, n + degree - 2)) if jc_applicable else None,
            detail=f"|E|={e} >= max((n-1)*jc, n+jc-2)={max((n - 1) * degree, n + degree - 2)}",
        )
    )

    in_either_class = classification is not None and (
        classification.agent_critical or classification.link_critical is True
    )
    have_region = region is not None
    rows.append(
        BoundCheck(
            name="region_sum_vs_max_degree",
            applicable=in_either_class,
            holds=(
                all(r + s <= max(lcv, acv) for r, s in region.members)
                if in_either_class and have_region
                else None
            ),
            detail=f"every region pair satisfies r+s <= max(lc,ac)={max(lcv, acv)}"
            + ("" if have_region else " (region unavailable)"),
        )
    )
    agent_side = single_root and classification is not None and classification.agent_critical
    rows.append(
        BoundCheck(
            name="agent_critical_edge_bound",
            applicable=agent_side,
            holds=(
                all(e >= (n - 1) * (r + s) for r, s in region.members)
                if agent_side and have_region
                else None
            ),
            detail=f"|E|={e} >= (n-1)*(r+s) for every region pair"
            + ("" if have_region else " (region unavailable)"),
        )
    )
    link_side = single_root and classification is not None and classification.link_critical is True
    rows.append(
        BoundCheck(
            name="link_critical_edge_bound",
            applicable=link_side,
            holds=(
                all(e >= n + r + s - 2 for r, s in region.members)
                if link_side and have_region
                else None
            ),
            detail=f"|E|={e} >= n+(r+s)-2 for every region pair"
            + ("" if have_region else " (region unavailable)"),
        )
    )
    return rows
