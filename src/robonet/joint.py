"""Joint link+agent failure analysis: degrees, regions, and digraph classes.

A graph is joint (r, s)-controllable when it survives every simultaneous
removal of u <= r links and v <= s followers with u + v < r + s.  The
joint controllability degree is the largest t with joint (u, v)-
controllability for all u + v <= t; it always equals min(lc, ac), and it
also equals the cheapest mixed cut of links and followers when each costs
one.  That cut is the agent cut of the edge-duplicate transform (each link
split through a vertex of its own), priced on the node-split flow network
of the graph itself, so the duplicate graph is never built.  A mixed
witness is the cheapest cut of one such network in which a link costs a
little less than an agent.  When ``lc <= ac`` that cut is the link
witness, so only a graph with ``ac < lc`` reads the network.

The joint region (all (r, s) pairs) is computed exactly.  Every pair with
r + s <= jc is a member by the definition of the joint degree, so only the
pairs above that triangle are tested.  Instead of enumerating edge
subsets, each quantifier block "all u-edge-subsets after deleting the
follower set A" collapses to the single polynomial test ``lc(g - A) > u``,
so only follower subsets are enumerated; a brute-force oracle
cross-checks the result cell for cell in the test suite.  No graph is
built per subset: each subset masks the elements it deletes on the
``lc`` kernel that g carries (:attr:`Digraph._kernels
<robonet.digraph.Digraph._kernels>`).  A test asks only whether
``lc(g - A) <= u``, so it stops at the first follower that answers yes;
under ``lc(g)`` only the surviving out-neighbours of A can answer yes, so
only they are tried.  Each follower's answer is first read off the bounds
its surviving in-edges in g give on its cut (on a complete graph they
meet, and the whole region runs no flow).  A test with ``u = 0`` walks
g - A once before its first flow: a stranded follower answers yes, and
otherwise every cut holds a link, which answers no.  A flow, capped at
``u + 1``, runs only where these leave the answer open, and the flow
network of g is built at the first such flow.  The classification, the
bound checks, the joint degree and the substitution routines read that
kernel and g's second one, for ``ac``, and so does the mixed witness:
it is the ``lc`` kernel's witness when ``lc <= ac``, and otherwise the
witness of its own network, which is built only then.  A report tests
each pair once: its classification reads off its region whether that is
the triangle.  The region, and a classification without one, test each
(u, v) removal pattern once per call: neighbouring pairs share patterns.
Every "agent controllability index is 1" test is the index's own exact
read, which masks one edge and runs at most one flow, to its head.

The subset budget bounds the follower subsets of each tested pair, so it
applies to the pairs above the triangle only; a region over budget names
the first tested pair that needs more subsets than the budget allows.
:func:`is_joint_rs_controllable` itself tests any pair, triangle or not,
by enumeration.  The link-critical class enumerates nothing: it is one
read of cheapest cuts on the ``ac`` kernel, so no budget bounds it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations
from math import comb
from typing import Callable, Iterable

from .budget import DEFAULT_SUBSET_BUDGET
from .connectivity import WitnessSet, _DeletionDegrees
from .criticality import _unit_drop
from .digraph import Digraph, Edge
from .errors import (
    ConditionUnmetError,
    InstanceTooLargeError,
    NotACriticalAgentSetError,
    NotAnOutCutError,
    RobonetError,
    UncontrollableError,
)


def joint_controllability(g: Digraph) -> int:
    """Largest t such that any mixed removal of fewer than t elements is survived.

    Equals ``min(lc, ac)``, read on the graph's kernels; zero when the
    graph is uncontrollable.
    """
    link, agent = g._kernels
    return min(link.base, agent.base)


def joint_controllability_via_duplicate(g: Digraph) -> int:
    """Joint degree as the cheapest mixed cut, with links and followers costing one each.

    This is the agent controllability of the edge-duplicate transform
    with the original followers as the only targets: a link is cut where
    the transform would put its black vertex, and a link that dies with
    its tail agent strands no one.  The follower count caps the result
    for the same reason the plain agent degree is capped at ``|V| - |R|``:
    wiping out every follower counts as a break, and that breaking set
    has no per-target cut.
    """
    return _DeletionDegrees(g, 1, 1).base


# ---------------------------------------------------------------------------
# joint (r, s) membership and the region


def _maximal_patterns(r: int, s: int, edge_count: int, follower_count: int) -> list[tuple[int, int]]:
    """Pareto-maximal (u, v) removal patterns for a joint (r, s) test.

    The tested domain is u <= min(r, |E|), v <= min(s, F), u + v < r + s;
    smaller patterns are implied by removal monotonicity.
    """
    u_for = [min(r, edge_count, r + s - 1 - v) for v in range(min(s, follower_count, r + s - 1) + 1)]
    return [(u, v) for v, u in enumerate(u_for) if v + 1 == len(u_for) or u > u_for[v + 1]]


def is_joint_rs_controllable(
    g: Digraph,
    r: int,
    s: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> bool:
    """Exact joint (r, s)-controllability test.

    The (0, 0) pair (and by extension any r + s <= 1, where only the
    empty removal is quantified) is anchored to plain controllability so
    that an uncontrollable graph is never vacuously joint-controllable.
    Deleting the full follower set counts as a break, mirroring
    :func:`~robonet.digraph.removal_breaks_controllability`: the kernel
    reads ``lc`` as 0 once no follower is left, with no flow.  Every
    follower subset is a bounded read on the graph's ``lc`` kernel, so
    its network serves every pair tested.
    """
    if r < 0 or s < 0:
        raise ValueError("r and s must be non-negative")
    return _rs_controllable(g, r, s, budget, {})


def _rs_controllable(
    g: Digraph, r: int, s: int, budget: int, broken: dict[tuple[int, int], bool]
) -> bool:
    """:func:`is_joint_rs_controllable`, keeping in ``broken`` whether each (u, v) pattern breaks g.

    A pattern breaks g when ``lc(g - A) <= u`` for some v followers A.  A
    caller testing several pairs passes one dict, since neighbouring
    pairs share patterns: (r, s - 1) belongs to (r, s) and (r + 1, s - 1).
    """
    followers = g.followers
    if r + s == 0 or not followers:
        return g.is_controllable()
    patterns = _maximal_patterns(r, s, len(g.edges), len(followers))
    candidates = sum(comb(len(followers), v) for _, v in patterns)
    if candidates > budget:
        raise InstanceTooLargeError(
            f"joint ({r},{s}) test needs {candidates} follower subsets, budget is {budget}"
        )
    degrees = g._kernels[0]
    for u, v in patterns:
        if (u, v) not in broken:
            broken[u, v] = any(degrees.at_most(u, frozenset(combo)) for combo in combinations(followers, v))
        if broken[u, v]:
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
    """The joint region over its bounding box [0..lc] x [0..ac].

    Every cell with r + s <= jc is a member without a test: such a cell
    quantifies only over removals of fewer than jc elements, and the
    joint degree jc = min(lc, ac) is survived by all of them.  The cells
    on the diagonals above are enumerated one anti-diagonal at a time.
    Non-membership propagates up and to the right (the region is
    downward closed), so cells dominated by a known non-member are
    skipped.  The budget bounds each enumerated cell on its own, so an
    over-budget error names the first enumerated cell whose test
    exceeds it; the triangle never needs the budget.
    """
    if not g.is_controllable():
        raise UncontrollableError("the joint region is defined for controllable graphs")
    link, agent = g._kernels
    lcv = link.base
    acv = agent.base
    degree = min(lcv, acv)
    members: dict[tuple[int, int], bool] = {}
    broken: dict[tuple[int, int], bool] = {}
    for diag in range(lcv + acv + 1):
        for r in range(max(0, diag - acv), min(lcv, diag) + 1):
            s = diag - r
            if diag <= degree:
                members[(r, s)] = True
                continue
            dominated = (r > 0 and not members[(r - 1, s)]) or (s > 0 and not members[(r, s - 1)])
            members[(r, s)] = not dominated and _rs_controllable(g, r, s, budget, broken)
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
        jc=degree,
        members=tuple(inside),
        frontier=frontier,
    )


# ---------------------------------------------------------------------------
# mixed witnesses


def critical_agent_link_witness(g: Digraph) -> WitnessSet:
    """One minimal mixed breaking set of size jc(g), with as few agents as possible.

    A breaking set of links and agents is a mixed cut that separates some
    follower from the roots.  Links cost ``K`` and followers ``K + 1``,
    where ``K`` exceeds the follower count, so the cheapest cut of one
    network minimises the size first and the agent count second; agents
    are usually the costlier failures, so witnesses lean on links when
    possible.  Ties go to the smallest target, whose canonical residual
    cut is returned.  A cut of more than ``|F|`` elements costs more than
    the full follower set, which breaks with fewer and is returned
    instead, as in :func:`~robonet.connectivity.min_agent_cut_witness`.

    Every cut holds at least ``jc`` elements.  When ``lc <= ac``, so
    ``jc = lc``, a cut of ``l`` links and ``a >= 1`` agents costs
    ``K(l + a) + a > K * jc``, while a cut of ``lc`` links costs
    ``K * jc``: the cheapest cut is the smallest tight follower's
    canonical link cut, the link witness of
    :func:`~robonet.connectivity.min_link_cut_witness`, and it is read,
    and replayed once, on the graph's ``lc`` kernel.  Otherwise
    ``ac < lc``, and the network is read from the floor of one link,
    ``K``.  The floor ``K * ac`` that ``ac`` proves would stop no read:
    a cut of ``l`` links and ``a >= 1`` agents costs ``K(l + a) + a >
    K * ac``, and one of links alone holds ``lc > ac`` of them.
    """
    if not g.followers or not g.is_controllable():
        raise UncontrollableError("degrees are zero; every element is already critical")
    kernel, agent = g._kernels
    if kernel.base > agent.base:
        link_cost = len(g.followers) + 1
        kernel = _DeletionDegrees(g, link_cost, link_cost + 1)
    return WitnessSet("mixed", *kernel._witness)


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
    cut_edges = g._checked_edges(cut)
    tails = {t for t, _ in cut_edges}
    heads = {h for _, h in cut_edges}
    closure = g._reach(set(g.roots) | tails, gone_edges=cut_edges)
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


def agent_substitution_witness(g: Digraph) -> tuple[frozenset[Edge], frozenset[int]]:
    """A minimum edge cut whose substituted agent set breaks the graph.

    Not every minimum cut works: when the head picks of
    :func:`agent_set_from_cut` consume every vertex beyond the cut's
    source side, no stranded survivor is left.  Scanning the ``lc``
    kernel's tight cuts in ascending target order finds a cut whose agent
    set is full-sized and breaking; for graphs whose root out-edges all
    have unit agent controllability index no failing instance is known.
    Returns ``(cut_edges, agents)``.
    """
    if not g.followers or not g.is_controllable():
        raise UncontrollableError("degrees are zero; every element is already critical")
    for _, cut in g._kernels[0].tight_cuts():
        agents = agent_set_from_cut(g, cut)
        if len(agents) == len(cut) and g._breaks(agents) is not None:
            return cut, agents
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
    agent = g._kernels[1]
    if len(agents) != agent.base:
        raise NotACriticalAgentSetError(f"expected a minimum breaking set of {agent.base} agents")
    if g._breaks(frozenset(agents)) is None:
        raise NotACriticalAgentSetError("removing the set does not break controllability")
    unit_index = partial(_unit_drop, agent)
    choices = {v: next((e for e in g.out_edges(v) if unit_index(e)), None) for v in agents}
    uncovered = [v for v, edge in choices.items() if edge is None]
    if uncovered:
        raise ConditionUnmetError(
            f"agents {uncovered} have no out-edge with unit agent controllability index"
        )
    return frozenset(choices.values())


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
    larger than the conjunction of the two certificates.  A ``None``
    ``jointly_critical`` was not decidable within the enumeration budget.
    """

    agent_critical: bool
    link_critical: bool
    jointly_critical: bool | None


def classify(
    g: Digraph,
    budget: int = DEFAULT_SUBSET_BUDGET,
    _region: JointRegion | None = None,
) -> Classification:
    """The classes of ``g``, read on its ``lc`` and ``ac`` kernels.

    Callers holding its joint region, computed within the budget, pass it
    as ``_region``, whose ``exact_for_degree`` then answers
    ``jointly_critical``: :func:`_region_is_exact` tests the same cells.
    """
    if not g.is_controllable():
        raise UncontrollableError("classification is defined for controllable graphs")
    agent = g._kernels[1]
    unit_index = partial(_unit_drop, agent)
    root_out = g.out_cut(g.roots).sorted_members
    agent_critical = all(unit_index(e) for e in root_out)
    link_critical = _link_critical(g, agent, unit_index)
    if agent_critical and link_critical:
        jointly: bool | None = True
    elif _region is not None:
        jointly = _region.exact_for_degree
    else:
        jointly = _region_is_exact(g, budget)
    return Classification(
        agent_critical=agent_critical,
        link_critical=link_critical,
        jointly_critical=jointly,
    )


def _link_critical(g: Digraph, agent: _DeletionDegrees, unit_index: Callable[[Edge], bool]) -> bool:
    """Does some minimum breaking agent set have a unit-index out-edge per member?

    Under the cap, such a set of ``ac`` followers is a cheapest cut of a
    follower it strands (:meth:`_DeletionDegrees.tight_cut_within`); at
    the cap it is every follower.
    """
    followers = g.followers
    complies = cache(lambda v: any(map(unit_index, g.out_edges(v))))  # a unit-index out-edge, read once
    if agent.base < len(followers):
        return agent.tight_cut_within(complies)
    return bool(followers) and all(map(complies, followers))  # with no follower, no set breaks g


def _region_is_exact(g: Digraph, budget: int) -> bool | None:
    """Is the joint region exactly the triangle r + s <= jc?

    By downward closure it suffices to show no pair on the diagonal
    r + s = jc + 1 is joint-controllable; degree equality lc == ac is
    necessary first.  Only a classification without a region computed
    within the budget asks.
    """
    link, agent = g._kernels
    degree = link.base
    if degree != agent.base:
        return False
    broken: dict[tuple[int, int], bool] = {}
    try:
        for r in range(1, degree + 1):
            if _rs_controllable(g, r, degree + 1 - r, budget, broken):
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
    """The bound rows of ``g``, with its degrees read on its kernels."""
    n = g.n
    m = len(g.roots)
    e = len(g.edges)
    link, agent = g._kernels
    lcv = link.base
    acv = agent.base
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

    def region_row(name: str, applicable: bool, holds: Callable[[int], bool], detail: str) -> BoundCheck:
        """A row that ``holds`` for every region pair's ``r + s``; undecided without a region."""
        if region is None:
            return BoundCheck(name, applicable, None, detail + " (region unavailable)")
        verdict = all(holds(r + s) for r, s in region.members) if applicable else None
        return BoundCheck(name, applicable, verdict, detail)

    in_either_class = classification is not None and (
        classification.agent_critical or classification.link_critical
    )
    rows.append(
        region_row(
            "region_sum_vs_max_degree",
            in_either_class,
            lambda t: t <= max(lcv, acv),
            f"every region pair satisfies r+s <= max(lc,ac)={max(lcv, acv)}",
        )
    )
    agent_side = single_root and classification is not None and classification.agent_critical
    rows.append(
        region_row(
            "agent_critical_edge_bound",
            agent_side,
            lambda t: e >= (n - 1) * t,
            f"|E|={e} >= (n-1)*(r+s) for every region pair",
        )
    )
    link_side = single_root and classification is not None and classification.link_critical
    rows.append(
        region_row(
            "link_critical_edge_bound",
            link_side,
            lambda t: e >= n + t - 2,
            f"|E|={e} >= n+(r+s)-2 for every region pair",
        )
    )
    return rows
