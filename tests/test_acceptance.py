"""End-to-end acceptance checks.

Each numbered check prints one PASS line on success; a failing assertion
is the corresponding FAIL line.  Checks 4-6 share one deterministic
population of 500 seeded random digraphs (at most 8 vertices and 16
edges), every one of which is cross-examined by the brute-force oracle.

Check 8b asserts a substitution property that does not actually hold:
a minimal breaking agent pair can satisfy the per-member unit-index
condition while the substituted links leave the graph controllable (the
pair starves the graph jointly; each surrogate link leaves its agent
alive to re-feed the rest).  The check is kept as stated and fails on
the first such pair; see tests/test_joint.py::TestLinkSubstitution for
the minimal counterexample.
"""
import subprocess
import sys
import time

import pytest

from robonet.connectivity import (
    agent_controllability,
    agent_controllability_vertex,
    link_controllability,
)
from robonet.criticality import (
    agent_controllability_index,
    agent_criticality_index,
    enumerate_critical_sets,
    is_agent_critical,
)
from robonet.digraph import removal_breaks_controllability
from robonet.errors import ConditionUnmetError
from robonet.families import circulant_rooted, complete_rooted, kautz_rooted
from robonet.graphio import (
    dumps_json_graph,
    graph_to_dot,
    parse_dot_graph,
    parse_json_graph,
)
from robonet.joint import (
    agent_substitution_witness,
    check_bounds,
    classify,
    joint_controllability,
    joint_controllability_via_duplicate,
    joint_region,
    link_set_from_agent_set,
)
from robonet.oracle import oracle_ac, oracle_jc, oracle_lc, oracle_region, random_digraph

from conftest import seeded_sweep


@pytest.fixture(scope="module")
def sweep():
    return seeded_sweep(500)


@pytest.fixture(scope="module")
def families():
    named = [
        ("simple_loop", circulant_rooted(5, (1,))),
        ("double_loop", circulant_rooted(5, (1, 4))),
        ("daisy_chain", circulant_rooted(5, (1, 3))),
        ("g4", circulant_rooted(6, (2, 3, 5))),
        ("kautz_2_2", kautz_rooted(2, 2)),
        ("kautz_3_1", kautz_rooted(3, 1)),
    ]
    named += [(f"complete_{n}", complete_rooted(n)) for n in range(2, 8)]
    return named


def _ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_circulant_degree_suite():
    expected = {
        (5, (1,)): (1, 1, 1),
        (5, (1, 4)): (2, 2, 2),
        (5, (1, 3)): (2, 2, 2),
        (6, (2, 3, 5)): (3, 2, 2),
    }
    for (n, offsets), degrees in expected.items():
        g = circulant_rooted(n, offsets)
        got = (
            link_controllability(g),
            agent_controllability(g),
            joint_controllability(g),
        )
        assert got == degrees, f"circulant({n}, {offsets}): {got} != {degrees}"
    _ok(1, "circulant degree suite")


def test_criterion_02_g4_region_and_classification():
    g4 = circulant_rooted(6, (2, 3, 5))
    region = joint_region(g4)
    expected = sorted(
        {(r, s) for r in range(4) for s in range(3) if r + s <= 2} | {(2, 1), (3, 0)}
    )
    assert list(region.members) == expected
    assert region.members == oracle_region(g4)
    flags = classify(g4)
    assert flags.agent_critical is False
    assert flags.link_critical is False
    _ok(2, "G4 joint region and classification")


def test_criterion_03_jointly_critical_families():
    for n in range(2, 8):
        g = complete_rooted(n)
        assert joint_controllability(g) == n - 1, f"complete({n})"
        assert classify(g).jointly_critical is True, f"complete({n})"
    for d, kappa in [(2, 2), (3, 1)]:
        g = kautz_rooted(d, kappa)
        assert joint_controllability(g) == d, f"kautz({d},{kappa})"
        assert classify(g).jointly_critical is True, f"kautz({d},{kappa})"
    _ok(3, "jointly critical families")


def test_criterion_04_joint_degree_identity(sweep):
    started = time.monotonic()
    for seed, g in sweep:
        lcv, acv, jcv = (
            link_controllability(g),
            agent_controllability(g),
            joint_controllability(g),
        )
        assert jcv == min(lcv, acv), f"seed {seed}"
        assert lcv == oracle_lc(g), f"seed {seed}: lc {lcv} != oracle {oracle_lc(g)}"
        assert acv == oracle_ac(g), f"seed {seed}: ac {acv} != oracle {oracle_ac(g)}"
        assert jcv == oracle_jc(g), f"seed {seed}: jc {jcv} != oracle {oracle_jc(g)}"
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"sweep took {elapsed:.0f}s"
    _ok(4, f"joint degree identity on {len(sweep)} instances ({elapsed:.1f}s)")


def test_criterion_05_duplicate_transform_identity(sweep):
    for seed, g in sweep:
        via_duplicate = joint_controllability_via_duplicate(g)
        assert via_duplicate == joint_controllability(g), f"seed {seed}"
    _ok(5, "edge-duplicate identity on the same instances")


def test_criterion_06_index_laws(sweep):
    checked = 0
    for seed, g in sweep:
        if not g.is_controllable():
            continue
        checked += 1
        cap = g.n - len(g.roots)
        acv = agent_controllability(g)
        pathological = acv == cap
        all_direct = all(
            any(t in g.root_set for t, _ in g.in_edges(v)) for v in g.followers
        )
        assert pathological == all_direct, f"seed {seed}: direct-feed equivalence"
        critical_agents = {
            v for w in enumerate_critical_sets(g, "agent")[0] for v in w.vertices
        }
        for v in g.followers:
            delta = agent_criticality_index(g, v)
            if pathological:
                assert delta == 0, f"seed {seed} vertex {v}"
            else:
                assert (delta == 1) == is_agent_critical(g, v), f"seed {seed} vertex {v}"
        for edge in g.sorted_edges:
            tail, head = edge
            rho = agent_controllability_index(g, edge)
            direct = [e for e in g.in_edges(head) if e[0] in g.root_set]
            if direct and edge not in direct:
                assert rho == 0, f"seed {seed} edge {edge}: other in-edge of a direct head"
            if len(direct) > 1 and edge in direct:
                assert rho == 0, f"seed {seed} edge {edge}: multiple direct feeds"
            if not direct and tail not in g.root_set:
                assert rho in (0, 1), f"seed {seed} edge {edge}: rho={rho}"
                if rho == 1:
                    assert tail in critical_agents, f"seed {seed} edge {edge}"
            if tail not in g.root_set:
                head_drop = agent_controllability_vertex(g, head) - (
                    agent_controllability_vertex(g.remove_edges({edge}), head)
                )
                assert 0 <= rho <= head_drop, f"seed {seed} edge {edge}"
                if agent_controllability_vertex(g, head) == acv:
                    assert rho == head_drop, f"seed {seed} edge {edge}"
    _ok(6, f"index laws on {checked} controllable instances")


def test_criterion_07_bound_validators(sweep, families):
    population = [(f"seed {seed}", g) for seed, g in sweep] + list(families)
    for label, g in population:
        classification = region = None
        if g.is_controllable():
            classification = classify(g)
            if classification.agent_critical or classification.link_critical:
                region = joint_region(g)
        for row in check_bounds(g, region=region, classification=classification):
            if row.applicable:
                assert row.holds is True, f"{label}: {row.name}: {row.detail}"
    _ok(7, f"bound validators on {len(population)} graphs")


def test_criterion_08a_cut_to_agent_substitution(sweep, families):
    population = [(f"seed {seed}", g) for seed, g in sweep] + list(families)
    exercised = 0
    for label, g in population:
        if not g.is_controllable() or not classify(g).agent_critical:
            continue
        exercised += 1
        cut, agents = agent_substitution_witness(g)
        assert len(cut) == link_controllability(g), label
        assert len(agents) == len(cut), label
        assert removal_breaks_controllability(g, vertices=agents), label
    assert exercised > 0
    _ok(8, f"cut-to-agent substitution on {exercised} agent-critical graphs")


def test_criterion_08b_agent_to_link_substitution(sweep, families):
    population = [(f"seed {seed}", g) for seed, g in sweep] + list(families)
    exercised = 0
    failures = []
    for label, g in population:
        if not g.is_controllable():
            continue
        for witness in enumerate_critical_sets(g, "agent")[0]:
            try:
                links = link_set_from_agent_set(g, witness.vertices)
            except ConditionUnmetError:
                continue  # the set does not satisfy the unit-index condition
            exercised += 1
            assert len(links) == len(witness.vertices), label
            if not removal_breaks_controllability(g, edges=links):
                failures.append((label, sorted(witness.vertices), sorted(links)))
    assert exercised > 0
    assert not failures, (
        f"{len(failures)} of {exercised} compliant agent sets have non-breaking "
        f"substituted links; first: {failures[0]}"
    )
    _ok(8, f"agent-to-link substitution on {exercised} compliant sets")


def test_criterion_09_deterministic_reports(tmp_path):
    g4_path = tmp_path / "g4.json"
    assert (
        subprocess.run(
            [
                sys.executable,
                "-m",
                "robonet",
                "generate",
                "circulant",
                "--n",
                "6",
                "--b",
                "2,3,5",
                "--out",
                str(g4_path),
            ],
            capture_output=True,
        ).returncode
        == 0
    )
    outputs = set()
    for flavor in ([], ["--json"]):
        flavored = set()
        for workers in ("1", "2", "8"):
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "robonet", "analyze", str(g4_path), "--workers", workers]
                    + flavor,
                    capture_output=True,
                )
                assert proc.returncode == 0
                flavored.add(proc.stdout)
        assert len(flavored) == 1, "reports differ across runs or worker counts"
        outputs |= flavored
    assert len(outputs) == 2  # text and JSON flavors
    _ok(9, "byte-identical reports for 1, 2, and 8 workers")


def test_criterion_10_format_round_trip():
    for seed in range(100):
        n = 3 + seed % 6
        roots = 1 + seed % 3
        if roots >= n:
            roots = 1
        cap = (n - roots) * (n - 1)
        g = random_digraph(n, (seed * 13) % (cap + 1), roots, seed)
        assert parse_json_graph(dumps_json_graph(g)) == g, f"seed {seed}: JSON"
        assert parse_dot_graph(graph_to_dot(g)) == g, f"seed {seed}: DOT"
    _ok(10, "lossless JSON and DOT round trips on 100 graphs")