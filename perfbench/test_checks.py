"""Each benchmark check accepts a right answer and rejects a planted wrong one."""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

import checks
import inputs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

K4 = inputs.complete_graph(4)  # root 1, lc = ac = jc = 3


def test_witness_check_rejects_a_non_breaking_witness():
    cut = {"edges": [[1, 2], [1, 3], [1, 4]], "vertices": [], "unreachable": [2, 3, 4]}
    checks.check_witness(K4, "link", cut, 3)
    planted = {"edges": [[2, 3], [3, 4], [4, 2]], "vertices": [], "unreachable": []}
    with pytest.raises(checks.CheckFailed, match="does not break"):
        checks.check_witness(K4, "link", planted, 3)


def test_region_check_rejects_a_missing_triangle_cell():
    cells = sorted(checks.triangle(3))
    region = {"lc": 3, "ac": 3, "jc": 3, "members": cells, "exact_for_degree": True,
              "frontier": [(r, 3 - r) for r in range(4)]}
    checks.check_region(K4, region, 3, 3)
    planted = dict(region, members=[c for c in cells if c != (1, 1)])
    with pytest.raises(checks.CheckFailed, match=r"lacks the triangle cell \(1, 1\)"):
        checks.check_region(K4, planted, 3, 3)


def test_degree_check_rejects_lc_off_by_one():
    assert checks.brute_degree(K4, "link") == checks.brute_degree(K4, "agent") == 3
    checks.check_degrees({"lc": 3, "ac": 3, "jc": 3}, 3, 3)
    with pytest.raises(checks.CheckFailed, match="lc is 4"):
        checks.check_degrees({"lc": 4, "ac": 3, "jc": 3}, 3, 3)


def test_text_report_reads_back_as_the_json_report():
    report = pytest.importorskip("robonet.report")
    graphio = pytest.importorskip("robonet.graphio")
    g4 = inputs.G4
    doc = report.build_report(graphio.parse_json_graph(g4.canonical_json()))
    parsed = checks.parse_text_report(report.render_text(doc))
    for key in ("controllable", "degrees", "classification", "witnesses"):
        assert parsed[key] == doc[key]
    assert parsed["indices"] == doc["indices"]
    assert {k: doc["region"][k] for k in parsed["region"]} == parsed["region"]
    assert [row["holds"] for row in parsed["bounds"]] == [row["holds"] for row in doc["bounds"]]
    checks.check_report(g4, parsed, checks.SECTIONS, g4.lc, g4.ac)
