import json
import random
import resource
import subprocess
import sys

import pytest

from robonet import cli
from robonet.graphio import dumps_json_graph, graph_to_dot, load_graph_file
from robonet.families import complete_rooted, kautz_rooted, preset


def _run_robonet(*args, address_space=None):
    """Run ``python -m robonet`` in a child process, optionally with capped address space."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "robonet", *args],
        capture_output=True,
        text=True,
        preexec_fn=cap if address_space else None,
    )


@pytest.fixture()
def g4_file(tmp_path, g4):
    path = tmp_path / "g4.json"
    path.write_text(dumps_json_graph(g4))
    return str(path)


class TestGenerate:
    def test_circulant_writes_g4(self, tmp_path, g4, capsys):
        out = tmp_path / "g.json"
        code = cli.main(["generate", "circulant", "--n", "6", "--b", "2,3,5", "--out", str(out)])
        assert code == 0
        assert load_graph_file(str(out)) == g4
        assert "n=6 edges=15" in capsys.readouterr().out

    def test_complete(self, tmp_path):
        out = tmp_path / "c.json"
        assert cli.main(["generate", "complete", "--n", "4", "--out", str(out)]) == 0
        assert load_graph_file(str(out)) == complete_rooted(4)
        assert len(load_graph_file(str(out)).edges) == 9

    def test_kautz(self, tmp_path):
        out = tmp_path / "k.json"
        assert cli.main(["generate", "kautz", "--d", "2", "--kappa", "2", "--out", str(out)]) == 0
        assert load_graph_file(str(out)) == kautz_rooted(2, 2)

    def test_preset_names_use_dashes(self, tmp_path):
        out = tmp_path / "loop.json"
        assert cli.main(["generate", "simple-loop", "--n", "5", "--out", str(out)]) == 0
        assert load_graph_file(str(out)) == preset("simple_loop", 5)

    def test_invalid_parameters_exit_2(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        code = cli.main(["generate", "circulant", "--n", "5", "--b", "9", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_kind_exits_2_through_the_parser(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "moebius", "--n", "5", "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'moebius'" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyze:
    def test_degrees_line(self, g4_file, capsys):
        assert cli.main(["analyze", g4_file, "--degrees"]) == 0
        out = capsys.readouterr().out
        assert "degrees: lc=3 ac=2 jc=2" in out

    def test_classify_section(self, tmp_path, capsys):
        path = tmp_path / "g2.json"
        path.write_text(dumps_json_graph(preset("double_loop", 5)))
        assert cli.main(["analyze", str(path), "--classify"]) == 0
        assert "jointly_critical=yes" in capsys.readouterr().out

    def test_link_critical_ignores_the_budget(self, g4_file, tmp_path, capsys):
        # the class is one cut read on the ac kernel; an enumeration of
        # follower sets left it undefined on both graphs at a budget of 1
        kautz = tmp_path / "kautz.json"
        kautz.write_text(dumps_json_graph(kautz_rooted(3, 2)))
        cases = [(str(kautz), "link_critical=yes jointly_critical=yes"), (g4_file, "link_critical=no jointly_critical=no")]
        for path, classes in cases:
            assert cli.main(["analyze", path, "--classify", "--budget", "1"]) == 0
            assert classes in capsys.readouterr().out

    def test_region_section(self, g4_file, capsys):
        assert cli.main(["analyze", g4_file, "--region"]) == 0
        out = capsys.readouterr().out
        assert "frontier: (0,2) (2,1) (3,0)" in out

    def test_json_report(self, g4_file, capsys):
        assert cli.main(["analyze", g4_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["degrees"] == {"lc": 3, "ac": 2, "jc": 2}
        assert doc["classification"] == {
            "agent_critical": False,
            "link_critical": False,
            "jointly_critical": False,
        }

    def test_indices_section(self, g4_file, capsys):
        assert cli.main(["analyze", g4_file, "--indices"]) == 0
        out = capsys.readouterr().out
        assert "ranking: 3 6 2 4 5" in out
        assert "degrees:" not in out  # unselected sections stay out

    def test_witnesses_section(self, g4_file, capsys):
        assert cli.main(["analyze", g4_file, "--witnesses"]) == 0
        out = capsys.readouterr().out
        assert "agent: edges=- vertices=3 6" in out

    def test_witnesses_ignore_the_budget(self, g4_file, tmp_path, capsys):
        # two roots feeding one follower: the follower itself is the only
        # one-element breaking set
        fan_in = tmp_path / "fan_in.json"
        fan_in.write_text('{"n": 3, "roots": [1, 2], "edges": [[1, 3], [2, 3]]}')
        for path in (g4_file, str(fan_in)):
            assert cli.main(["analyze", path, "--witnesses"]) == 0
            default = capsys.readouterr().out
            assert cli.main(["analyze", path, "--witnesses", "--budget", "1"]) == 0
            tiny = capsys.readouterr().out
            # only the echoed limit differs
            assert tiny == default.replace("limit=1000000 ", "limit=1 ")
            assert "limit=1 " in tiny
        assert "mixed: edges=- vertices=3 strands=-" in tiny

    def test_report_to_file(self, g4_file, tmp_path):
        out = tmp_path / "report.txt"
        assert cli.main(["analyze", g4_file, "--degrees", "--out", str(out)]) == 0
        assert "lc=3" in out.read_text()

    def test_missing_file_exits_2(self, capsys):
        assert cli.main(["analyze", "/nonexistent.json"]) == 2

    def test_bad_graph_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "roots": [1], "edges": [[2, 1]]}')
        assert cli.main(["analyze", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_self_loop_strip_flag(self, tmp_path, capsys):
        path = tmp_path / "loopy.json"
        path.write_text('{"n": 2, "roots": [1], "edges": [[1, 2], [2, 2]]}')
        assert cli.main(["analyze", str(path), "--degrees"]) == 2
        capsys.readouterr()
        # one stable line per dropped loop; a raw UserWarning escaping here
        # would fail the test under the suite's warning filter
        assert cli.main(["analyze", str(path), "--degrees", "--strip-self-loops"]) == 0
        assert capsys.readouterr().err == (
            "warning: dropped self-loop 2->2: follower self-loops are implicit in the model\n"
        )

    def test_budget_exhaustion_exits_3(self, tmp_path, capsys):
        path = tmp_path / "c5.json"
        path.write_text(dumps_json_graph(complete_rooted(5)))
        code = cli.main(["analyze", str(path), "--region", "--budget", "1"])
        assert code == 3
        # the triangle r + s <= jc = 4 is certified without subsets, so
        # the budget first meets the cell (1,4) above it
        out = capsys.readouterr().out
        assert "region: over budget (joint (1,4) test needs 5 follower subsets, budget is 1)" in out

    def test_env_budget(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "c5.json"
        path.write_text(dumps_json_graph(complete_rooted(5)))
        monkeypatch.setenv("ROBONET_BUDGET", "1")
        assert cli.main(["analyze", str(path), "--region"]) == 3
        monkeypatch.delenv("ROBONET_BUDGET")
        assert cli.main(["analyze", str(path), "--region"]) == 0


class TestIngestionLimits:
    # a 1 GiB address-space cap turns an accidental allocation for 10**9
    # vertices into a MemoryError in the child instead of exhausting memory
    @pytest.mark.parametrize(
        "name, text",
        [
            ("huge.json", '{"n": 1000000000, "roots": [1], "edges": []}'),
            ("huge.dot", "digraph { 1000000000 [root=true]; }"),
        ],
    )
    def test_huge_vertex_count_exits_2(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        proc = _run_robonet("analyze", str(path), "--degrees", address_space=1 << 30)
        assert proc.returncode == 2
        assert "exceeds the limit of 100000" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "family",
        [("complete", "--n", "50000"), ("circulant", "--n", "1000000000", "--b", "1")],
    )
    def test_huge_family_exits_2_before_building_edges(self, tmp_path, family):
        out = tmp_path / "huge.json"
        proc = _run_robonet("generate", *family, "--out", str(out), address_space=1 << 30)
        assert proc.returncode == 2
        assert "above the limit of" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_budget_flag_exits_2(self, g4_file, value, capsys):
        for command in (["analyze", g4_file], ["verify", g4_file]):
            assert cli.main(command + ["--budget", value]) == 2
            assert "budget must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_env_budget_exits_2(self, g4_file, value, monkeypatch, capsys):
        monkeypatch.setenv("ROBONET_BUDGET", value)
        assert cli.main(["analyze", g4_file, "--region"]) == 2
        assert "budget must be positive" in capsys.readouterr().err


class TestIngestionBounds:
    def test_long_malformed_edge_entry_gives_a_short_error(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        entry = json.dumps(list(range(100_000)))
        path.write_text('{"n": 3, "roots": [1], "edges": [[1, 2], ' + entry + "]}")
        assert cli.main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "is not a [tail, head] pair" in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "name, write",
        [
            ("edges.json", lambda g: dumps_json_graph(g)),
            ("edges.dot", lambda g: graph_to_dot(g)),
        ],
    )
    def test_edge_count_is_capped_while_reading(self, tmp_path, monkeypatch, capsys, name, write):
        monkeypatch.setattr("robonet.digraph.MAX_GENERATED_EDGES", 5)
        at_cap = tmp_path / ("at_cap_" + name)
        at_cap.write_text(write(preset("simple_loop", 6)))  # 5 edges
        assert cli.main(["analyze", str(at_cap), "--degrees"]) == 0
        over = tmp_path / ("over_" + name)
        over.write_text(write(preset("double_loop", 4)))  # 6 edges
        assert cli.main(["analyze", str(over), "--degrees"]) == 2
        assert "exceeds the limit of 5" in capsys.readouterr().err


def _fuzzed_files(seed):
    """Seeded hostile graph files: (name, bytes) pairs."""
    rng = random.Random(seed)
    g = preset("double_loop", 5)
    originals = [("json", dumps_json_graph(g).encode()), ("dot", graph_to_dot(g).encode())]
    cases = []
    for ext, data in originals:
        cases.append((f"original.{ext}", data))
        digits = [i for i, byte in enumerate(data) if chr(byte).isdigit()]
        for i in range(12):
            cases.append((f"cut{i}.{ext}", data[: rng.randrange(len(data))]))
        for i in range(24):
            # any byte, or a digit for a digit, which keeps the syntax valid
            mutated = bytearray(data)
            for _ in range(rng.randint(1, 4)):
                if i % 2:
                    mutated[rng.choice(digits)] = ord(rng.choice("0123456789"))
                else:
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            cases.append((f"mutated{i}.{ext}", bytes(mutated)))
    deep = 100_000
    for i, text in enumerate(
        [
            '{"n": 3, "roots": [1], "edges": [' + "[" * deep + "]" * deep + "]}",
            '{"n": 3, "roots": ' + "[" * deep + "]" * deep + ', "edges": []}',
            '{"n": ' + "[" * deep + "]" * deep + ', "roots": [1], "edges": []}',
            "{" * deep,
            '{"n": 3, "roots": [1], "edges": [[1, 2], [' + "[" * 900 + "]" * 900 + "]]}",
            "digraph " + "{" * deep,
            "digraph { 1 " + "[" * deep + " }",
        ]
    ):
        cases.append((f"deep{i}.{'dot' if text.startswith('digraph') else 'json'}", text.encode()))
    for i, text in enumerate(
        [
            '{"n": 3, "roots": [1], "edges": [[1, 2], [2, 1000000000000000000000000000000]]}',
            '{"n": 1000000000000000000000000000000, "roots": [1], "edges": []}',
            '{"n": ' + "9" * 5000 + ', "roots": [1], "edges": []}',
            '{"n": 3, "roots": [-1], "edges": [[-1, 2], [2, 3]]}',
            '{"n": -3, "roots": [1], "edges": []}',
            '{"n": 3, "roots": [1], "edges": [[1, -2], [1, 3]]}',
            '{"n": 1e400, "roots": [1], "edges": []}',
            "digraph { 1 [root=true]; 1 -> 1000000000000000000000000000000; }",
            "digraph { 1 [root=true]; 1 -> " + "9" * 5000 + "; }",
            "digraph { 1 [root=true]; -1 -> 2; }",
        ]
    ):
        cases.append((f"ids{i}.{'dot' if text.startswith('digraph') else 'json'}", text.encode()))
    return cases


class TestFuzz:
    # every seeded hostile input goes through cli.main in process and must
    # end in a contract exit code; an escaping exception fails the test
    @pytest.mark.parametrize("seed", [0, 1])
    def test_hostile_files_end_in_contract_codes(self, tmp_path, seed, capsys):
        codes = set()
        for name, data in _fuzzed_files(seed):
            path = tmp_path / name
            path.write_bytes(data)
            for command in (["analyze", str(path), "--json"], ["verify", str(path)]):
                code = cli.main(command)
                assert code in (0, 2, 3, 4), (name, command[0], code)
                codes.add(code)
            capsys.readouterr()
        assert {0, 2} <= codes  # some mutations survive parsing, most do not

    def test_deep_json_nesting_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"n": 3, "roots": [1], "edges": [' + "[" * 100_000 + "]" * 100_000 + "]}")
        assert cli.main(["analyze", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", str(-(10**30)), str(10**30)])
    def test_out_of_range_budget_flags(self, g4_file, value, capsys):
        for command in (["analyze", g4_file], ["verify", g4_file], ["export-region", g4_file]):
            extra = ["--out", g4_file + ".csv"] if command[0] == "export-region" else []
            assert cli.main(command + extra + ["--budget", value]) in (0, 2, 3, 4)
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["-5", "abc", "1e9", " ", "9" * 5000, str(10**30)])
    def test_out_of_range_budget_env(self, g4_file, value, monkeypatch, capsys):
        monkeypatch.setenv("ROBONET_BUDGET", value)
        for command in (["analyze", g4_file], ["verify", g4_file]):
            assert cli.main(command) in (0, 2, 3, 4)
        capsys.readouterr()


class TestVerify:
    def test_path_agrees(self, tmp_path, path3, capsys):
        path = tmp_path / "p.json"
        path.write_text(dumps_json_graph(path3))
        assert cli.main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out

    def test_g4_agrees(self, g4_file):
        assert cli.main(["verify", g4_file]) == 0

    def test_mismatch_exits_4(self, g4_file, monkeypatch, capsys):
        monkeypatch.setattr(cli.oracle, "oracle_lc", lambda g, budget=None: 99)
        assert cli.main(["verify", g4_file, "--skip-region"]) == 4
        assert "MISMATCH" in capsys.readouterr().out

    def test_jc_oracle_runs_once(self, g4_file, monkeypatch, capsys):
        calls = []
        original = cli.oracle.oracle_jc

        def counting(g, budget):
            calls.append(g)
            return original(g, budget)

        monkeypatch.setattr(cli.oracle, "oracle_jc", counting)
        assert cli.main(["verify", g4_file, "--skip-region"]) == 0
        assert len(calls) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[3:5] == ["jc                 2       2", "jc(duplicate)      2       2"]

    def test_over_budget_exits_3(self, tmp_path, capsys):
        big = complete_rooted(12)
        path = tmp_path / "big.json"
        path.write_text(dumps_json_graph(big))
        assert cli.main(["verify", str(path)]) == 3


class TestExportRegion:
    def test_g4_csv(self, g4_file, tmp_path):
        out = tmp_path / "region.csv"
        assert cli.main(["export-region", g4_file, "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "r,s,member"
        cells = {(int(r), int(s)): int(m) for r, s, m in (line.split(",") for line in rows[1:])}
        assert len(cells) == 4 * 3
        members = {pair for pair, m in cells.items() if m}
        assert members == {(r, s) for r in range(4) for s in range(3) if r + s <= 2} | {
            (2, 1),
            (3, 0),
        }

    def test_loop_csvs_are_triangles(self, tmp_path):
        for name, g in [("g2", preset("double_loop", 5)), ("g3", preset("daisy_chain", 5))]:
            src = tmp_path / f"{name}.json"
            src.write_text(dumps_json_graph(g))
            out = tmp_path / f"{name}.csv"
            assert cli.main(["export-region", str(src), "--out", str(out)]) == 0
            rows = out.read_text().strip().splitlines()[1:]
            members = {
                (int(r), int(s)) for r, s, m in (line.split(",") for line in rows) if int(m)
            }
            assert members == {(r, s) for r in range(3) for s in range(3) if r + s <= 2}


def test_parser_is_reused_across_calls(g4_file, capsys):
    # one process: a rejected call, then valid calls, against fresh processes
    commands = [["analyze", g4_file, "--no-such-flag"], ["analyze", g4_file], ["verify", g4_file]]
    for command in commands:
        try:
            code = cli.main(command)
        except SystemExit as exc:
            code = exc.code
        fresh = _run_robonet(*command)
        assert (code, capsys.readouterr().out) == (fresh.returncode, fresh.stdout), command[1:]
    assert cli._parser() is cli._parser()


def test_module_entry_point(g4_file):
    proc = _run_robonet("analyze", g4_file, "--degrees")
    assert proc.returncode == 0
    assert "lc=3 ac=2 jc=2" in proc.stdout