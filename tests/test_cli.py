import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

import bccover
from bccover import (
    BudgetExceededError,
    bicliques_from_text,
    complete_graph,
    cycle_graph,
    gen_copath,
    gen_fig_graph,
    gen_random_chordal,
    verify_cover,
    write_graph,
)
from bccover import bounds as bounds_module
from bccover.cli import main
from bccover.gen import random_tree
from bccover.ranking import Tree, is_valid_edge_ranking, tree_to_text
from helpers import reference_graph_to_text, run_python

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture
def fig3_path(tmp_path):
    path = tmp_path / "fig3.graph"
    write_graph(gen_fig_graph("fig3").graph, path)
    return str(path)


def test_gen_copath_stdout_matches_golden(capsys):
    assert main(["gen", "copath", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "copath5.graph").read_text()


def test_gen_out_streams_the_graph_once(tmp_path):
    # the text built for stdout and a second one for the file took the
    # child to a 272 MB peak on copath-1600, for an 11 MB file
    path = tmp_path / "copath1600.graph"
    script = (
        "import sys\n"
        "from bccover.cli import main\n"
        "code = main(['gen', 'copath', '--n', '1600', '--out', sys.argv[1]])\n"
        "with open('/proc/self/status') as fh:\n"
        "    kb = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "print(code, kb)\n"
    )
    code, kb = run_python(script, str(path)).split()
    assert code == "0"
    assert int(kb) < 60 * 1024
    expected = reference_graph_to_text(gen_copath(1600).graph).encode()
    assert path.read_bytes() == expected


def test_gen_writes_sidecar_expected_values(tmp_path):
    out = tmp_path / "w.graph"
    assert main(["gen", "cowindmill", "--m", "4", "--k", "3",
                 "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "w.graph.expected.json").read_text())
    assert sidecar["expected"] == {"bc": 2, "mc_complement": 4}
    assert sidecar["name"] == "cowindmill-4-3"


def test_gen_random_requires_seed(capsys):
    assert main(["gen", "random-chordal", "--n", "6"]) == 1


def test_gen_random_chordal_sidecar_name_carries_the_density(tmp_path):
    names = []
    for density in ("0.2", "0.7"):
        out = tmp_path / ("d%s.graph" % density)
        assert main(["gen", "random-chordal", "--n", "30", "--density", density,
                     "--seed", "1", "--out", str(out)]) == 0
        sidecar = tmp_path / ("d%s.graph.expected.json" % density)
        names.append(json.loads(sidecar.read_text())["name"])
    assert names == ["random-chordal-30-0.2-1", "random-chordal-30-0.7-1"]


def test_gen_two_membership(tmp_path, capsys):
    assert main(["gen", "two-membership", "--shape", "star", "--nodes", "4",
                 "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("p ")


def test_gen_two_membership_one_node_caterpillar(capsys):
    # a one-node spine, as the path, star and random shapes give one node
    assert main(["gen", "two-membership", "--shape", "caterpillar", "--nodes",
                 "1", "--seed", "0"]) == 0
    assert capsys.readouterr().out == "p 3 0\n"


def test_bounds_fig3_json(fig3_path, capsys):
    assert main(["bounds", fig3_path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle"]["bc"] == 3
    assert payload["bounds"]["log_mc"] == 2
    assert payload["cover"]["size"] == 3


def test_bounds_k5_text(tmp_path, capsys):
    path = tmp_path / "k5.graph"
    write_graph(complete_graph(5), path)
    assert main(["bounds", str(path)]) == 0
    out = capsys.readouterr().out
    assert "log-mc:" in out and "3" in out
    assert "oracle: bc=3" in out


def test_bounds_text_shows_bp_when_bc_gives_up(monkeypatch, tmp_path, capsys):
    def give_up(g, budget=None, _facts=None):
        raise BudgetExceededError("bc search over budget")

    monkeypatch.setattr(bounds_module, "exact_bc", give_up)
    path = tmp_path / "g.graph"
    write_graph(gen_random_chordal(12, 0.3, 1).complement(), path)
    assert main(["bounds", str(path), "--format", "json"]) == 0
    oracle = json.loads(capsys.readouterr().out)["oracle"]
    assert oracle["bc"] is None and oracle["bp"] is not None
    assert main(["bounds", str(path)]) == 0
    assert "oracle: bc=- bp=%d (inexact)\n" % oracle["bp"] in capsys.readouterr().out


def test_bounds_empty_graph_all_zero(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    path.write_text("p 0 0\n")
    assert main(["bounds", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 0 and payload["m"] == 0
    assert payload["bounds"]["log_mc"] == 0
    assert payload["oracle"]["bc"] == 0


def test_bounds_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("p 3 1\n0 7\n")
    assert main(["bounds", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_bounds_batch_jsonl(tmp_path, capsys):
    write_graph(gen_copath(5).graph, tmp_path / "a.graph")
    write_graph(complete_graph(4), tmp_path / "b.graph")
    (tmp_path / "ignored.txt").write_text("not a graph\n")
    assert main(["bounds", str(tmp_path), "--dir", "--no-oracle"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    payloads = {json.loads(l)["file"]: json.loads(l) for l in lines}
    assert payloads["a.graph"]["cover"]["size"] == 2
    assert payloads["b.graph"]["cover"]["size"] == 2


def test_cover_copath12(tmp_path, capsys):
    path = tmp_path / "copath12.graph"
    write_graph(gen_copath(12).graph, path)
    assert main(["cover", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 4  # ceil(log2(11))
    assert payload["ranking_optimal"] is True


def test_cover_fig2_text_and_verify_round_trip(tmp_path, capsys):
    g = gen_fig_graph("fig2").graph
    graph_path = tmp_path / "fig2.graph"
    write_graph(g, graph_path)
    cover_path = tmp_path / "fig2.cover"
    assert main(["cover", str(graph_path), "--out", str(cover_path)]) == 0
    bicliques = bicliques_from_text(cover_path.read_text(), g.n)
    assert len(bicliques) == 2
    assert verify_cover(g, bicliques)

    assert main(["verify", str(graph_path), str(cover_path)]) == 0
    assert main(["verify", str(graph_path), str(cover_path),
                 "--mode", "partition"]) == 0

    # drop one biclique: an edge goes uncovered and gets named
    lines = cover_path.read_text().splitlines()
    kept = [l for l in lines if not l.startswith("c")][1:]
    cover_path.write_text("\n".join(kept) + "\n")
    assert main(["verify", str(graph_path), str(cover_path)]) == 2
    out = capsys.readouterr().out
    assert "uncovered" in out


def test_verify_rejects_negative_vertex_as_parse_error(tmp_path, capsys):
    # a negative vertex is out of range, so the cover file fails to parse
    # (exit 1) with an error that names the vertex, as for one of n or more
    graph_path = tmp_path / "copath6.graph"
    write_graph(gen_copath(6).graph, graph_path)
    cover_path = tmp_path / "neg.cover"
    cover_path.write_text("L: -1 | R: 2\n")
    assert main(["verify", str(graph_path), str(cover_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: line 1: vertex -1 out of range\n"


def test_verify_rejects_huge_vertex_before_building_a_mask(tmp_path, capsys):
    # a vertex of n or more is a parse error (exit 1), found before any mask
    # is built: a mask holding vertex 10**8 alone would take 12.5 MB
    graph_path = tmp_path / "copath6.graph"
    write_graph(gen_copath(6).graph, graph_path)
    cover_path = tmp_path / "huge.cover"
    cover_path.write_text("L: 100000000 | R: 1\n")
    tracemalloc.start()
    try:
        code = main(["verify", str(graph_path), str(cover_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parse error: line 1: vertex 100000000 out of range" in captured.err


def test_cover_of_c4_succeeds(tmp_path, capsys):
    # complement of C4 is a perfect matching, which is chordal
    path = tmp_path / "c4.graph"
    write_graph(cycle_graph(4), path)
    assert main(["cover", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] <= 3
    assert verify_cover(
        cycle_graph(4),
        bicliques_from_text(
            "\n".join(
                "L: %s | R: %s"
                % (" ".join(map(str, l)), " ".join(map(str, r)))
                for l, r in payload["bicliques"]
            )
            + "\n",
            cycle_graph(4).n,
        ),
    )


@pytest.mark.parametrize("command", ["cover", "tree", "partition"])
def test_non_chordal_input_exits_3(command, tmp_path, capsys):
    # C5 and its complement (another C5) are both not chordal
    path = tmp_path / "c5.graph"
    write_graph(cycle_graph(5), path)
    assert main([command, str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition failed: ")
    assert "not chordal" in captured.err


def test_partition_command(tmp_path, capsys):
    path = tmp_path / "fig2.graph"
    write_graph(gen_fig_graph("fig2").graph, path)
    assert main(["partition", str(path)]) == 0
    parts = bicliques_from_text(capsys.readouterr().out, gen_fig_graph("fig2").graph.n)
    assert len(parts) == 3


def test_rank_path9(tmp_path, capsys):
    tree_path = tmp_path / "path9.tree"
    tree_path.write_text(tree_to_text(Tree(9, [(i, i + 1) for i in range(8)])))
    assert main(["rank", "--tree", str(tree_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "r = 4"
    assert len(out.splitlines()) == 9  # header plus one line per edge


def test_rank_a_wide_star(tmp_path, capsys):
    tree_path = tmp_path / "star1100.tree"
    tree_path.write_text(tree_to_text(Tree(1101, [(0, i) for i in range(1, 1101)])))
    assert main(["rank", "--tree", str(tree_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "r = 1100"


@pytest.mark.parametrize("seed", [0, 2])
def test_rank_random_thirty_node_trees(tmp_path, capsys, seed):
    # a memoised search over connected subtrees runs for minutes on these two
    tree = random_tree(30, seed)
    tree_path = tmp_path / "random30.tree"
    tree_path.write_text(tree_to_text(tree))
    assert main(["rank", "--tree", str(tree_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    r = int(lines[0].split("=")[1])
    ranks = {}
    for line in lines[1:]:
        edge, rank = line.split(":")
        u, v = map(int, edge.split())
        ranks[(u, v)] = int(rank)
    assert max(ranks.values()) == r
    assert is_valid_edge_ranking(tree, ranks)


def test_oracle_bc_fig3(fig3_path, capsys):
    assert main(["oracle", "bc", fig3_path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "bc = 3"
    assert sum(1 for l in out.splitlines() if l.startswith("L:")) == 3


def test_oracle_output_flag_writes_the_file(fig3_path, tmp_path, capsys):
    out = tmp_path / "bc.txt"
    assert main(["oracle", "bc", fig3_path, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["oracle", "bc", fig3_path]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "bc = 3"


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "{g}", "--time-cap", "3"],
        ["partition", "{g}", "--vertex-cap", "5"],
        ["tree", "{g}", "--vertex-cap", "0"],
        ["rank", "--tree", "{g}", "--time-cap", "3"],
        ["gen", "copath", "--n", "4", "--vertex-cap", "5"],
    ],
)
def test_cap_flags_only_on_commands_that_read_them(fig3_path, capsys, argv):
    # only bounds and oracle run a budgeted oracle; elsewhere a cap flag
    # would be silently ignored, so it is a usage error
    assert main([a.format(g=fig3_path) for a in argv]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_oracle_ranking_and_partition_policy_are_usage_errors(fig3_path, capsys):
    # both were removed; the exact ranking is ``rank``, the partition has one policy
    assert main(["oracle", "ranking", fig3_path]) == 1
    assert "invalid choice: 'ranking'" in capsys.readouterr().err
    assert main(["partition", fig3_path, "--policy", "first"]) == 1
    assert "unrecognized arguments: --policy first" in capsys.readouterr().err


def test_oracle_budget_exit_4(tmp_path, capsys):
    path = tmp_path / "big.graph"
    write_graph(gen_random_chordal(15, 0.4, 1), path)
    assert main(["oracle", "bc", str(path)]) == 4
    assert "cap" in capsys.readouterr().err
    # raising the cap via flag lets it through
    assert main(["oracle", "matching", str(path)]) == 0


@pytest.mark.parametrize("problem, value", [("bc", 5), ("bp", 14)])
def test_oracle_bc_bp_follow_a_raised_vertex_cap(tmp_path, capsys, problem, value):
    # the complement's clique count inside the search follows the caps too
    path = tmp_path / "copath22.graph"
    write_graph(gen_copath(22).graph, path)
    assert main(["oracle", problem, str(path), "--vertex-cap", "30"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "%s = %d" % (problem, value)


def test_oracle_clique_prints_its_window_on_the_time_cap(fig3_path, capsys):
    # the search checks its deadline at every node; the greedy colouring of
    # fig3 bounds its clique number by 2, and one vertex is a clique
    assert main(["oracle", "clique", fig3_path, "--time-cap", "1e-9"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "clique in [1, 2] (inexact)\n"
    assert captured.err == ""
    assert main(["oracle", "clique", fig3_path]) == 0
    assert capsys.readouterr().out == "clique = 2\n"


def test_tree_command(tmp_path, capsys):
    path = tmp_path / "p3.graph"
    path.write_text("p 3 2\n0 1\n1 2\n")
    assert main(["tree", str(path)]) == 0
    assert capsys.readouterr().out == "K0: 0 1\nK1: 1 2\nT: 0 1 | mid: 1\n"
    bad = tmp_path / "c4.graph"
    write_graph(cycle_graph(4), bad)
    assert main(["tree", str(bad)]) == 3


def test_missing_file_exit_1(capsys):
    assert main(["bounds", "/nonexistent/x.graph"]) == 1


def test_usage_error_exit_1():
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_console_script_runs():
    # the child imports bccover from the same src as this process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(bccover.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "bccover.cli", "gen", "copath", "--n", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("p 4 3")


_CLI_IN_CHILD = """import contextlib, io, json, sys
from bccover.cli import main
graph, cover, folder = sys.argv[1:]
runs = [["cover", graph, "-o", cover], ["verify", graph, cover],
        ["partition", graph], ["bounds", graph, "--no-oracle", "--format", "json"],
        ["bounds", folder, "--dir", "--no-oracle"], ["bounds", graph],
        ["oracle", "bp", graph]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_no_command_loads_numpy(tmp_path):
    """The package needs no numpy: not even the oracles, whose inertia bound
    is exact integer elimination, load it."""
    graph = tmp_path / "copath12.graph"
    write_graph(gen_copath(12).graph, graph)
    cover = tmp_path / "c.cover"
    out = run_python(_CLI_IN_CHILD, str(graph), str(cover), str(tmp_path))
    assert json.loads(out) == {"codes": [0] * 7, "numpy": False}


def test_oracle_bp_prints_the_partition_without_numpy(fig3_path):
    script = (
        "import sys\n"
        "from bccover.cli import main\n"
        "code = main(['oracle', 'bp', sys.argv[1]])\n"
        "print('exit', code, 'numpy' in sys.modules)\n"
    )
    assert run_python(script, fig3_path) == (
        "bp = 3\nL: 0 | R: 3 4 5\nL: 1 | R: 4 5\nL: 2 | R: 5\nexit 0 False\n"
    )


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--vertex-cap", "0"], "--vertex-cap"),
        # NaN is not > 0; accepted, it was a cap that no deadline passes
        (["--time-cap", "nan"], "--time-cap"),
    ],
)
def test_bad_budget_value_is_a_parse_error(fig3_path, capsys, flags, named):
    assert main(["bounds", fig3_path, "--no-oracle"] + flags) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("parse error:") and named in err[0]


def test_the_environment_sets_no_budget_cap(fig3_path, capsys, monkeypatch):
    # BCCOVER_TIME_CAP and BCCOVER_VERTEX_CAP are retired: only the flags
    # set the caps, so not even a NaN there changes what bounds prints
    assert main(["bounds", fig3_path]) == 0
    before = capsys.readouterr()
    monkeypatch.setenv("BCCOVER_TIME_CAP", "nan")
    assert main(["bounds", fig3_path]) == 0
    assert capsys.readouterr() == before


@pytest.mark.parametrize(
    "argv",
    [["cover"], ["partition"], ["bounds"], ["bounds", "--no-oracle"], ["tree"],
     ["oracle", "clique"], ["verify"]],
)
def test_a_graph_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"p 2 1\n0 1\nc \xff\n")
    cover = tmp_path / "c.cover"
    cover.write_text("L: 0 | R: 1\n")
    paths = [str(path), str(cover)] if argv == ["verify"] else [str(path)]
    assert main(argv + paths) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "UTF-8" in err


def test_a_tree_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.tree"
    path.write_bytes(b"t 2\n\xff 1\n")
    assert main(["rank", "--tree", str(path)]) == 1
    assert capsys.readouterr().err.startswith("parse error:")


def test_bounds_dir_reports_a_file_that_is_not_utf8_and_goes_on(tmp_path, capsys):
    write_graph(gen_copath(5).graph, tmp_path / "a.graph")
    (tmp_path / "b.graph").write_bytes(b"p 2 1\n\xff 1\n")
    assert main(["bounds", str(tmp_path), "--dir", "--no-oracle"]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [l["file"] for l in lines] == ["a.graph", "b.graph"]
    assert lines[0]["cover"]["size"] == 2
    assert set(lines[1]) == {"error", "file"} and "UTF-8" in lines[1]["error"]


def test_bounds_dir_reports_an_entry_it_cannot_read_and_goes_on(tmp_path, capsys):
    write_graph(gen_copath(5).graph, tmp_path / "a.graph")
    (tmp_path / "b.graph").mkdir()  # listed by its name, but not a file
    write_graph(gen_copath(6).graph, tmp_path / "c.graph")
    assert main(["bounds", str(tmp_path), "--dir", "--no-oracle"]) == 1
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [l["file"] for l in lines] == ["a.graph", "b.graph", "c.graph"]
    assert lines[0]["cover"]["size"] == 2 and "cover" in lines[2]
    assert set(lines[1]) == {"error", "file"} and "directory" in lines[1]["error"]


def test_bounds_dir_with_no_graph_writes_nothing(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("not a graph\n")
    assert main(["bounds", str(tmp_path), "--dir"]) == 0
    assert capsys.readouterr() == ("", "")
    out = tmp_path / "out.jsonl"
    assert main(["bounds", str(tmp_path), "--dir", "-o", str(out)]) == 0
    assert out.read_text() == ""
