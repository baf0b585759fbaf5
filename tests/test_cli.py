"""End-to-end CLI behavior and exit codes."""

import json

import pytest

from qwalk.cli import main
from qwalk.graph import load_graph


def test_generate_and_certify(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    assert main(["generate", "--kind", "gnp", "--n", "80", "--p", "0.5",
                 "--seed", "3", "--out", gpath]) == 0
    g = load_graph(gpath)
    assert g.n == 80
    rpath = str(tmp_path / "report.json")
    code = main(["certify", "--graph", gpath, "--eps", "0.15",
                 "--trials", "200", "--seed", "1", "--out", rpath])
    assert code == 0  # dense random hosts pass comfortably at eps 0.15
    report = json.loads(open(rpath).read())
    assert report["method"] == "sampled"


def test_certify_refutes_lopsided_graph(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--kind", "two-clique", "--n", "120", "--eps", "0.5",
          "--out", gpath])
    code = main(["certify", "--graph", gpath, "--eps", "0.05",
                 "--trials", "500", "--seed", "1"])
    assert code == 1


def test_walk_writes_trace_and_subgraph(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--kind", "gnp", "--n", "60", "--p", "0.5",
          "--seed", "3", "--out", gpath])
    tpath, spath = str(tmp_path / "t.txt"), str(tmp_path / "s.txt")
    assert main(["walk", "--graph", gpath, "--seed", "2", "--steps", "500",
                 "--trace", tpath, "--subgraph", spath]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    sub = load_graph(spath)
    assert sub.edge_count == out["distinct_edges"]
    assert len(open(tpath).read().split()) == 2 + 501


def test_tree_embedding_command(tmp_path, capsys):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--kind", "complete", "--n", "40", "--out", gpath])
    mpath = str(tmp_path / "hom.txt")
    assert main(["tree", "--host", gpath, "--kind", "nary",
                 "--branching", "5", "--depth", "2", "--seed", "4",
                 "--out-map", mpath]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["tree_vertices"] == 31
    assert len(open(mpath).read().splitlines()) == 31


def test_experiment_exit_codes(tmp_path, capsys):
    rpath = str(tmp_path / "rep.json")
    code = main(["experiment", "density", "--n", "100", "--p", "0.5",
                 "--alpha", "0.3", "--trials", "2", "--seed", "7",
                 "--out", rpath])
    report = json.loads(open(rpath).read())
    assert code == (0 if report["passed"] else 1)
    assert report["experiment"] == "density"
    assert report["config"]["seed"] == 7


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["experiment", "density", "--n", "100"])  # missing --seed
    assert info.value.code == 2


def test_bad_input_file_returns_2(tmp_path):
    missing = str(tmp_path / "nope.txt")
    assert main(["certify", "--graph", missing, "--eps", "0.1"]) == 2


def test_directory_path_returns_2(tmp_path, capsys):
    assert main(["certify", "--graph", str(tmp_path), "--eps", "0.1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text,line,message", [
    ('{"bogus": 1, "n": 20}', 1, "unknown config keys: bogus"),
    ("[1]", 1, "config must be a JSON object, got list"),
    ("{oops", 1, "Expecting property name enclosed in double quotes"),
    ('{"trials": 2,\n "eps" 0.1}', 2, "Expecting ':' delimiter"),
])
def test_bad_config_names_file_and_line(tmp_path, capsys, text, line, message):
    cpath = tmp_path / "c.json"
    cpath.write_text(text)
    code = main(["experiment", "density", "--n", "20", "--seed", "1",
                 "--config", str(cpath)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cpath}:{line}: {message}\n"


def test_config_with_known_keys_is_used(tmp_path, capsys):
    cpath = tmp_path / "c.json"
    cpath.write_text('{"disc_trials": 7, "generator_params": {"p": 0.4}}')
    main(["experiment", "density", "--n", "30", "--trials", "1", "--seed", "1",
          "--config", str(cpath)])
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["disc_trials"] == 7
    assert config["generator_params"] == {"p": 0.4}
