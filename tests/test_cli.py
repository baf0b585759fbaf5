"""End-to-end CLI behavior and exit codes."""

import json
import re
import shlex
from pathlib import Path

import pytest

from qwalk.cli import build_parser, main
from qwalk.experiments import TOLERANCES
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


@pytest.mark.parametrize("kind,message", [
    ("path", "path trees need edges"),
    ("nary", "nary trees need branching"),
    ("random", "random trees need edges")])
def test_tree_without_its_parameter_returns_2(tmp_path, capsys, kind, message):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--kind", "complete", "--n", "5", "--out", gpath])
    capsys.readouterr()
    assert main(["tree", "--host", gpath, "--kind", kind, "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_generate_names_two_clique_host_both_ways(tmp_path):
    paths = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
    for kind, path in zip(("two-clique", "two_clique_bridge"), paths):
        assert main(["generate", "--kind", kind, "--n", "30", "--eps", "0.5",
                     "--out", path]) == 0
    assert open(paths[0]).read() == open(paths[1]).read()


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
    ('{"generator_params": 3}', 1,
     "config key 'generator_params' must be dict, got int"),
    ('{"disc_trials": "x"}', 1, "config key 'disc_trials' must be int, got str"),
    ('{"trials": "x"}', 1, "config key 'trials' must be int, got str"),
    ('{"trials": true}', 1, "config key 'trials' must be int, got bool"),
    ('{"alpha": false}', 1, "config key 'alpha' must be float, got bool"),
    ('{"alpha": "0.2"}', 1, "config key 'alpha' must be float, got str"),
    ('{"start": 1.5}', 1, "config key 'start' must be int or None, got float"),
    ('{"schedule": {}}', 1, "config key 'schedule' must be list, got dict"),
    ('{"generator_params": {"p": "x"}}', 1,
     "config key 'generator_params' item 'p' must be float, got str"),
    ('{"schedule": ["a"]}', 1, "config key 'schedule' item 0 must be int, got str"),
    ('{"tolerances": {"rel_edges": "x"}}', 1,
     "config key 'tolerances' item 'rel_edges' must be float, got str"),
    ('{"crossing_interval": [1]}', 1,
     "config key 'crossing_interval' must hold 2 items, got 1"),
    ('{"monotone_steps": [2, true]}', 1,
     "config key 'monotone_steps' item 1 must be int, got bool"),
    ('{"generator_params": {"p": 2}}', 1, "generator p must lie in [0, 1]"),
    ('{"degree_sweep": [0]}', 1,
     "tree_max_degree and degree_sweep caps must be at least 2"),
    ('{"schedule": [-1, 2]}', 1, "schedule steps must be non-negative"),
    ('{"alpha": -1}', 1, "alpha must be non-negative"),
    ('{"mixing_trials": 0}', 1,
     "disc_trials and mixing_trials must be at least 1"),
    ('{"monotone_steps": [3, 5]}', 1,
     "monotone_steps must be steps of the schedule"),
    ('{"generator": "star"}', 1, "unknown generator 'star'; choose from "
     "['complete', 'gnp', 'two_clique_bridge']"),
    ('{"tree_kind": "star"}', 1,
     "unknown tree_kind 'star'; choose from ['nary', 'path', 'random']"),
    ('{"tolerances": {"rel_edge": 0.1}}', 1,
     "unknown tolerances ['rel_edge']; choose from ['burn_in', 'disc_slack', "
     "'frac_within', 'rel_distinct', 'rel_edges', 'rel_visits', 'tv_at_10']"),
    ('{"crossing_interval": [0.9, 0.1]}', 1,
     "crossing_interval [lo, hi] needs 0 <= lo < hi <= 1"),
    ('{"start": 20}', 1, "start must be a vertex of the host, 0..19"),
    ('{"tree_depth": -1}', 1, "tree_depth must be non-negative"),
    ('{"tree_branching": 0}', 1, "tree_branching must be at least 1"),
    ('{"generator_params": {"pp": 0.1}}', 1,
     "unknown generator_params ['pp']; choose from ['eps', 'p']"),
])
def test_bad_config_names_file_and_line(tmp_path, capsys, text, line, message):
    cpath = tmp_path / "c.json"
    cpath.write_text(text)
    code = main(["experiment", "density", "--n", "20", "--seed", "1",
                 "--config", str(cpath)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cpath}:{line}: {message}\n"


@pytest.mark.parametrize("flags,message", [
    (["--p", "2"], "generator p must lie in [0, 1]"),
    (["--alpha", "-1"], "alpha must be non-negative"),
    (["--seed", "-1"], "a non-negative seed is mandatory"),
    (["--start", "99"], "start must be a vertex of the host, 0..19"),
])
def test_bad_flag_value_names_no_file(tmp_path, capsys, flags, message):
    cpath = tmp_path / "c.json"
    cpath.write_text('{"trials": 1}')
    code = main(["experiment", "density", "--n", "20", "--seed", "1",
                 "--config", str(cpath), *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["walk", "--start", "7", "--steps", "5"], "vertex 7 is not in the host's 0..2"),
    (["tree", "--root-image", "9", "--kind", "path", "--edges", "4"],
     "vertex 9 is not in the host's 0..2"),
])
def test_vertex_outside_host_returns_2(tmp_path, capsys, argv, message):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--kind", "complete", "--n", "3", "--out", gpath])
    flag = "--graph" if argv[0] == "walk" else "--host"
    assert main([argv[0], flag, gpath, "--seed", "1", *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["walk", "--start", "0", "--steps", "-5"],
     "a walk takes a non-negative number of steps, got -5"),
    (["walk", "--start", "0", "--alpha", "-1"],
     "a walk takes a non-negative number of steps, got -9"),
    (["tree", "--kind", "path", "--edges", "-1"],
     "a path takes a non-negative number of edges, got -1"),
])
def test_negative_length_returns_2(tmp_path, capsys, argv, message):
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--kind", "complete", "--n", "3", "--out", gpath])
    flag = "--graph" if argv[0] == "walk" else "--host"
    assert main([argv[0], flag, gpath, "--seed", "1", *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "1e300"])
@pytest.mark.parametrize("argv", [
    ["walk", "--graph", "{host}", "--seed", "1", "--start", "0", "--alpha"],
    ["experiment", "density", "--n", "20", "--seed", "1", "--trials", "1", "--alpha"],
    ["experiment", "pathology", "--generator", "two_clique_bridge", "--n", "40",
     "--seed", "1", "--trials", "1", "--generator-eps"],
    ["generate", "--kind", "two-clique", "--n", "20", "--out", "{out}", "--eps"],
], ids=["walk-alpha", "experiment-alpha", "experiment-generator-eps", "generate-eps"])
def test_extreme_float_flags_end_in_an_exit_code(tmp_path, capsys, argv, value):
    # alpha*n^2 steps and the two-clique size from any float: an exit code
    # and a message, never an uncaught OverflowError
    host = str(tmp_path / "g.txt")
    main(["generate", "--kind", "complete", "--n", "20", "--out", host])
    capsys.readouterr()
    *head, flag = [a.format(host=host, out=str(tmp_path / "out.txt")) for a in argv]
    try:
        code = main([*head, f"{flag}={value}"])  # "=" keeps "-inf" a value
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def test_walk_too_long_for_memory_returns_2(tmp_path, capsys):
    # 4e17 steps fit in int64, but their 2.8 EiB step array fits in no
    # address space: numpy refuses it at once, even where memory is
    # overcommitted, and the refusal ends in exit 2 and a message
    host = str(tmp_path / "g.txt")
    main(["generate", "--kind", "complete", "--n", "20", "--out", host])
    capsys.readouterr()
    assert main(["walk", "--graph", host, "--seed", "1", "--start", "0", "--alpha", "1e15"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_generate_non_finite_eps_names_the_flag(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--kind", "two-clique", "--n", "20", "--eps", value,
              "--out", str(tmp_path / "g.txt")])
    assert info.value.code == 2
    assert f"argument --eps: must be finite, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("exhaustive", [[], ["--exhaustive"]],
                         ids=["sampled", "exhaustive"])
@pytest.mark.parametrize("eps", ["0.1", "1.5", "nan"])
def test_certify_eps_outside_one_to_n_returns_2(tmp_path, capsys, eps, exhaustive):
    # no set has 1.5 * 4 = 6 of 4 vertices; 0.1 * 4 < 1; NaN is no size
    gpath = str(tmp_path / "g.txt")
    main(["generate", "--kind", "complete", "--n", "4", "--out", gpath])
    capsys.readouterr()
    assert main(["certify", "--graph", gpath, "--eps", eps, *exhaustive]) == 2
    assert capsys.readouterr() == ("", f"error: eps*n must lie in [1, n], "
                                       f"got eps={float(eps)} and n=4\n")


def test_eps_too_small_for_n_names_file_and_line(tmp_path, capsys):
    cpath = tmp_path / "c.json"
    cpath.write_text('{"eps": 0.01, "start": 0}')
    code = main(["experiment", "preservation", "--n", "40", "--seed", "1",
                 "--trials", "1", "--config", str(cpath)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {cpath}:1: eps*n must be at least 1 for preservation's "
        "discrepancy checks, got eps=0.01 and n=40\n")


@pytest.mark.filterwarnings("ignore:host minimum degree")
@pytest.mark.parametrize("source", ["flag", "file"])
def test_eps_n_checked_on_the_eps_that_runs(tmp_path, capsys, source):
    # the default eps = 0.05 is too small for n = 10, but the eps given
    # by a flag or by the file is what runs, so neither fails on the default
    cpath = tmp_path / "c.json"
    cpath.write_text('{"eps": 0.2}' if source == "file" else '{"trials": 1}')
    argv = ["experiment", "preservation", "--n", "10", "--seed", "1",
            "--trials", "1", "--config", str(cpath)]
    code = main(argv + (["--eps", "0.2"] if source == "flag" else []))
    assert code in (0, 1), capsys.readouterr().err
    assert json.loads(capsys.readouterr().out)["config"]["eps"] == 0.2


def test_config_with_known_keys_is_used(tmp_path, capsys):
    cpath = tmp_path / "c.json"
    cpath.write_text('{"disc_trials": 7, "generator_params": {"p": 0.4}}')
    main(["experiment", "density", "--n", "30", "--trials", "1", "--seed", "1",
          "--config", str(cpath)])
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["disc_trials"] == 7
    assert config["generator_params"] == {"p": 0.4}


def test_config_values_survive_absent_flags(tmp_path, capsys):
    cpath = tmp_path / "c.json"
    cpath.write_text('{"trials": 2, "alpha": 0.2, "eps": 0.1, '
                     '"gamma_coefficient": 1}')  # an int is a valid float
    main(["experiment", "density", "--n", "20", "--seed", "1",
          "--config", str(cpath)])
    report = json.loads(capsys.readouterr().out)
    config = report["config"]
    assert (config["trials"], config["alpha"], config["eps"]) == (2, 0.2, 0.1)
    assert config["gamma_coefficient"] == 1
    assert len(report["per_trial"]) == 2


def test_given_flags_override_config(tmp_path, capsys):
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({
        "trials": 3, "alpha": 1, "eps": 0.2, "generator": "complete",
        "start": 2, "disc_trials": 9,
        "generator_params": {"p": 0.4, "eps": 0.3}}))
    main(["experiment", "density", "--n", "20", "--seed", "1",
          "--config", str(cpath), "--trials", "1", "--alpha", "0.3",
          "--eps", "0.1", "--generator", "gnp", "--start", "5",
          "--p", "0.6", "--generator-eps", "0.25"])
    config = json.loads(capsys.readouterr().out)["config"]
    assert (config["trials"], config["alpha"], config["eps"],
            config["generator"], config["start"]) == (1, 0.3, 0.1, "gnp", 5)
    assert config["generator_params"] == {"p": 0.6, "eps": 0.25}
    assert config["disc_trials"] == 9


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line)[1:] for line in lines
             if line.startswith("qwalk ")]
    assert len(argvs) == 8
    for argv in argvs:
        build_parser().parse_args(argv)


def test_readme_tolerances_match_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("* Experiment config")[1].split("## Reports")[0]
    listed = re.findall(r"^  - `(\w+)`: ([\d.]+) ", section, re.MULTILINE)
    assert {name: float(value) for name, value in listed} == TOLERANCES


# every numeric flag of every command, each with the arguments that make
# the command run on a tiny host when the flag is left at its base value
_EXPERIMENT = ["experiment", "{name}", "--n", "40", "--seed", "1", "--trials", "1"]
_SWEEP_BASES = {
    "generate": (["generate", "--kind", "{kind}", "--n", "20", "--seed", "1",
                  "--out", "{out}"], ["--n", "--p", "--eps", "--seed"]),
    "certify": (["certify", "--graph", "{host}", "--eps", "0.5", "--trials", "1",
                 "--seed", "1"], ["--eps", "--trials", "--seed"]),
    "walk": (["walk", "--graph", "{host}", "--seed", "1"],
             ["--seed", "--steps", "--alpha", "--start", "--eps"]),
    "tree": (["tree", "--host", "{host}", "--kind", "{kind}", "--seed", "1", "--edges", "5",
              "--branching", "3"],
             ["--edges", "--branching", "--depth", "--max-degree", "--seed", "--root-image"]),
    **{f"experiment-{name}": (_EXPERIMENT + (["--generator", "two_clique_bridge"]
                                             if name == "pathology" else []),
                              ["--n", "--p", "--generator-eps", "--alpha", "--eps",
                               "--trials", "--seed", "--start"])
       for name in ["density", "visits", "preservation", "pathology", "mixing",
                    "tree_counterexample", "tree_embedding"]},
}
_SWEEP = [(command, flag) for command, (_, flags) in _SWEEP_BASES.items() for flag in flags]


@pytest.fixture(scope="module")
def sweep_host(tmp_path_factory):
    host = str(tmp_path_factory.mktemp("sweep") / "g.txt")
    main(["generate", "--kind", "complete", "--n", "20", "--out", host])
    return host


def _sweep_argv(command, flag, value, host, out):
    """The command's base arguments with ``flag`` given once, as --flag=value."""
    base, _ = _SWEEP_BASES[command]
    kind = {"--eps": "two-clique", "--depth": "nary", "--branching": "nary"}.get(
        flag, "random" if command == "tree" else "gnp")
    name = command.removeprefix("experiment-")
    argv = [a.format(host=host, out=out, kind=kind, name=name) for a in base]
    if command == "walk":  # a length, and a start unless the flag is one of them
        argv += [] if flag in ("--steps", "--alpha") else ["--steps", "10"]
        argv += [] if flag in ("--start", "--eps") else ["--start", "0"]
    if flag in argv:  # the value under test replaces the base's
        i = argv.index(flag)
        del argv[i:i + 2]
    return [*argv, f"{flag}={value}"]  # "=" keeps "-inf" a value


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e300"])
@pytest.mark.parametrize("command,flag", _SWEEP, ids=[f"{c}{f}" for c, f in _SWEEP])
def test_numeric_flag_sweep_ends_in_an_exit_code(tmp_path, capsys, sweep_host, command,
                                                 flag, value):
    # every command x every numeric flag x the boundary values: an exit
    # code and at most a one-line message, never an uncaught exception
    argv = _sweep_argv(command, flag, value, sweep_host, str(tmp_path / "out.txt"))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err
