"""Fuzzed malformed graph, tree and trace files, and files that are not
UTF-8 or not gzip: every loader error names the file, and the CLI exits
2 with an ``error: <path>:`` line.  Counts of 2^31 and more, past the
int32 vertex ids, and counts past int64 are in the fuzz: each loader
refuses them before anything of their size is allocated, which
``small_peak`` checks."""

import contextlib
import gzip
import io
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.cli import main
from qwalk.graph import gen_complete, load_graph
from qwalk.trees import load_tree
from qwalk.walks import load_trace

SRC = Path(__file__).parents[1] / "src"
GOOD = ["0", "1", "2", "3"]
BAD = ["²", "-1", "--1", "x", "1.5"]  # '²'.isdigit() holds; int('²') fails
# 10^20, 10^12, 2^31, 2^62 and the least n with n * n >= 2^63
LARGE = ["100000000000000000000", "1000000000000", "2147483648", "4611686018427387904",
         "3037000500"]
FUZZ = settings(max_examples=200, derandomize=True, deadline=None)


@st.composite
def malformed_text(draw):
    """Lines of tokens with one blank line or one bad token forced into
    any line."""
    token = st.sampled_from(GOOD + BAD + LARGE)
    lines = draw(st.lists(st.lists(token, max_size=3), max_size=5))
    bad = draw(st.lists(token, max_size=2))
    if draw(st.booleans()):
        bad.insert(draw(st.integers(0, len(bad))), draw(st.sampled_from(BAD)))
    else:
        bad = []
    lines.insert(draw(st.integers(0, len(lines))), bad)
    # the closing newline keeps a trailing blank line a line of its own
    return "".join(" ".join(toks) + "\n" for toks in lines)


@contextlib.contextmanager
def small_peak(limit=2**26):
    """Fails when the block allocates more than ``limit`` bytes at once,
    as an array sized by a large token would; numpy reports its arrays to
    tracemalloc."""
    tracemalloc.start()
    try:
        yield
    finally:  # also when the block raises, as a refused file does
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < limit, f"peak {peak} bytes"


@contextlib.contextmanager
def written(text):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "input.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        yield path


@FUZZ
@given(malformed_text())
def test_certify_rejects_malformed_graph_file(text):
    with written(text) as path:
        assert_rejected_naming(path, load_graph)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["certify", "--graph", path, "--eps", "0.5",
                         "--trials", "10"])
        assert code == 2
        assert re.match(rf"error: {re.escape(path)}:\d+: ", err.getvalue())


def assert_rejected_naming(path, load):
    try:
        with small_peak():
            load(path)
    except ValueError as exc:
        assert re.match(rf"{re.escape(path)}:\d+: ", str(exc)), str(exc)
    else:
        raise AssertionError("malformed file accepted")


@FUZZ
@given(malformed_text())
def test_load_tree_rejects_malformed_file(text):
    with written(text) as path:
        assert_rejected_naming(path, load_tree)


@FUZZ
@given(malformed_text())
def test_load_trace_rejects_malformed_file(text):
    host = gen_complete(4)
    with written(text) as path:
        assert_rejected_naming(path, lambda p: load_trace(host, p))


@FUZZ
@given(st.lists(st.text("019-+_٣１²", min_size=1, max_size=3), min_size=1, max_size=4))
def test_load_trace_takes_the_tokens_load_graph_takes(toks):
    # decimal digits after at most one '-', as str.isdecimal judges them;
    # int() and numpy also read '+1' and '1_0'
    body = f"0 {len(toks)}\n0 {' '.join(toks)}\n"
    with written(body) as path:
        try:
            load_trace(gen_complete(20), path)
        except ValueError as exc:
            refused = ":2: the sequence must be integer vertex ids" in str(exc)
        else:
            refused = False
    assert refused == (not all(t.removeprefix("-").isdecimal() for t in toks))


def gz(data):
    return gzip.compress(data, mtime=0)


# (file name, file bytes, the line the error must name)
UNDECODABLE = [
    pytest.param("g.txt", b"3 1\n0 \xff\n", 2, id="graph"),
    pytest.param("t.txt", b"3\n1 0\n2 \xfe0\n", 3, id="tree"),
    pytest.param("w.txt", b"0 2\n0 1 \xff\n", 2, id="trace"),
    pytest.param("w.txt", b"\xc3\n0 1 0\n", 1, id="trace-header"),
    pytest.param("w.txt.gz", gz(b"0 2\n0 1 \xff\n"), 2, id="trace-gz"),
    pytest.param("w.txt.gz", b"0 2\n0 1 0\n", 1, id="trace-not-gzip"),
    pytest.param("w.txt.gz", gz(b"0 2\n0 1 0\n")[:-4], 1, id="trace-truncated-gzip"),
]
LOADERS = {"g": load_graph, "t": load_tree,
           "w": lambda p: load_trace(gen_complete(4), p)}


@pytest.mark.parametrize("name,data,line", UNDECODABLE)
def test_undecodable_file_names_its_line(tmp_path, name, data, line):
    path = str(tmp_path / name)
    with open(path, "wb") as fh:
        fh.write(data)
    want = f"{path}:{line}: not "
    with pytest.raises(ValueError) as info:
        LOADERS[name[0]](path)
    assert str(info.value).startswith(want)
    if name == "g.txt":
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["certify", "--graph", path, "--eps", "0.5"])
        assert code == 2
        assert err.getvalue() == f"error: {path}:2: not UTF-8 text\n"


@pytest.mark.parametrize("header", ["99999999999999999999 0", "1000000000000 0",
                                    "2147483648 1"])
def test_vertex_count_past_the_key_bound_names_line_1(tmp_path, header):
    # vertex ids are int32, so n < 2^31, which keeps every key u*n+v in
    # int64; a larger n is refused at its header line, before anything is
    # allocated for it
    path = str(tmp_path / "g.txt")
    with open(path, "w") as fh:
        fh.write(header + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["certify", "--graph", path, "--eps", "0.1"])
    assert code == 2
    n = header.split()[0]
    assert err.getvalue() == (f"error: {path}:1: vertex count {n} is too large: "
                              f"vertex ids need n < 2^31\n")


def test_vertex_count_out_of_memory_names_line_1(tmp_path):
    # n = 2^31 - 1 passes the bound, but its 16 GiB indptr cannot be had
    # in a child whose address space is capped at 4 GiB; without that
    # cap the allocation would be filled, so this header is loaded only
    # in the capped child, never in this process
    path = str(tmp_path / "g.txt")
    with open(path, "w") as fh:
        fh.write("2147483647 0\n")
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
             "from qwalk.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", child, "certify", "--graph", path,
                           "--eps", "0.1"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr == (f"error: {path}:1: vertex count 2147483647 needs more "
                           f"memory than there is\n")


@pytest.mark.parametrize("text,line,edge,first", [
    ("3 2\n0 1\n0 1\n", 3, "0 1", 2),
    ("4 4\n0 2\n1 3\n0 2\n0 2\n", 4, "0 2", 2),
    ("4 4\n1 3\n0 2\n0 2\n1 3\n", 4, "0 2", 3),
])
def test_repeated_edge_line_names_the_line_it_repeats(tmp_path, text, line, edge, first):
    # a repeated line would collapse into one edge, and the graph would
    # load with fewer edges than its header promises
    path = str(tmp_path / "g.txt")
    with open(path, "w") as fh:
        fh.write(text)
    want = f"{path}:{line}: edge {edge} repeats line {first}"
    with pytest.raises(ValueError) as info:
        load_graph(path)
    assert str(info.value) == want
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["certify", "--graph", path, "--eps", "0.5"])
    assert code == 2 and err.getvalue() == f"error: {want}\n"


@pytest.mark.parametrize("size", ["99999999999999999999", "1000000000000", "2147483648"])
def test_tree_header_past_its_lines_names_line_1(tmp_path, size):
    # the header is checked against the file's lines before a parent
    # list of its size is built
    path = str(tmp_path / "t.txt")
    with open(path, "w") as fh:
        fh.write(f"{size}\n1 0\n")
    with pytest.raises(ValueError) as info:
        load_tree(path)
    assert str(info.value) == (f"{path}:1: vertex count {size} needs {int(size) - 1} "
                               f"edge lines, found 1")
