"""Fuzzed malformed graph, tree and trace files: every loader error names
the file, and the CLI exits 2 with an ``error: <path>:`` line."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.cli import main
from qwalk.graph import gen_complete
from qwalk.trees import load_tree
from qwalk.walks import load_trace

GOOD = ["0", "1", "2", "3"]
BAD = ["²", "-1", "--1", "x", "1.5"]  # '²'.isdigit() holds; int('²') fails
FUZZ = settings(max_examples=200, derandomize=True, deadline=None)


@st.composite
def malformed_text(draw, read_lines=None):
    """Lines of tokens with one blank line or one bad token forced into
    the first ``read_lines`` lines (all lines when None)."""
    token = st.sampled_from(GOOD + BAD)
    lines = draw(st.lists(st.lists(token, max_size=3), max_size=5))
    last = len(lines) if read_lines is None else min(len(lines), read_lines - 1)
    bad = draw(st.lists(token, max_size=2))
    if draw(st.booleans()):
        bad.insert(draw(st.integers(0, len(bad))), draw(st.sampled_from(BAD)))
    else:
        bad = []
    lines.insert(draw(st.integers(0, last)), bad)
    # the closing newline keeps a trailing blank line a line of its own
    return "".join(" ".join(toks) + "\n" for toks in lines)


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
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["certify", "--graph", path, "--eps", "0.5",
                         "--trials", "10"])
        assert code == 2
        assert err.getvalue().startswith(f"error: {path}:")


def assert_rejected_naming(path, load):
    try:
        load(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:")
    else:
        raise AssertionError("malformed file accepted")


@FUZZ
@given(malformed_text())
def test_load_tree_rejects_malformed_file(text):
    with written(text) as path:
        assert_rejected_naming(path, load_tree)


@FUZZ
@given(malformed_text(read_lines=2))
def test_load_trace_rejects_malformed_file(text):
    host = gen_complete(4)
    with written(text) as path:
        assert_rejected_naming(path, lambda p: load_trace(host, p))
