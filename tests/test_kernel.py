"""The C kernel against the numpy reference: same words, same lists, same
graphs.

Every test here builds its models, draws its words and builds its graphs
on both backends, chosen with the fixtures in conftest.py, and requires
equal sequences, equal ``consumed`` counts, equal CSR arrays and equal
errors.
"""

import hashlib
import importlib
import inspect
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import test_experiments
import test_walks
from qwalk import graph, rng
from qwalk import trees as trees_module
from qwalk import walks as walks_module
from qwalk.certify import count_c4_labelled, discrepancy_refined, discrepancy_sampled, trace_p4
from qwalk.experiments import ExperimentConfig, run_experiment
from qwalk.graph import (Graph, VertexSet, _mark_rows, _pairs_graph, _vertex_count,
                         build_graph, gen_complete, gen_gnp,
                         gen_two_clique_bridge, neighbour_counts, save_graph)
from qwalk.trees import (build_tree, decompose_tree, gen_nary_tree, gen_path_tree,
                         gen_random_tree, image_subgraph, random_homomorphism)
from qwalk.walks import ListModel, list_subgraph, run_walk, step_positions, walk_subgraph

SRC = Path(__file__).parents[1] / "src"
# the package re-exports the function ``certify`` under the module's name
certify_module = importlib.import_module("qwalk.certify")
# each example sets the backend it needs; the fixtures restore it after the test
PER_EXAMPLE = dict(derandomize=True, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])

# below, at and above 2^63, up to the largest seed the kernel takes
SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63, 2**64 - 1),
                  st.sampled_from([0, 1, 2**32 - 1, 2**32 + 5, 2**63, 2**63 + 7,
                                   2**64 - 1]))


def test_kernel_loads_where_gcc_is_present():
    # a silent fallback to numpy must not pass unnoticed where the
    # kernel can be built
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    assert rng._load() is not None


def test_backend_names_the_loaded_kernel(monkeypatch):
    lib = rng._load()
    if lib is not None:
        monkeypatch.setattr(rng, "_lib", lib)
        assert rng.backend() == "c"
    monkeypatch.setattr(rng, "_lib", False)
    assert rng.backend() == "numpy"


def test_import_neither_builds_nor_loads_the_kernel():
    # numpy imports ctypes itself, so the test reads rng's own namespace
    code = "import qwalk, qwalk.rng as r; print('ctypes' in vars(r), r._lib is None)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    assert out.split() == ["False", "True"]


FOOTPRINT = """
import sys
from qwalk import rng
from qwalk.experiments import ExperimentConfig, run_experiment
assert rng.backend() == "c"
run_experiment(ExperimentConfig(experiment="density", n=300, seed=5, trials=1))
run_experiment(ExperimentConfig(experiment="tree_counterexample", n=200, seed=4,
                                generator="complete", eps=0.1, trials=1, disc_trials=300))
print(*sorted({"numpy.random", "hashlib", "_hashlib", "subprocess"} & set(sys.modules)))
"""


def test_kernel_backed_runs_load_neither_openssl_nor_numpy_random(c_backend):
    # a walk's edges and a tree image, with the subset sampler, through the
    # cached kernel: nothing loads numpy.random or hashlib, each of which
    # maps OpenSSL's libcrypto, nor subprocess, which only a build needs
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    assert out.split() == []


@pytest.mark.parametrize("missing", [(), ("_sha256",), ("_sha256", "_sha2")])
def test_kernel_cache_name_is_the_sha256_of_flags_and_source(monkeypatch, missing):
    # CPython's built-in sha256 or, where it is missing, hashlib's names
    # the cached build as hashlib always did
    for name in missing:
        monkeypatch.setitem(sys.modules, name, None)
    data = " ".join(rng._FLAGS).encode() + b"\n" + rng._SOURCE.read_bytes()
    assert rng._sha256_hex(data) == hashlib.sha256(data).hexdigest()


def _pair(g, seed, c_backend, monkeypatch):
    monkeypatch.setattr(rng, "_lib", c_backend)
    kernel = ListModel(g, seed)
    monkeypatch.setattr(rng, "_lib", False)
    reference = ListModel(g, seed)
    assert kernel._lib is not None and reference._lib is None
    return kernel, reference


def _host(n, p, gseed):
    """G(n, p) plus a pendant path 0 - n - n+1 and a pendant vertex n+2 on
    1, so the host has degree-1 vertices and may have isolated ones."""
    edges = gen_gnp(n, p, gseed).edge_array().tolist()
    return build_graph(n + 3, edges + [(0, n), (n, n + 1), (1, n + 2)])


def _outcome(call):
    try:
        return np.asarray(call()).tolist()
    except ValueError as exc:
        return f"ValueError: {exc}"


# (what, vertex, walk steps or tree edges, tree seed)
OPS = st.lists(st.tuples(st.sampled_from(["walk", "tree", "next"]), st.integers(0, 40),
                         st.integers(0, 600), st.integers(0, 50)), min_size=1, max_size=8)


@settings(max_examples=60, **PER_EXAMPLE)
@given(seed=SEEDS, n=st.integers(2, 30), p=st.sampled_from([0.1, 0.3, 0.7]),
       gseed=st.integers(0, 99), ops=OPS)
def test_mixed_consumers_match_reference(c_backend, monkeypatch, seed, n, p, gseed, ops):
    # walks (a repeated start continues a walk split across calls), trees
    # and single entries on one model; a start on an isolated vertex
    # raises on both backends after the same entries are taken
    g = _host(n, p, gseed)
    kernel, reference = _pair(g, seed, c_backend, monkeypatch)
    for what, v, size, tseed in ops:
        v %= g.n
        tree = gen_random_tree(size + 1, 4, tseed)
        call = {"walk": lambda m: run_walk(g, m, v, size).sequence,
                "tree": lambda m: random_homomorphism(g, tree, m, v).image,
                "next": lambda m: m.next_entry(v)}[what]
        assert _outcome(lambda: call(kernel)) == _outcome(lambda: call(reference))
        assert np.array_equal(kernel.consumed, reference.consumed)


def test_long_lists_cross_many_blocks(c_backend, monkeypatch):
    # a K_4 with a pendant path, a K_2 (degrees 1) and a path (degrees 1,
    # 2, 1): each list yields thousands of entries, far past the
    # reference's 2048-word buffers; walks split at every step count mod
    # 4 leave each list's look-ahead at every offset of its 4-word Philox
    # block between calls, and ``consumed`` is compared at each split
    for edges in ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
                  [(0, 1)], [(0, 1), (1, 2)]):
        g = build_graph(max(map(max, edges)) + 1, edges)
        offsets = set()
        for seed in (0, 5, 2**32 + 5, 2**63 + 7, 2**64 - 1):
            kernel, reference = _pair(g, seed, c_backend, monkeypatch)
            for m in (kernel, reference):
                m.parts = [run_walk(g, m, g.n - 1, 12_000).sequence,
                           random_homomorphism(g, gen_random_tree(3000, 4, 1), m, g.n - 2).image,
                           run_walk(g, m, 0, 7_001).sequence]
                end = int(m.parts[-1][-1])
                for r in range(4):  # each call continues the walk before it
                    walk = run_walk(g, m, end, 1000 + r).sequence
                    m.parts += [walk, m.consumed]
                    end = int(walk[-1])
            for a, b in zip(kernel.parts, reference.parts):
                assert np.array_equal(a, b)
            assert kernel.consumed.max() > 2 * 2048
            offsets.update(x for c in kernel.parts[4::2] for x in (c % 4).tolist())
        assert offsets == {0, 1, 2, 3}


def _sibling_tree(runs):
    """The tree whose parents come in ``runs`` of (parent, length): the
    children of one vertex in a row."""
    return build_tree([None] + [p for p, length in runs for _ in range(length)])


# runs below, at and above the 32 entries of a vertex's chunk, and runs
# that cross several; vertex 0's second run and vertex 1's second run
# start at t > 0, inside a chunk
SIBLING_RUNS = [(0, 31), (1, 32), (2, 33), (0, 256), (3, 257), (1, 40), (40, 5), (5, 31),
                (5, 33), (0, 1)]


@pytest.mark.parametrize("host", ["rows", "keys"])
def test_sibling_runs_match_reference(c_backend, monkeypatch, host):
    # a run of equal parents reads consecutive entries of the kernel's
    # chunks across their boundaries, and the reference's buffer: the same
    # images and counts, and the same state, which a second tree, rooted
    # where the first took entries, and then a walk read on from
    keys = gen_gnp(150, 0.3, 1).edge_codes()
    g = _rows_graph(150, keys) if host == "rows" else Graph(150, keys.copy())
    assert (g._rows is not None) == (host == "rows")
    first, second = _sibling_tree(SIBLING_RUNS), _sibling_tree([(0, 100), (7, 64), (7, 3)])
    for seed in (0, 7, 2**64 - 1):
        kernel, reference = _pair(g, seed, c_backend, monkeypatch)
        for m in (kernel, reference):
            image = random_homomorphism(g, first, m, 3).image
            m.parts = [image, m.consumed]
            image = random_homomorphism(g, second, m, int(image[1])).image
            m.parts += [image, m.consumed, run_walk(g, m, int(image[1]), 3000).sequence,
                        m.consumed]
        assert kernel.parts[1][3] == 31 + 256 + 1 and kernel.parts[3][kernel.parts[0][1]] > 100
        for a, b in zip(kernel.parts, reference.parts, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("host", ["rows", "keys"])
def test_chunk_boundaries_match_reference(c_backend, monkeypatch, host):
    # the kernel makes a vertex's entries 32 at a time: one vertex's list
    # is taken up to entries 31, 32, 33, 64 and 65, each a run of siblings
    # or a single entry, and then a tree and a walk read on from the model
    keys = gen_gnp(120, 0.4, 2).edge_codes()
    g = _rows_graph(120, keys) if host == "rows" else Graph(120, keys.copy())
    assert (g._rows is not None) == (host == "rows")
    tree = gen_random_tree(400, 4, 3)
    for seed in (0, 9, 2**64 - 1):
        kernel, reference = _pair(g, seed, c_backend, monkeypatch)
        for m in (kernel, reference):
            m.parts = []
            for upto in (31, 32, 33, 64, 65):
                m.parts += [m.consume([0] * (upto - int(m.consumed[5])), 5), m.consumed]
            m.parts += [random_homomorphism(g, tree, m, 5).image, m.consumed,
                        run_walk(g, m, 5, 5000).sequence, m.consumed]
        assert kernel.parts[9][5] == 65
        for a, b in zip(kernel.parts, reference.parts, strict=True):
            assert np.array_equal(a, b)


def test_host_past_2_16_vertices_takes_int32_chunks(c_backend, monkeypatch):
    # past 2^16 vertices a chunk holds 16 int32 entries, not 32 uint16: a
    # 1e5-step walk on the 70,000-vertex cycle, built from keys, crosses
    # many chunks of the vertices near its start, and reaches ids past 2^16
    n = 70_000
    u = np.arange(n - 1, dtype=np.int64)
    g = Graph(n, np.sort(np.append(u * n + u + 1, n - 1)))
    assert g._rows is None
    for seed in (1, 2**64 - 1):
        kernel, reference = _pair(g, seed, c_backend, monkeypatch)
        walks = [run_walk(g, m, 0, 100_000).sequence for m in (kernel, reference)]
        assert np.array_equal(walks[0], walks[1])
        assert np.array_equal(kernel.consumed, reference.consumed)
        assert kernel.consumed.max() > 16 and walks[0].max() >= 2**16


def _int32_host():
    """A host of 70,000 vertices built from keys, so that its chunks hold
    16 int32 entries, whose edges join 150 vertices below 2^16 and 150 from
    2^16 on at random: a walk stays among those 300 and crosses many of
    their chunks."""
    n, core = 70_000, np.r_[0:150, 2**16:2**16 + 150]
    u, v = np.triu_indices(len(core), 1)
    keep = np.random.default_rng(4).random(len(u)) < 0.3
    return Graph(n, np.sort(core[u[keep]] * n + core[v[keep]]))


# hosts of the helper's tests: G(n, 1/2) rows of 4, 32 and 33 words, the
# last too wide for fill_wide's two registers and so filled by fill_pdep, a
# sparse host built from keys, and one past 2^16 vertices
HELPER_HOSTS = {"gnp200": lambda: gen_gnp(200, 0.5, 3), "gnp2000": lambda: gen_gnp(2000, 0.5, 3),
                "gnp2112": lambda: gen_gnp(2112, 0.5, 3),
                "keys": lambda: Graph(3000, gen_gnp(3000, 0.03, 3).edge_codes()),
                "int32": _int32_host}


def _walk_call(lib, model, start, steps, helper, mark):
    """One qw_consume walk of ``model``'s lists from ``start``, given with
    ``helper`` a zeroed work of its helper's size and else none: (the rows
    it marked, or with ``mark`` false its image, and work[0:2] or None)."""
    g = model.graph
    lists = (g.indices, None, None) if g._ranks is None else (None, g.bit_rows(), g._ranks)
    rows = graph._clear_rows(g.n) if mark else None
    image = np.full(1 if mark else steps + 1, start, dtype=np.int32)
    work = np.zeros(walks_module._ahead_words(g.n), dtype=np.uint64) if helper else None
    done = lib.qw_consume(model.seed, rng.DOMAIN_LIST, g.n, g.indptr.ctypes.data,
                          *(None if a is None else a.ctypes.data for a in lists),
                          model._state.ctypes.data, model._taken.ctypes.data, None, steps,
                          image.ctypes.data, None if rows is None else rows.ctypes.data,
                          None if work is None else work.ctypes.data)
    assert done == steps
    return image if rows is None else rows, None if work is None else work[:2].tolist()


@pytest.mark.parametrize("host", sorted(HELPER_HOSTS))
def test_walk_helper_changes_no_output(c_backend, host):
    # a walk given work runs with the kernel's helper thread, which fills
    # its chunks ahead, whatever the CPUs: the rows that the walk marks, or
    # the image that it writes, and the model's state and counts are those
    # of a walk given none, for walks that end at and next to the edges of chunks
    # and of 4-chunk groups, and for long ones; and so they are for a model
    # walked in two calls, the second starting with its vertices inside
    # their groups, whose pending requests the first call dropped
    g = HELPER_HOSTS[host]()
    start, c = int(g.degrees.argmax()), 32 if g.n <= 2**16 else 16
    marks = (False, True) if g.n < 2**16 else (False,)  # no 70,000 bit rows
    for steps in (0, 1, 31, 32, 33, 127, 128, 129, 200_000):
        for mark in marks:
            runs = []
            for helper in (False, True):
                m = ListModel(g, 11)
                runs.append([_walk_call(c_backend, m, start, steps, helper, mark)[0],
                             m._state, m._taken])
            for a, b in zip(*runs, strict=True):
                assert np.array_equal(a, b), (steps, mark)
    runs = []
    for helper in (False, True):
        m = ListModel(g, 12)
        image = _walk_call(c_backend, m, start, 150_001, helper, False)[0]
        mid = m._taken.copy()
        runs.append([image, _walk_call(c_backend, m, int(image[-1]), 200_000, helper,
                                       marks[-1])[0], m._state, m._taken])
    assert ((mid % (4 * c) > c) & (mid > 0)).sum() > 50
    for a, b in zip(*runs, strict=True):
        assert np.array_equal(a, b)


def test_walk_helper_counts_its_chunks(c_backend):
    # a walk given work writes into its header how many chunks the walker
    # copied from the helper and how many it filled itself: the two are the
    # chunks the walk needed, a vertex's first included, and on 2e5-step
    # walks, the second resuming the first, the helper made some where the
    # process may use a second CPU (on one, the scheduler may not run it
    # during a 2 ms walk); a walk given no work runs without the helper
    g = gen_gnp(200, 0.5, 3)
    m = ListModel(g, 13)
    for start in (0, 7):
        before = m._taken.copy()
        copied, filled = _walk_call(c_backend, m, start, 200_000, True, True)[1]
        after = m._taken
        need = (after // 32 - before // 32 + ((before == 0) & (after > 0))).sum()
        assert copied + filled == need and (copied > 0 or rng._cpus() == 1)
    assert _walk_call(c_backend, m, 0, 200_000, False, True)[1] is None


def test_walks_take_the_helper_by_length_cpus_and_memory(kernel_calls, monkeypatch):
    # a walk takes the helper, passing its work, from _AHEAD_STEPS steps
    # on, where the process may use 2 CPUs and the work takes no more bytes
    # than the host's rows and ranks; a shorter walk, a tree, a process on
    # one CPU and G(200, 1/2), whose rows and ranks take 9.6 kB, pass no work
    def passed():
        return kernel_calls.args["qw_consume"][13] is not None

    g, small = gen_gnp(2000, 0.5, 3), gen_gnp(200, 0.5, 3)
    steps = walks_module._AHEAD_STEPS
    monkeypatch.setattr(rng, "_cpus", lambda: 2)
    walks_module.walk_edges(g, ListModel(g, 1), 0, steps)
    assert passed()
    run_walk(g, ListModel(g, 1), 0, steps)
    assert passed()
    walks_module.walk_edges(g, ListModel(g, 1), 0, steps - 1)
    assert not passed()
    random_homomorphism(g, gen_random_tree(steps + 1, 4, 1), ListModel(g, 1), 0)
    assert not passed()
    walks_module.walk_edges(small, ListModel(small, 1), 0, steps)
    assert not passed()
    monkeypatch.setattr(rng, "_cpus", lambda: 1)
    walks_module.walk_edges(g, ListModel(g, 1), 0, steps)
    assert not passed()


def _rows_graph(n, keys):
    """The graph of sorted distinct ``keys`` built from the bit rows that
    the graph of those keys packs, on either backend."""
    return Graph._from_rows(Graph(n, np.asarray(keys, dtype=np.int64)).bit_rows())


def _select_hosts(n):
    """Keys of graphs whose rows end at bit (n - 1) % 64 of their last
    word: K_n; G(n, 1/2); the complete bipartite graph between 0..s-1 and
    s..n-1, s = min(64, n // 2), whose low rows start with an empty word
    once s = 64; K_n less vertex 0's edges but {0, n - 1}, whose row 0
    holds only its last bit; K_(n-1) with n - 1 isolated; and the
    vertices below n / 10 joined to the odd ones from 7n / 10 on, whose
    rows hold their bits far from where evenly spread bits would lie, so
    that the kernel's first guess of a word misses, and never in bit 0 of
    a word of the low rows."""
    u, v = np.triu_indices(n, 1)
    s = min(64, n // 2)
    yield u * n + v
    yield (u * n + v)[np.random.default_rng(n).random(len(u)) < 0.5]
    yield (u * n + v)[(u < s) & (v >= s)]
    yield (u * n + v)[(u > 0) | (v == n - 1)]
    yield (u * n + v)[v < n - 1]
    yield _far_bits_keys(n)


def _far_bits_keys(n):
    """Sorted keys of ``_select_hosts``' last graph, the vertices below
    n / 10 joined to the odd ones from 7n / 10 on, made without the n^2 / 2
    pairs of K_n."""
    u, v = np.arange(-(-n // 10)), np.arange(-(-7 * n // 10), n)
    return (u[:, None] * n + v[v % 2 == 1]).ravel()


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 1000])
def test_row_select_matches_reference(c_backend, monkeypatch, n):
    # the kernel's walks and tree images select each neighbour from the
    # rows; the reference indexes the indices.  A walk from 0 takes rank
    # d - 1, the last set bit of its row, from some vertex, and the
    # isolated vertex raises the same error on both backends
    for keys in _select_hosts(n):
        g = _rows_graph(n, keys)
        kernel, reference = _pair(g, n, c_backend, monkeypatch)
        tree = gen_nary_tree(n, 2)
        for m in (kernel, reference):
            m.parts = [_outcome(lambda: run_walk(g, m, 0, 20_000).sequence),
                       _outcome(lambda: random_homomorphism(g, tree, m, n - 1).image),
                       _outcome(lambda: run_walk(g, m, n - 1, 5).sequence), m.consumed]
        assert kernel.parts[:3] == reference.parts[:3]
        assert np.array_equal(kernel.parts[3], reference.parts[3])
        seq = np.array(kernel.parts[0])
        last = np.array([g.neighbors(x)[-1] if g.degree(x) else -1 for x in range(n)])
        assert (seq[1:] == last[seq[:-1]]).any()
        if g.degree(n - 1) == 0:
            assert kernel.parts[1] == f"ValueError: vertex {n - 1} has no neighbors"
    assert g._rows is not None and g._ranks is not None


@pytest.mark.parametrize("n", [2112, 4160])
@pytest.mark.parametrize("host", ["gnp", "far"])
def test_wide_rows_match_reference(c_backend, monkeypatch, n, host):
    # rows of 33 and 65 words, too wide for fill_wide's two registers, so
    # that the kernel fills their chunks by place and pdep (or broadword
    # select): a 20,000-step walk on G(n, 1/2), and on the far-bits host,
    # whose low vertices' neighbours lie in the top 3/10 of their rows and
    # the others' in the bottom tenth, so that place's guess misses and its
    # binary search runs, against the numpy reference's indices; the far
    # host's n / 4 joined vertices are walked past their first chunks
    keys = gen_gnp(n, 0.5, 5).edge_codes() if host == "gnp" else _far_bits_keys(n)
    g = _rows_graph(n, keys)
    assert g._ranks is not None and g._ranks.shape == (n, -(-n // 64))
    kernel, reference = _pair(g, 17, c_backend, monkeypatch)
    walks = [run_walk(g, m, 0, 20_000).sequence for m in (kernel, reference)]
    assert np.array_equal(walks[0], walks[1])
    assert np.array_equal(kernel.consumed, reference.consumed)
    assert kernel.consumed.max() > 32 if host == "far" else (kernel.consumed > 0).sum() > n / 2


@settings(max_examples=60, **PER_EXAMPLE)
@given(seed=SEEDS, n=st.integers(1, 200), p=st.floats(0, 1), gseed=st.integers(0, 99),
       root=st.integers(0, 199), steps=st.integers(0, 3000), tseed=st.integers(0, 50))
def test_row_select_matches_reference_on_any_rows(c_backend, monkeypatch, seed, n, p,
                                                   gseed, root, steps, tseed):
    # random symmetric rows of any density, isolated vertices included
    u, v = np.triu_indices(n, 1)
    keys = (u * n + v)[np.random.default_rng(gseed).random(len(u)) < p]
    g = _rows_graph(n, keys)
    kernel, reference = _pair(g, seed, c_backend, monkeypatch)
    root %= n
    tree = gen_random_tree(steps + 1, 5, tseed)
    for call in (lambda m: run_walk(g, m, root, steps).sequence,
                 lambda m: random_homomorphism(g, tree, m, root).image):
        assert _outcome(lambda: call(kernel)) == _outcome(lambda: call(reference))
        assert np.array_equal(kernel.consumed, reference.consumed)


# the C harness of the kernel's paths: one program whose argument names
# the section it runs, each that of one test below
KERNEL_HARNESS = r"""
#include "%s"
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static uint64_t s = 0x9e3779b97f4a7c15u;

static uint64_t xorshift(void)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/* rank r by clearing the r lowest set bits */
static int64_t select_loop(uint64_t x, int64_t r)
{
    for (; r; r--)
        x &= x - 1;
    return __builtin_ctzll(x);
}

/* select: the portable select, and pdep where the CPU has bmi2, against
 * select_loop */
static void select_section(void)
{
    uint64_t s = 0x9e3779b97f4a7c15u, x;
    uint64_t edge[] = {1, (uint64_t)1 << 63, ~(uint64_t)0, ~(uint64_t)0 << 1,
                       ~(uint64_t)0 >> 1, 0x8000000000000001u, 0x5555555555555555u,
                       0xaaaaaaaaaaaaaaaau, 0xff00000000000000u, 0xffu};
    long i, checks = 0, portable = 0, pdep = 0;
    int has_pdep = 0;
    int64_t r;

#if defined(__x86_64__) && defined(__GLIBC__)
    has_pdep = __builtin_cpu_supports("bmi2") != 0;
#endif
    for (i = 0; i < 60000; i++) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        /* the edge cases, then sparse, half-full and dense words */
        x = i < 10 ? edge[i] : i %% 3 == 0 ? s & s >> 7 & s >> 19 : i %% 3 == 1 ? s : s | s >> 9;
        for (r = 0; r < __builtin_popcountll(x); r++) {
            checks++;
            portable += select_broadword(x, r) != select_loop(x, r);
#if defined(__x86_64__) && defined(__GLIBC__)
            if (has_pdep)
                pdep += select_pdep(x, r) != select_loop(x, r);
#endif
        }
    }
    printf("%%ld %%d %%ld %%ld\n", checks, has_pdep, portable, pdep);
}

/* each array on its own allocation of exactly its words, so that a
 * sanitized build reports any access past its end */
static uint64_t *words(int64_t count)
{
    return malloc((size_t)(count > 0 ? count : 1) * sizeof(uint64_t));
}

/* wide: the wide Philox, subset_mask and row_counts, and row_counts_popcnt,
 * against the scalar code, where the kernel takes the wide code */
static void wide_section(void)
{
    uint64_t key[2], block[4], eight[32], sixteen[64];
    int64_t starts[] = {0, 1, 2, 3, 4, 5, 6, 7, 31, 32, 33, 1001, 1002, 1003, 1004};
    int64_t n, i, j, k, c, flip, start, count, w;
    long checks = 0, wide_checks = 0, wrong = 0;
    int has = cpu_paths().wide;

    for (k = 0; k < 6; k++) {
        key[0] = k ? xorshift() : 0;
        key[1] = k ? xorshift() : 0;
        /* philox_run against philox_block, word by word */
        for (i = 0; i < (int64_t)(sizeof starts / sizeof *starts); i++)
            for (count = 0; count <= 200; count++) {
                uint64_t *out = words(count);
                start = starts[i] + (k %% 2 ? (int64_t)(xorshift() >> 8) * 4 : 0);
                philox_run(key, start, count, out);
                for (j = 0; j < count; j++) {
                    philox_block(key, (uint64_t)((start + j) / 4 + 1), block);
                    wrong += out[j] != block[(start + j) %% 4];
                    checks++;
                }
                free(out);
            }
#if defined(__x86_64__) && defined(__GLIBC__)
        /* philox_8 and philox_16, its two-chain case, against philox_block */
        for (i = 0; has && i < 40; i++) {
            uint64_t ctr = i < 8 ? (uint64_t)i + 1 : (xorshift() >> 4) + 1;
            philox_8(key, ctr, eight);
            philox_16(key, ctr, sixteen);
            for (j = 0; j < 16; j++) {
                philox_block(key, ctr + (uint64_t)j, block);
                for (c = 0; c < 4; c++)
                    wrong += (j < 8 && eight[4 * j + c] != block[c])
                             + (sixteen[4 * j + c] != block[c]);
            }
            wide_checks++;
        }
#endif
    }
#if defined(__x86_64__) && defined(__GLIBC__)
    /* the wide subset_mask against the scalar one, sizes 1, n and between */
    for (n = 1; has && n <= 2000; n = n == 130 ? 2000 : n + 1) {
        int bits = 0;
        uint64_t *vals = words(n), *cand = words(n), *a = words((n + 63) / 64);
        uint64_t *b = words((n + 63) / 64);
        int64_t *hist;
        while (bits < HIST_BITS && (int64_t)2 << bits <= n)
            bits++;
        hist = malloc(sizeof(int64_t) << bits);
        for (k = 0; k < 12; k++) {
            int64_t size = k == 0 ? 1 : k == 1 ? n : 1 + (int64_t)(xorshift() %% (uint64_t)n);
            key[0] = xorshift();
            key[1] = xorshift();
            start = (int64_t)(xorshift() >> 20);
            subset_mask(key, start, n, size, bits, vals, cand, hist, a);
            subset_mask_wide(key, start, n, size, bits, vals, cand, hist, b);
            for (c = 0, i = 0; i < (n + 63) / 64; i++) {
                wrong += a[i] != b[i];
                c += __builtin_popcountll(a[i]);
            }
            wrong += c < size;  /* ties only add members */
            wide_checks++;
        }
        free(vals);
        free(cand);
        free(a);
        free(b);
        free(hist);
    }
    /* the wide row_counts and the popcnt one against the scalar one, at
     * every w %% 8 */
    for (w = 1; has && w <= 17; w++)
        for (k = 0; k < 6; k++) {
            uint64_t *rows, *set, *t;
            n = 64 * w - (k == 0 ? 0 : (int64_t)(xorshift() %% 64));
            rows = words(n * w);
            set = words(w);
            t = words(w);
            for (i = 0; i < n * w; i++)
                rows[i] = xorshift() & xorshift();
            for (i = 0; i < w; i++) {
                set[i] = xorshift();
                t[i] = i == w - 1 && n %% 64 ? xorshift() >> (64 - n %% 64) : xorshift();
            }
            for (flip = 0; flip < 2; flip++) {
                wrong += row_counts(n, w, rows, set, (int)flip, t)
                         != row_counts_wide(n, w, rows, set, (int)flip, t);
                wrong += row_counts(n, w, rows, set, (int)flip, t)
                         != row_counts_popcnt(n, w, rows, set, (int)flip, t);
                wide_checks++;
            }
            free(rows);
            free(set);
            free(t);
        }
#endif
    printf("%%ld %%d %%ld %%ld\n", checks, has, wide_checks, wrong);
}

/* The bit rows, ranks and row starts of host ``kind`` on n vertices: 0 a
 * G(n, 1/2), 1 the vertices below n / 10 joined to the odd ones from
 * 7n / 10 on, whose bits sit far from where evenly spread bits would lie,
 * so that a guess of their word misses, 2 a G(n, 1/16) */
static void host(int kind, int64_t n, uint64_t *rows, int32_t *ranks, int64_t *indptr)
{
    int64_t w = (n + 63) / 64, u, v, i;

    memset(rows, 0, (size_t)(n * w) * sizeof *rows);
    for (u = 0; u < n; u++)
        for (v = u + 1; v < n; v++) {
            uint64_t x = xorshift();
            if (kind == 0 ? x & 1 : kind == 1 ? 10 * u < n && 10 * v >= 7 * n && v %% 2
                                              : (x & 15) == 0) {
                rows[u * w + v / 64] |= (uint64_t)1 << (v %% 64);
                rows[v * w + u / 64] |= (uint64_t)1 << (u %% 64);
            }
        }
    indptr[0] = 0;
    for (u = 0; u < n; u++) {
        int32_t c = 0;
        for (i = 0; i < w; i++) {
            ranks[u * w + i] = c;
            c += __builtin_popcountll(rows[u * w + i]);
        }
        indptr[u + 1] = indptr[u] + c;
    }
}

#if defined(__x86_64__) && defined(__GLIBC__)
/* row_words of the 16 ranks ks on the w <= 32 ranks r: the words into
 * at, the ranks in them into in */
WIDE_FILL static void search16(const int32_t *r, int64_t w, const int32_t *ks, int32_t *at,
                               int32_t *in)
{
    __m512i in_word;

    _mm512_storeu_si512(at, row_words(r, w, _mm512_loadu_si512(ks), &in_word));
    _mm512_storeu_si512(in, in_word);
}
#endif

/* fill: the fillers, row_words, below_cut_wide and transpose64 against
 * their references */
static void fill_section(void)
{
    /* every w from 1 to 32 words a row, n a multiple of 64 or not, then 47
     * and 65 */
    int64_t sizes[34];
    uint64_t key[2], a[8], b[8], c[8], chunk_words[32], words[64], t64[64];
    long fills = 0, narrow_fills = 0, pdep_fills = 0, wide_fills = 0, searches = 0, checks = 0,
         wrong = 0;
    int64_t i, j, k, n, x, start, count;
    int small, kind, pdep = 0, wide = 0;

#if defined(__x86_64__) && defined(__GLIBC__)
    pdep = cpu_paths().fill == fill_pdep;
    wide = cpu_paths().fill_narrow == fill_wide;
#endif
    for (i = 0; i < 32; i++)
        sizes[i] = 64 * (i + 1) - (13 * i) %% 64;
    sizes[32] = 3000;
    sizes[33] = 4160;
    /* fill_pdep against fill_broadword at every width, and fill_wide at the
     * widths qw_consume gives it, w <= 32, at both chunk widths */
    for (i = 0; i < (int64_t)(sizeof sizes / sizeof *sizes); i++) {
        int64_t w = (sizes[i] + 63) / 64;
        uint64_t *rows;
        int32_t *ranks;
        int64_t *indptr;
        n = sizes[i];
        rows = malloc((size_t)(n * w) * sizeof *rows);
        ranks = malloc((size_t)(n * w) * sizeof *ranks);
        indptr = malloc((size_t)(n + 1) * sizeof *indptr);
        for (kind = 0; kind < 3; kind++) {
            struct lists g = {indptr, NULL, rows, ranks, w};
            host(kind, n, rows, ranks, indptr);
            for (x = 0; x < n; x += kind == 1 && x < n / 10 ? 1 : 1 + n / 100) {
                int64_t d = indptr[x + 1] - indptr[x];
                if (d == 0)
                    continue;
                for (small = 0; small < 2; small++) {
                    key[0] = xorshift();
                    key[1] = xorshift();
                    start = (int64_t)(xorshift() %% 1000) * (small ? 32 : 16);
                    philox_run(key, start, small ? 32 : 16, chunk_words);
                    fill_broadword(g, chunk_words, x, d, small, a);
                    for (k = 0; k < (small ? 32 : 16); k++) {
                        int64_t v = small ? ((uint16_t *)a)[k] : ((int32_t *)a)[k];
                        wrong += v < 0 || v >= n || !(rows[x * w + v / 64] >> (v %% 64) & 1);
                    }
                    fills++;
                    narrow_fills += w <= 32;
#if defined(__x86_64__) && defined(__GLIBC__)
                    if (pdep) {
                        fill_pdep(g, chunk_words, x, d, small, b);
                        wrong += memcmp(a, b, sizeof a) != 0;
                        pdep_fills++;
                    }
                    if (wide && w <= 32) {
                        fill_wide(g, chunk_words, x, d, small, c);
                        wrong += memcmp(a, c, sizeof a) != 0;
                        wide_fills++;
                    }
#endif
                }
            }
        }
        free(rows);
        free(ranks);
        free(indptr);
    }
#if defined(__x86_64__) && defined(__GLIBC__)
    /* row_words against the last of w ascending ranks at most each of 16
     * ranks, and the rank past it, on rows of 1 to 32 words with empty
     * words, and ranks at and next to each word's first */
    for (k = 0; wide && k < 3200; k++) {
        int32_t r[32], ks[16], at[16], in[16];
        int64_t w = 1 + k %% 32, d;
        for (r[0] = 0, j = 1; j < w; j++)
            r[j] = r[j - 1] + (xorshift() %% 4 == 0 ? 0 : (int32_t)(xorshift() %% 65));
        d = r[w - 1] + 1 + (int64_t)(xorshift() %% 64);
        for (j = 0; j < 16; j++) {
            int64_t near = r[xorshift() %% w] + (int64_t)(xorshift() %% 3) - 1;
            ks[j] = (int32_t)(j %% 2 && near >= 0 && near < d ? near : (int64_t)(xorshift() %% d));
        }
        search16(r, w, ks, at, in);
        for (j = 0; j < 16; j++) {
            int64_t want = w - 1;
            while (r[want] > ks[j])
                want--;
            wrong += at[j] != want || in[j] != ks[j] - r[want];
        }
        searches++;
    }
#endif
    /* the wide below_cut against the scalar one, at the cut's edges */
    for (k = 0; k < 200; k++) {
        uint64_t edges[] = {0, 1, 2, (uint64_t)1 << 52, ((uint64_t)1 << 53) - 1,
                            (uint64_t)1 << 53};
        uint64_t cut = k < 6 ? edges[k] : xorshift() >> 11;
        for (j = 0; j < 64; j++) {
            uint64_t r = xorshift();
            words[j] = r %% 3 == 0 ? cut << 11 : r %% 3 == 1 ? (cut << 11) - 1 : r;
        }
        for (count = 0; count <= 64; count++) {
#if defined(__x86_64__) && defined(__GLIBC__)
            if (cpu_paths().wide) {
                uint64_t *part = malloc((size_t)(count > 0 ? count : 1) * sizeof *part);
                memcpy(part, words, (size_t)count * sizeof *part);
                wrong += below_cut(part, count, cut) != below_cut_wide(part, count, cut);
                free(part);
            }
#endif
            checks++;
        }
    }
    /* transpose64 against a bit-by-bit transpose */
    for (k = 0; k < 100; k++) {
        for (i = 0; i < 64; i++)
            t64[i] = words[i] = k == 0 ? (uint64_t)1 << i : k == 1 ? ~(uint64_t)0 >> i
                                                       : xorshift() & xorshift();
        transpose64(t64);
        for (i = 0; i < 64; i++)
            for (j = 0; j < 64; j++)
                wrong += (t64[i] >> j & 1) != (words[j] >> i & 1);
        checks++;
    }
    printf("%%ld %%ld %%ld %%d %%ld %%ld %%ld %%ld\n", fills, narrow_fills, pdep_fills, wide,
           wide_fills, searches, checks, wrong);
}

/* for each line "seed lo n trials" of stdin, draw_sizes' offset and sizes */
static void sizes_section(void)
{
    static int64_t sizes[64];
    unsigned long long seed;
    long long lo, n, trials;
    uint64_t key[2];
    int64_t i, offset;

    while (scanf("%%llu %%lld %%lld %%lld", &seed, &lo, &n, &trials) == 4) {
        seed_key(seed, 2, 0, key);
        offset = draw_sizes(key, lo, n, trials, sizes);
        printf("%%ld", (long)offset);
        for (i = 0; offset >= 0 && i < 2 * trials; i++)
            printf(" %%ld", (long)sizes[i]);
        printf("\n");
    }
}

/* the section that argv[1] names */
int main(int argc, char **argv)
{
    const char *name = argc == 2 ? argv[1] : "";

    if (strcmp(name, "select") == 0)
        select_section();
    else if (strcmp(name, "wide") == 0)
        wide_section();
    else if (strcmp(name, "fill") == 0)
        fill_section();
    else if (strcmp(name, "sizes") == 0)
        sizes_section();
    else
        return 2;
    return 0;
}
"""


SANITIZE = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-pthread"]


def _gcc_runtime(name):
    """The path of gcc's library ``name``.so; skips the test without gcc or it."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    path = subprocess.run(["gcc", f"-print-file-name={name}.so"], capture_output=True,
                          text=True).stdout.strip()
    if not os.path.isabs(path) or not os.path.exists(path):
        pytest.skip(f"gcc has no {name}")
    return path


def _harness(tmp_path, source, name, flags):
    """The executable tmp_path/name that gcc builds with ``flags`` from the
    C harness ``source``, which includes the kernel where it says %s;
    skips the test without gcc, or without the runtime of the sanitizer
    that ``flags`` name."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    if flags is SANITIZE:
        _gcc_runtime("libasan")
    if "-fsanitize=thread" in flags:
        _gcc_runtime("libtsan")
    harness, exe = tmp_path / f"{name}.c", tmp_path / name
    harness.write_text(source % (SRC / "qwalk" / "_philox.c"))
    subprocess.run(["gcc", *flags, "-o", str(exe), str(harness)], check=True,
                   capture_output=True)
    return exe


@pytest.fixture(scope="session", params=[["-O2", "-pthread"], SANITIZE], ids=["O2", "sanitized"])
def kernel_harness(request, tmp_path_factory):
    """KERNEL_HARNESS, built once a session with the kernel's flags and once
    under AddressSanitizer and UBSan, where any report aborts the run."""
    return _harness(tmp_path_factory.mktemp("harness"), KERNEL_HARNESS, "kernel", request.param)


def _section(exe, name, **run):
    """The finished run of section ``name`` of the harness ``exe``."""
    return subprocess.run([str(exe), name], capture_output=True, text=True, **run)


def test_broadword_select_matches_pdep(kernel_harness):
    # the portable select, which serves CPUs without a fast pdep, and
    # pdep, where the CPU has bmi2 (has_pdep), against clearing the
    # lowest set bits one by one, over every rank of edge-case and random
    # words; qw_consume takes one select by the CPU it runs on, so the
    # kernel's own sanitized run reaches only one
    run = _section(kernel_harness, "select")
    assert run.returncode == 0, run.stderr
    checks, has_pdep, portable, pdep = map(int, run.stdout.split())
    assert checks > 1_500_000 and portable == 0 and pdep == 0


def test_wide_code_matches_scalar(kernel_harness):
    # where the CPU has AVX-512F and VPOPCNTDQ (cpu_paths' wide), the
    # kernel draws Philox words 8 and 16 blocks at a time and runs the
    # subset sampler's wide steps: here philox_8, philox_16 and
    # philox_run, with its two-chain runs, at every start % 4 and count
    # 0..200, are checked against philox_block, and the wide subset_mask
    # and row_counts, and row_counts_popcnt, against the scalar ones,
    # which other CPUs run
    run = _section(kernel_harness, "wide")
    assert run.returncode == 0, run.stderr
    checks, has_wide, wide_checks, wrong = map(int, run.stdout.split())
    assert checks == 6 * 15 * 201 * 200 // 2 and wrong == 0
    assert wide_checks == (6 * 40 + 131 * 12 + 17 * 6 * 2 if has_wide else 0)


def test_fill_and_row_code_match_reference(kernel_harness):
    # qw_consume takes one fill by the CPU it runs on and the row's width,
    # fill_wide on rows of at most 32 words where cpu_paths gives it
    # (``wide``) and fill_pdep on wider ones: here fill_pdep is checked
    # against fill_broadword on rows of 1 to 32, 47 and 65 words, and
    # fill_wide on every fill of 1 to 32 words, the widths it serves, of
    # hosts whose bits sit far from the guessed word, at both chunk widths;
    # the wide below_cut against the scalar one; and transpose64 bit by bit
    run = _section(kernel_harness, "fill")
    assert run.returncode == 0, run.stderr
    fills, narrow, pdep_fills, wide, wide_fills, searches, checks, wrong = map(
        int, run.stdout.split())
    assert wrong == 0 and 3000 < narrow < fills
    assert checks == 200 * 65 + 100
    assert wide_fills == (narrow if wide else 0) and pdep_fills in (0, fills)
    assert searches == (3200 if wide else 0)
    assert pdep_fills == fills or not wide


REFUSED_THREADS_HARNESS = r"""
#define pthread_create refuse_create
#include "%s"
#undef pthread_create
#include <stdio.h>

int refuse_create(pthread_t *id, const pthread_attr_t *attr, void *(*run)(void *), void *arg)
{
    (void)id;
    (void)attr;
    (void)run;
    (void)arg;
    return 11;  /* EAGAIN */
}

/* G(100, 1/2) from a xorshift, and 600 trials of sizes 10..100 drawn and
 * counted on 1 thread and on 5 threads, none of which starts; then the
 * rows of G(300, 1/2) built by qw_gnp on 1 thread and on 5; then a walk
 * on G(100, 1/2) given no work, and one given work, whose helper does not
 * start, which fills every chunk itself */
int main(void)
{
    static uint64_t rows[100 * 2], work[5 * 204], gnp_one[300 * 5], gnp_five[300 * 5];
    static uint64_t ahead[16 + 2 * RING + SLOT_WORDS * 100], state[2][STATE_WORDS * 100 + 50];
    static int64_t indptr[101], sizes[1200], again[1200], one[600], five[600], taken[2][100];
    static int32_t ranks[100 * 2], image[2][50001];
    uint64_t x = 0x9e3779b97f4a7c15u;
    int64_t u, v, t, differ = 0, need = 0;

    for (u = 0; u < 100; u++)
        for (v = u + 1; v < 100; v++) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if (x & 1) {
                rows[2 * u + v / 64] |= (uint64_t)1 << (v %% 64);
                rows[2 * v + u / 64] |= (uint64_t)1 << (u %% 64);
            }
        }
    for (u = 0; u < 100; u++)
        indptr[u + 1] = indptr[u] + __builtin_popcountll(rows[2 * u])
                        + __builtin_popcountll(rows[2 * u + 1]);
    differ += qw_sampled_counts(5, 2, 0, 10, 100, rows, indptr, sizes, 600, 256, 1, work,
                                one) < 600;
    for (t = 0; t < 600; t++)
        five[t] = -1;
    differ += qw_sampled_counts(5, 2, 0, 10, 100, rows, indptr, again, 600, 256, 5, work,
                                five) < 600;
    for (t = 0; t < 600; t++)
        differ += one[t] != five[t] || sizes[2 * t] != again[2 * t]
                  || sizes[2 * t + 1] != again[2 * t + 1];
    qw_gnp(5, 0, 300, 0.5, gnp_one, 1);
    qw_gnp(5, 0, 300, 0.5, gnp_five, 5);
    for (t = 0; t < 300 * 5; t++)
        differ += gnp_one[t] != gnp_five[t];
    for (u = 0, v = 0; u < 300 * 5; u++)
        v += __builtin_popcountll(gnp_one[u]);
    differ += v < 40000 || v > 50000;  /* about 44,850 ends of edges */
    for (u = 0; u < 100; u++)
        ranks[2 * u + 1] = __builtin_popcountll(rows[2 * u]);
    for (t = 0; t < 2; t++)
        differ += qw_consume(9, 1, 100, indptr, NULL, rows, ranks, state[t], taken[t], NULL,
                             50000, image[t], NULL, t ? ahead : NULL) != 50000;
    for (u = 0; u < STATE_WORDS * 100 + 50; u++)
        differ += state[0][u] != state[1][u];
    for (u = 0; u < 100; u++) {
        differ += taken[0][u] != taken[1][u];
        need += taken[1][u] ? taken[1][u] / 32 + 1 : 0;
    }
    for (t = 0; t < 50001; t++)
        differ += image[0][t] != image[1][t];
    differ += ahead[0] != 0 || (int64_t)ahead[1] != need || need < 1000;
    printf("%%ld\n", (long)differ);
    return 0;
}
"""


def test_sampler_counts_every_trial_when_no_thread_starts(tmp_path):
    # where pthread_create fails, the calling thread claims every trial,
    # with the counts that one thread gives, and every G(n, p) row; and a
    # walk given work fills every chunk itself, with the image, state and
    # counts of a walk given none
    exe = _harness(tmp_path, REFUSED_THREADS_HARNESS, "refused", ["-O2", "-pthread"])
    out = subprocess.run([str(exe)], capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0"]


HELPER_HARNESS = r"""
#include "%s"
#include <stdio.h>
#include <stdlib.h>

static uint64_t s = 0x9e3779b97f4a7c15u;

static uint64_t xorshift(void)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/* One host: G(300, 1/2) in bit rows, its chunks 32 uint16, or a host of
 * 70,000 vertices from CSR indices whose edges join 0..149 and
 * 65536..65685 at random, its chunks 16 int32 */
struct host {
    int64_t n, w, *indptr;
    int32_t *indices, *ranks;
    uint64_t *rows;
};

static struct host make(int wide)
{
    struct host h = {wide ? 70000 : 300, 0, NULL, NULL, NULL, NULL};
    int64_t u, v, i, e = 0;

    h.w = (h.n + 63) / 64;
    h.indptr = calloc((size_t)h.n + 1, sizeof *h.indptr);
    if (!wide) {
        h.rows = calloc((size_t)(h.n * h.w), sizeof *h.rows);
        h.ranks = malloc((size_t)(h.n * h.w) * sizeof *h.ranks);
        qw_gnp(3, 0, h.n, 0.5, h.rows, 1);
        for (u = 0; u < h.n; u++)
            for (i = 0, h.indptr[u + 1] = h.indptr[u]; i < h.w; i++) {
                h.ranks[u * h.w + i] = (int32_t)(h.indptr[u + 1] - h.indptr[u]);
                h.indptr[u + 1] += __builtin_popcountll(h.rows[u * h.w + i]);
            }
        return h;
    }
    /* a symmetric 300 x 300 adjacency of the core, then its CSR lists */
    {
        static char adj[300][300];
        int64_t id[300];
        for (u = 0; u < 300; u++)
            id[u] = u < 150 ? u : 65536 + u - 150;
        for (u = 0; u < 300; u++)
            for (v = u + 1; v < 300; v++)
                adj[u][v] = adj[v][u] = xorshift() %% 10 < 3;
        h.indices = malloc(300 * 300 * sizeof *h.indices);
        for (u = 0; u < 300; u++) {
            for (v = 0; v < 300; v++)
                if (adj[u][v])
                    h.indices[e++] = (int32_t)id[v];
            h.indptr[id[u] + 1] = e;
        }
        for (u = 1; u <= h.n; u++)
            if (h.indptr[u] < h.indptr[u - 1])
                h.indptr[u] = h.indptr[u - 1];
    }
    return h;
}

/* A model's walk of m1 steps from 0, writing its image, then of m2 steps
 * from where it ended, marking rows where the host has them, with the
 * helper where ``helper`` is set; counts into copied and filled */
static void walk(struct host h, int helper, int64_t m1, int64_t m2, uint64_t *state,
                 int64_t *taken, int32_t *image, uint64_t *marks, long *copied, long *filled)
{
    int64_t words = 16 + 2 * RING + SLOT_WORDS * h.n;
    uint64_t *work = helper ? calloc((size_t)words, sizeof *work) : NULL;

    image[0] = 0;
    if (qw_consume(7, 1, h.n, h.indptr, h.indices, h.rows, h.ranks, state, taken, NULL, m1,
                   image, NULL, work) != m1)
        abort();
    image[m1 + 1] = image[m1];
    if (helper) {
        *copied += (long)work[0];
        *filled += (long)work[1];
        memset(work, 0, (size_t)words * sizeof *work);
    }
    if (qw_consume(7, 1, h.n, h.indptr, h.indices, h.rows, h.ranks, state, taken, NULL, m2,
                   image + m1 + 1, marks, work) != m2)
        abort();
    if (helper) {
        *copied += (long)work[0];
        *filled += (long)work[1];
    }
    free(work);
}

/* Each host walked without the helper and with it, first through its
 * whole model and then in two calls; prints the words and entries that
 * differ, and the chunks copied and filled with the helper */
int main(void)
{
    long differ = 0, copied = 0, filled = 0;
    int wide;
    int64_t i, m1 = 30001, m2 = 60000;

    for (wide = 0; wide < 2; wide++) {
        struct host h = make(wide);
        int64_t sw = STATE_WORDS * h.n + (h.n + 1) / 2, mw = wide ? 1 : h.n * h.w;
        uint64_t *state[2], *marks[2];
        int64_t *taken[2];
        int32_t *image[2];
        int t;
        for (t = 0; t < 2; t++) {
            state[t] = calloc((size_t)sw, sizeof **state);
            taken[t] = calloc((size_t)h.n, sizeof **taken);
            image[t] = calloc((size_t)(m1 + m2 + 2), sizeof **image);
            marks[t] = wide ? NULL : calloc((size_t)mw, sizeof **marks);
            walk(h, t, m1, m2, state[t], taken[t], image[t], marks[t], &copied, &filled);
        }
        for (i = 0; i < sw; i++)
            differ += state[0][i] != state[1][i];
        for (i = 0; i < h.n; i++)
            differ += taken[0][i] != taken[1][i];
        for (i = 0; i < m1 + (wide ? m2 + 2 : 1); i++)
            differ += image[0][i] != image[1][i];
        for (i = 0; !wide && i < mw; i++)
            differ += marks[0][i] != marks[1][i];
        for (t = 0; t < 2; t++) {
            free(state[t]);
            free(taken[t]);
            free(image[t]);
            free(marks[t]);
        }
        free(h.indptr);
        free(h.indices);
        free(h.rows);
        free(h.ranks);
    }
    printf("%%ld %%ld %%ld\n", differ, copied, filled);
    return 0;
}
"""


@pytest.mark.parametrize("ring", [["-DRING=4"], []], ids=["ring4", "ring4096"])
def test_walk_helper_runs_clean_under_thread_sanitizer(tmp_path, ring):
    # walks with the helper thread, built with ThreadSanitizer, on both
    # chunk widths and across a model walked in two calls, with the ring's
    # own size and with a ring of 4 requests, which the first visits of a
    # walk's vertices overflow: no report, the outputs of one thread, and,
    # given a second CPU, some chunks made by the helper.  -fno-builtin
    # keeps memcpy a call, which ThreadSanitizer checks: gcc expands it
    # inline unchecked, and then a helper that published its tags relaxed
    # went unreported
    exe = _harness(tmp_path, HELPER_HARNESS, "helper",
                   ["-O1", "-g", "-fsanitize=thread", "-fno-builtin", "-pthread", *ring])
    run = subprocess.run([str(exe)], capture_output=True, text=True, timeout=600,
                         env=dict(os.environ, TSAN_OPTIONS="halt_on_error=1:exitcode=66"))
    assert run.returncode == 0 and "ThreadSanitizer" not in run.stderr, run.stderr[-4000:]
    differ, copied, filled = map(int, run.stdout.split())
    assert differ == 0 and filled > 0 and (copied > 0 or rng._cpus() == 1)


# tests that call each entry point, qw_consume on indices and on rows at
# the 64-bit word edges and across its chunks of both widths, walking or
# embedding a tree and marking its edges in one call, walking with its
# helper thread on both chunk widths and across two calls, G(n, p) rows and the
# sampler on 1, 2, 3 and 5 threads, and the sampler's sizes at their word
# edges, at small n
SANITIZED_TESTS = ["-k", "not numpy and not 1000 and not 2000"] + [
    f"tests/test_kernel.py::{name}" for name in (
        "test_derive_seed_matches_reference", "test_uniform_words_match_reference",
        "test_long_lists_cross_many_blocks", "test_row_select_matches_reference",
        "test_sibling_runs_match_reference", "test_chunk_boundaries_match_reference",
        "test_host_past_2_16_vertices_takes_int32_chunks",
        "test_walk_helper_changes_no_output", "test_walk_helper_counts_its_chunks",
        "test_gnp_rows_do_not_depend_on_threads",
        "test_kernel_sets_no_bit_for_bad_pairs", "test_blocks_build_the_graph_of_one_block",
        "test_bit_rows_match_reference",
        "test_pair_graphs_read_out_the_rows_the_kernel_marked",
        "test_gnp_matches_row_reference", "test_sampled_counts_do_not_depend_on_threads",
        "test_kernel_sizes_match_generator_integers",
        "test_walk_edges_walk_and_mark_in_one_kernel_call")] + [
    f"tests/test_walks.py::TestWalkEdges::{name}" for name in (
        "test_one_pass_matches_walk_subgraph", "test_errors_are_run_walks")] + [
    f"tests/test_trees.py::TestImageSubgraph::{name}" for name in (
        "test_path_image_is_the_walks_edges", "test_sibling_runs_cross_chunks")]

# a -p plugin that serves the kernel build at %r wherever the tests load it
# and writes the name of each entry point they call to %r when they end
SERVED_PLUGIN = """
import ctypes
from qwalk import rng
lib = rng._declare(ctypes.CDLL(%r))
called = set()


class Recorded:
    def __getattr__(self, name):
        entry = getattr(lib, name)

        def recorded(*args):
            called.add(name)
            return entry(*args)
        setattr(self, name, recorded)
        return recorded


proxy = Recorded()
rng._load = lambda: proxy


def pytest_collection_finish(session):
    with open(%r, "w") as fh:
        fh.write("\\n".join(item.nodeid for item in session.items))


def pytest_sessionfinish():
    with open(%r, "w") as fh:
        fh.write(" ".join(sorted(called)))
"""


def _declared():
    """The entry points that rng._declare gives argtypes."""
    return re.findall(r"lib\.(qw_\w+)\.argtypes", inspect.getsource(rng._declare))


def _served(tmp_path, source, flags, tests, **env):
    """The run of pytest on ``tests`` in a child process whose tests load
    the kernel that gcc builds with ``flags`` from ``source`` into
    tmp_path, served by SERVED_PLUGIN, with ``env`` added to its
    environment; the ids of the tests it selected are in
    tmp_path/selected.txt, one a line, and the entry points they called in
    tmp_path/called.txt."""
    rng._build(source, flags, tmp_path / "kernel.so")
    (tmp_path / "served_kernel.py").write_text(SERVED_PLUGIN % tuple(
        str(tmp_path / name) for name in ("kernel.so", "selected.txt", "called.txt")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), str(SRC)]), **env)
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "served_kernel",
                           "-p", "no:cacheprovider", *tests], cwd=SRC.parent, env=env,
                          capture_output=True, text=True, timeout=600)


def test_kernel_runs_clean_under_sanitizers(tmp_path):
    # the kernel built with AddressSanitizer and UBSan into tmp_path runs
    # SANITIZED_TESTS in a child process with libasan preloaded, since
    # Python is not built with it; the sanitizers log to files, which
    # pytest's capture cannot swallow when a report aborts the child
    libasan = _gcc_runtime("libasan")
    logs = tmp_path / "logs"
    logs.mkdir()
    run = _served(tmp_path, rng._SOURCE.read_bytes(), SANITIZE, SANITIZED_TESTS,
                  LD_PRELOAD=libasan, ASAN_OPTIONS=f"log_path={logs / 'asan'}:detect_leaks=0",
                  UBSAN_OPTIONS=f"log_path={logs / 'ubsan'}:print_stacktrace=1")
    reports = "".join(log.read_text() for log in sorted(logs.iterdir()))
    assert not reports, reports
    assert run.returncode == 0, run.stdout[-4000:]
    assert " passed" in run.stdout and " skipped" not in run.stdout
    # SANITIZED_TESTS reach every entry point
    assert sorted((tmp_path / "called.txt").read_text().split()) == sorted(_declared())


# the CPU features that each forced build of the kernel takes as absent:
# "pdep" runs the code of a CPU without AVX-512, "portable" that of one
# without AVX-512, bmi2 and popcnt
FORCED = {"pdep": ["avx512f"], "portable": ["avx512f", "bmi2", "popcnt"]}


def _forced_source(paths):
    """The kernel's source with cpu_paths' one test of each feature that
    FORCED[paths] names made 0; every site reads cpu_paths, so that one
    edit forces the code of each."""
    source = rng._SOURCE.read_text()
    for feature in FORCED[paths]:
        test = f'__builtin_cpu_supports("{feature}")'
        assert source.count(test) == 1, test
        source = source.replace(test, "0")
    return source


@pytest.mark.parametrize("paths", sorted(FORCED))
def test_seeded_outputs_hold_on_every_cpu_path(tmp_path, paths):
    # on an AVX-512 host the other tests reach only the kernel's wide
    # paths; here the pinned tests (-k pinned: the seeded reports, graphs,
    # list models and tree pieces) of every test file that defines one run
    # in a child process on a build forced onto the paths of another CPU,
    # and reach each site of cpu_paths through the entry points that hold
    # them.  The pins of the numpy backend never load the build, so they
    # are left out.  This test's own name must not match -k pinned, or the
    # child would run it again
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    files = [path for path in sorted((SRC.parent / "tests").glob("test_*.py"))
             if re.search(r"^\s*(?:def|class) \w*pinned", path.read_text(), re.M | re.I)]
    run = _served(tmp_path, _forced_source(paths).encode(), rng._FLAGS,
                  ["-k", "pinned and not numpy", *map(str, files)])
    assert run.returncode == 0, run.stdout[-4000:]
    # every test selected passed, and each file gave at least one
    selected = (tmp_path / "selected.txt").read_text().split()
    assert re.search(rf"^{len(selected)} passed, \d+ deselected in ", run.stdout, re.M), \
        run.stdout[-4000:]
    assert {node.split("::")[0] for node in selected} == {f"tests/{path.name}" for path in files}
    called = set((tmp_path / "called.txt").read_text().split())
    assert {"qw_words", "qw_consume", "qw_sampled_counts", "qw_gnp"} <= called


def test_dense_graphs_read_no_indices_out(c_backend, monkeypatch):
    # walks, tree images, their subgraphs and graphs, both discrepancy
    # estimators, the dense matrix with the C4 count and trace over it, and
    # the density and tree_counterexample experiments read a graph built
    # from rows through its rows and indptr: no graph reads its indices out
    read = []
    kept = Graph.indices
    monkeypatch.setattr(Graph, "indices", property(
        lambda g: (g._indices is None and read.append(g)) or kept.fget(g)))
    g = gen_gnp(300, 0.3, 8)
    trace = run_walk(g, ListModel(g, 9), 0, 20_000)
    walked = walk_subgraph(trace)
    k = gen_complete(200)
    hom = random_homomorphism(k, gen_nary_tree(100, 2), ListModel(k, 10), 0)
    image = image_subgraph(hom)
    _, pair = discrepancy_sampled(image, 0.1, 100, 1)
    discrepancy_refined(image, 0.1, pair)
    for h in (g, walked, k, image):
        assert np.array_equal(h.adjacency_dense().sum(axis=1), h.degrees)
        count_c4_labelled(h)
        trace_p4(h)
    for config in (dict(experiment="density", n=200, seed=5, trials=2),
                   dict(experiment="tree_counterexample", n=200, seed=4,
                        generator="complete", eps=0.1, trials=1, disc_trials=100)):
        run_experiment(ExperimentConfig(**config))
    assert not read
    assert all(h._rows is not None and h._ranks is not None and h._indices is None
               for h in (g, walked, k, image))


def test_key_graphs_read_no_indices_out_until_asked(backend, monkeypatch, tmp_path):
    # a graph built from keys, here a sparse walk's subgraph, keeps its
    # keys and an indptr counted from them: counting, looking up, reading
    # keys or edges out, inclusion, saving, packing its bit rows,
    # counting or sampling with them and unpacking them into the dense
    # matrix read no indices out; the first neighbour list does, once, as
    # the numpy sort of both arcs gives them
    g = gen_gnp(2000, 0.005, 5)
    trace = run_walk(g, ListModel(g, 6), 0, 20_000)
    read = []
    kept = Graph.indices
    monkeypatch.setattr(Graph, "indices", property(
        lambda g: (g._indices is None and read.append(g)) or kept.fget(g)))
    h = walk_subgraph(trace)
    assert h._edge_codes is not None and h._rows is None
    pairs = np.column_stack((trace.sequence[:-1], trace.sequence[1:]))
    assert len(h) == len({(min(u, v), max(u, v)) for u, v in pairs.tolist()})
    assert all(tuple(e) in h for e in pairs[:100]) and h.has_edges(*pairs.T).all()
    assert h.edge_codes() is h._edge_codes and len(h.edge_array()) == len(h)
    assert h.issubset(h) and h.issubset(g)
    assert h.degrees.sum() == 2 * len(h) and h.degree(0) == h.indptr[1]
    save_graph(h, str(tmp_path / "walked.txt"))
    assert np.array_equal(np.bitwise_count(h.bit_rows()).sum(axis=1), h.degrees)
    assert np.array_equal(neighbour_counts(h, np.ones((1, 2000), dtype=bool))[0], h.degrees)
    discrepancy_sampled(h, 0.1, 20, 1)
    assert np.array_equal(h.adjacency_dense().sum(axis=1), h.degrees)
    assert not read and h._indices is None
    assert trace.sequence[1] in h.neighbors(int(trace.sequence[0]))
    _, indices = _csr_reference(2000, h.edge_codes())
    assert h.indices.dtype == np.int32 and np.array_equal(h.indices, indices)
    assert read == [h]


def test_seed_at_2_64_takes_the_numpy_path(c_backend):
    g = build_graph(3, [(0, 1), (1, 2)])
    assert ListModel(g, 2**64 - 1)._lib is not None
    model = ListModel(g, 2**64)
    assert model._lib is None
    seq = run_walk(g, model, 1, 40).sequence
    assert seq[1:][seq[:-1] == 1].tolist() == model.entries(1, 20).tolist()
    assert np.array_equal(rng.uniform_words(2**64, rng.DOMAIN_LIST, 0, 3, 9),
                          rng.stream(2**64, rng.DOMAIN_LIST, 0, offset=3).random(9))


@settings(max_examples=200, **PER_EXAMPLE)
@given(seed=st.one_of(SEEDS, st.just(2**64), st.integers(2**64, 2**70)),
       domain=st.integers(0, 6),
       index=st.one_of(st.integers(0, 10_000), st.sampled_from([2**32 - 1, 2**32])),
       start=st.one_of(st.integers(0, 10**9), st.integers(2**63 - 60, 2**63 + 60),
                       st.integers(2**64 - 10, 2**64 + 10), st.integers(2**64, 2**70)),
       count=st.integers(0, 300))
def test_uniform_words_match_reference(c_backend, monkeypatch, seed, domain, index,
                                       start, count):
    # counts past 32 cover whole runs of 8 blocks, which the kernel may
    # draw 8 at a time, and their ends; a range that ends at or past word
    # 2^63 does not fit the kernel's int64 counter and takes the numpy path
    monkeypatch.setattr(rng, "_lib", c_backend)
    got = rng.uniform_words(seed, domain, index, start, count)
    monkeypatch.setattr(rng, "_lib", False)
    want = rng.uniform_words(seed, domain, index, start, count)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("address", [
    (2**64, 0, 0, 0), (0, 2**32, 0, 0), (0, 0, 2**32, 0), (0, 0, 0, 2**63),
    (2**70, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1),
])
def test_kernel_refuses_addresses_past_its_limits(c_backend, address):
    assert rng._kernel(*address) is None
    # one below each limit is served
    assert rng._kernel(2**64 - 1, 2**32 - 1, 2**32 - 1, 2**63 - 1) is c_backend
    assert rng._kernel() is c_backend


# each consumer that draws words, called with a seed the kernel takes
CONSUMERS = {
    "uniform_words": lambda: rng.uniform_words(7, 1, 3, 5, 40).tolist(),
    "derive_seed": lambda: rng.derive_seed(7, 4, 3),
    "ListModel": lambda: ListModel(gen_complete(9), 7).consume(range(300), 0).tolist(),
    "gen_gnp": lambda: gen_gnp(40, 0.5, 7).edge_codes().tolist(),
    "discrepancy_sampled": lambda: discrepancy_sampled(gen_complete(30), 0.3, 300, 7),
}


@pytest.mark.parametrize("name", sorted(CONSUMERS))
def test_no_module_keeps_a_gate_of_its_own(kernel_calls, monkeypatch, name):
    # the kernel serves each consumer; once rng._kernel refuses, as every
    # module imports it, none calls the kernel and each gives the numpy
    # reference's result, so no module decides on its own that it may
    call = CONSUMERS[name]
    call()
    assert sum(kernel_calls.values()) > 0
    kernel_calls.clear()
    for module in (rng, graph, walks_module, certify_module):
        monkeypatch.setattr(module, "_kernel", lambda *address: None)
    refused = call()
    assert not kernel_calls
    monkeypatch.setattr(rng, "_lib", False)
    assert refused == call()


def test_seeded_outputs_are_pinned(backend):
    test_walks.TestListModel().test_seeded_outputs_are_pinned()


@pytest.mark.parametrize("case", sorted(test_experiments.PINNED_REPORTS))
def test_seeded_report_is_pinned(backend, case):
    config, digest = test_experiments.PINNED_REPORTS[case]
    text = run_experiment(ExperimentConfig(**config)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@st.composite
def key_sets(draw):
    """(n, sorted distinct keys u*n+v, u < v): n = 0, 1 and 2, the empty
    and the complete graph, isolated vertices, and the largest key
    (n-2)*n + n-1 all come up."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(4, 40)))
    pairs = [u * n + v for u in range(n) for v in range(u + 1, n)]
    kind = draw(st.sampled_from(["some", "none", "all"]))
    keys = set(pairs) if kind == "all" else set()
    if kind == "some" and pairs:
        keys = draw(st.sets(st.sampled_from(pairs)))
    if pairs and draw(st.booleans()):
        keys.add(pairs[-1])
    return n, np.array(sorted(keys), dtype=np.int64)


def _csr_reference(n, keys):
    """indptr and indices from sorted neighbour lists, by plain Python."""
    rows = [[] for _ in range(n)]
    for k in keys.tolist():
        u, v = divmod(k, n)
        rows[u].append(v)
        rows[v].append(u)
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    return indptr, np.array([v for r in rows for v in sorted(r)], dtype=np.int64)


def _built(n, keys):
    """(graph, from rows) for the graph of sorted distinct ``keys`` built
    each way on the current backend: from the keys, from their pairs by
    ``build_graph`` and ``_pairs_graph``, which keep the rows the kernel
    marked for dense pairs, and from the rows the graph of the keys packs
    by ``Graph._from_rows``; ``from rows`` says whether it was built from
    rows."""
    us, vs = np.divmod(keys, max(n, 1))
    marked = rng._kernel() is not None and n * n <= 64 * len(keys)
    yield Graph(n, keys.copy()), False
    yield build_graph(n, np.column_stack((us, vs))), marked
    yield _pairs_graph(n, len(us), [(us, vs)]), marked
    yield Graph._from_rows(Graph(n, keys).bit_rows()), True


@settings(max_examples=300, **PER_EXAMPLE)
@given(case=key_sets())
def test_csr_matches_reference(c_backend, monkeypatch, case):
    # the numpy sort of keys, the kernel's and numpy's read-out of bit
    # rows, and plain Python
    n, keys = case
    indptr, indices = _csr_reference(n, keys)
    for lib in (c_backend, False):
        monkeypatch.setattr(rng, "_lib", lib)
        for g, _ in _built(n, keys):
            assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
            assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
            assert np.array_equal(g.edge_codes(), keys) and g.edge_count == len(keys)


@pytest.mark.parametrize("n,keys,message", [
    (4, [1, 6, 2], "edge keys must be strictly ascending: key 2 at position 2 follows 6"),
    (4, [1, 6, 6], "edge keys must be strictly ascending: key 6 at position 2 follows 6"),
    (4, [5, 1], r"edge key 5 at position 0 is not u\*4\+v with 0 <= u < v < 4"),  # u = v
    (4, [1, 4], r"edge key 4 at position 1 is not u\*4\+v"),   # (1, 0): u > v
    (4, [1, 15], r"edge key 15 at position 1 is not u\*4\+v"),  # n^2 - 1: u = v = 3
    (4, [1, 16], r"edge key 16 at position 1 is not u\*4\+v"),  # n^2
    (4, [20], r"edge key 20 at position 0 is not u\*4\+v"),
    (4, [2**63 - 1], r"edge key 9223372036854775807 at position 0"),
    (4, [-1], r"edge key -1 at position 0 is not u\*4\+v"),
    (4, [-3, 1], r"edge key -3 at position 0"),
    (0, [0], r"edge key 0 at position 0 is not u\*0\+v with 0 <= u < v < 0"),
    (1, [0], r"edge key 0 at position 0 is not u\*1\+v"),
])
def test_bad_keys_rejected(backend, n, keys, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, keys)


@pytest.mark.parametrize("call,message", [
    (lambda: Graph(2.5, []), "vertex count must be an integer, got 2.5"),
    (lambda: Graph(-0.5, []), "vertex count must be an integer, got -0.5"),
    (lambda: Graph(-1, []), "vertex count must be non-negative, got -1"),
    (lambda: Graph(2**32, []), "vertex count 4294967296 is too large"),
    (lambda: build_graph(10**20, [(0, 1)]), "vertex count 100000000000000000000 is too large"),
    (lambda: build_graph("3", [(0, 1)]), "vertex count must be an integer, got '3'"),
    (lambda: build_graph(-1, []), "vertex count must be non-negative, got -1"),
    (lambda: build_graph(3.0, [(0, 1)]), "vertex count must be an integer, got 3.0"),
    (lambda: gen_complete(-2), "vertex count must be non-negative, got -2"),
])
def test_bad_vertex_counts_rejected(backend, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_vertex_count_bound_keeps_keys_in_int64():
    # the largest n whose ids fit int32, and the next one; keys below
    # n * n < 2^62 then fit int64
    assert _vertex_count(2**31 - 1) == 2**31 - 1
    with pytest.raises(ValueError, match="too large: vertex ids need n < 2\\^31"):
        _vertex_count(2**31)
    assert type(_vertex_count(np.int64(5))) is int


@pytest.mark.parametrize("call,message", [
    (lambda: Graph(3, np.array([1.7])), "edge keys must be integers in int64, got 1.7"),
    (lambda: Graph(3, np.array([1.0])), "got 1.0"),
    (lambda: Graph(3, [True]), "edge keys must be integers in int64, got True"),
    (lambda: Graph(3, np.array([2**63], dtype=np.uint64)), "got 9223372036854775808"),
    (lambda: build_graph(3, [[0, 1.5]]), "edge endpoints must be integers in int64, got 1.5"),
    (lambda: build_graph(3, [[0, 2**70]]), "got 1180591620717411303424"),
    (lambda: build_graph(3, [[0, 2**64 - 1]]), "got 18446744073709551615"),  # read as floats
    (lambda: build_graph(3, np.array([[0, 1]], dtype=object) + 0.5), "got 0.5"),
    (lambda: _pairs_graph(3, 1, [([0.5], [1.9])]),
     "edge endpoints must be integers in int64, got 0.5"),
    (lambda: _pairs_graph(3, 1, [([0], np.array([True]))]), "got True"),
    (lambda: _pairs_graph(3, 1, [([0], [1.5])]), "got 1.5"),
    (lambda: VertexSet.from_iterable(3, [1.5]), "vertex ids must be integers in int64, got 1.5"),
    (lambda: gen_complete(3).degree(0.5), "vertex must be an integer, got 0.5"),
    (lambda: gen_complete(3).neighbors(True), "vertex must be an integer, got True"),
    (lambda: ListModel(gen_complete(3), 1).entries(1.0, 2), "vertex must be an integer, got 1.0"),
    (lambda g=gen_complete(3): run_walk(g, ListModel(g, 1), 1.5, 3),
     "vertex must be an integer, got 1.5"),
    # counts: bools and floats, integral or not, are refused by name
    (lambda: rng.uniform_words(1, 0, 0, 2.5, 3), "offset must be an integer, got 2.5"),
    (lambda: rng.uniform_words(1, 0, 0, True, 3), "offset must be an integer, got True"),
    (lambda: rng.uniform_words(1, 0, 0, 0, 3.0), "count must be an integer, got 3.0"),
    (lambda: rng.uniform_words(1, 0, 0, 0, False), "count must be an integer, got False"),
    (lambda: rng.uniform_words(1, 0, 0, 0, -1), "count must be non-negative, got -1"),
    (lambda g=gen_complete(3): run_walk(g, ListModel(g, 1), 0, True),
     "steps must be an integer, got True"),
    (lambda g=gen_complete(3): run_walk(g, ListModel(g, 1), 0, 4.0),
     "steps must be an integer, got 4.0"),
    (lambda: ListModel(gen_complete(3), 1).entries(1, 2.5), "count must be an integer, got 2.5"),
    (lambda: ListModel(gen_complete(3), 1).entries(1, -1), "count must be non-negative, got -1"),
    (lambda: ListModel(gen_complete(3), 1).entry(1, 2.0), "count must be an integer, got 2.0"),
    (lambda: discrepancy_sampled(gen_complete(4), 0.5, 2.5, 1),
     "trials must be an integer, got 2.5"),
    (lambda: discrepancy_sampled(gen_complete(4), 0.5, True, 1),
     "trials must be an integer, got True"),
    (lambda: rng.derive_seed(True, 0, 0), "seed must be an integer, got True"),
    # tree sizes and piece sizes
    (lambda: gen_path_tree(2.5), "length must be an integer, got 2.5"),
    (lambda: gen_path_tree(True), "length must be an integer, got True"),
    (lambda: gen_nary_tree(2, 1.5), "depth must be an integer, got 1.5"),
    (lambda: gen_nary_tree(2.0, 1), "branching must be an integer, got 2.0"),
    (lambda: gen_random_tree(5.0, 3, 1), "n_vertices must be an integer, got 5.0"),
    (lambda: gen_random_tree(5, 3.0, 1), "max_deg must be an integer, got 3.0"),
    (lambda: decompose_tree(gen_path_tree(10), 1.5), "L must be an integer, got 1.5"),
    (lambda: decompose_tree(gen_path_tree(10), True), "L must be an integer, got True"),
    # step_positions' step index and trials
    (lambda: step_positions(gen_complete(5), 0, 2.0, 3, test_walks.step_law(1)),
     "step index must be an integer, got 2.0"),
    (lambda: step_positions(gen_complete(5), 0, 2.5, 3, test_walks.step_law(1)),
     "step index must be an integer, got 2.5"),
    (lambda: step_positions(gen_complete(5), 0, True, 3, test_walks.step_law(1)),
     "step index must be an integer, got True"),
    (lambda: step_positions(gen_complete(5), 0, 2, 3.0, test_walks.step_law(1)),
     "trials must be an integer, got 3.0"),
    (lambda: step_positions(gen_complete(5), 0, 2, 2.5, test_walks.step_law(1)),
     "trials must be an integer, got 2.5"),
    (lambda: step_positions(gen_complete(5), 0, 2, True, test_walks.step_law(1)),
     "trials must be an integer, got True"),
    (lambda: step_positions(gen_complete(5), 0, 2, -3, test_walks.step_law(1)),
     "trials must be non-negative, got -3"),
    # a list prefix's length parameter, refused in walk_steps' words
    (lambda g=gen_complete(3): list_subgraph(g, ListModel(g, 1), math.inf),
     "alpha must be finite, got inf"),
    (lambda g=gen_complete(3): list_subgraph(g, ListModel(g, 1), math.nan),
     "alpha must be finite, got nan"),
])
def test_non_integral_values_rejected(backend, call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_empty_inputs_still_build(backend):
    # numpy reads [] as float64; no value in it is refused
    for g in (Graph(3, []), build_graph(3, []), build_graph(3, np.empty((0, 2))),
              _pairs_graph(3, 0, [([], [])])):
        assert g.n == 3 and g.edge_count == 0 and g.indptr.tolist() == [0, 0, 0, 0]
    assert _pairs_graph(3, 0, [([], [])]).edge_codes().dtype == np.int64
    assert VertexSet.from_iterable(3, []).size == 0
    # integers of any width and Python ints in an object array are kept
    assert build_graph(3, np.array([[0, 2]], dtype=np.uint8)).edge_codes().tolist() == [2]
    assert build_graph(3, np.array([[1, 2]], dtype=object)).edge_codes().tolist() == [5]
    assert VertexSet.from_iterable(3, range(3)).members == {0, 1, 2}


def test_two_to_the_31_vertices_refused(backend):
    # ids are int32; each call refuses the count before it allocates
    for call in (lambda: Graph(2**31, []), lambda: build_graph(2**31, [(0, 1)])):
        with pytest.raises(ValueError, match=re.escape(
                "vertex count 2147483648 is too large: vertex ids need n < 2^31")):
            call()


@settings(max_examples=60, **PER_EXAMPLE)
@given(n=st.one_of(st.sampled_from([46_341, 50_000, 2**31 - 1]), st.integers(46_341, 2**31 - 1)),
       data=st.data())
def test_keys_are_formed_after_widening(c_backend, monkeypatch, n, data):
    # past n = 46,341 a product u * n of int32 ids would wrap; int32
    # endpoints near n - 1 give the keys of Python ints, formed where every
    # key is, and at n = 50,000 so does a sparse Graph built from them on
    # both backends (a Graph at n near 2^31 needs a 16 GiB indptr)
    ids = st.one_of(st.integers(0, n - 1), st.integers(max(n - 40, 0), n - 1))
    pairs = data.draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                               min_size=1, max_size=20))
    us = np.array([u for u, _ in pairs], dtype=np.int32)
    vs = np.array([v for _, v in pairs], dtype=np.int32)
    want = sorted({min(u, v) * n + max(u, v) for u, v in pairs})
    assert sorted(set(graph._pack(n, us, vs).tolist())) == want
    for lib in (c_backend, False):
        monkeypatch.setattr(rng, "_lib", lib)
        if n == 50_000:
            g = build_graph(n, pairs)
            assert g.edge_codes().tolist() == want
            assert g.has_edges(us, vs).all() and g.indices.dtype == np.int32


@settings(max_examples=200, **PER_EXAMPLE)
@given(case=key_sets())
def test_dense_graph_reads_its_keys_from_its_rows(c_backend, monkeypatch, case):
    # a graph built from bit rows keeps no keys: each call reads a new,
    # read-only array out of its rows, equal to the keys of its edges; a
    # graph built from keys keeps them; neither reads its indices out
    n, keys = case
    event("dense" if n * n <= 64 * len(keys) else "sparse")
    for lib in (c_backend, False):
        monkeypatch.setattr(rng, "_lib", lib)
        for g, from_rows in _built(n, keys):
            assert (g._edge_codes is None) == from_rows
            got = g.edge_codes()
            assert got.dtype == np.int64 and np.array_equal(got, keys)
            assert not got.flags.writeable and (got is not g.edge_codes()) == from_rows
            assert g.edge_array().tolist() == [list(divmod(k, n)) for k in keys.tolist()]
            assert g._indices is None


@settings(max_examples=100, **PER_EXAMPLE)
@given(case=key_sets(), data=st.data())
def test_has_edges_matches_key_lookup(c_backend, monkeypatch, case, data):
    # the bit test of a dense graph's rows and the key lookup of any other
    # graph against np.isin on the keys, with endpoints outside 0..n-1,
    # whose packed keys may alias an edge, counted as no edge
    n, keys = case
    end = st.one_of(st.integers(-3, n + 3), st.sampled_from([-2**40, 2**40, 2**31]))
    pairs = data.draw(st.lists(st.tuples(end, end), max_size=30))
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    inside = (0 <= us) & (us < n) & (0 <= vs) & (vs < n)
    want = inside & np.isin(np.minimum(us, vs) * n + np.maximum(us, vs), keys)
    for lib in (c_backend, False):
        monkeypatch.setattr(rng, "_lib", lib)
        g = Graph(n, keys)
        assert g.has_edges(us, vs).tolist() == want.tolist()
        assert [g.has_edge(u, v) for u, v in pairs] == want.tolist()


def test_ids_reach_the_kernel_without_a_copy(kernel_calls):
    # the int32 walk sequence and tree parents are the very buffers the
    # kernel reads, and so are a dense host's rows and rank directory, with
    # no indices, and a sparse host's indices, with no rows; the call that
    # embeds the tree marks its image's edges in the rows the homomorphism
    # keeps, so its subgraph makes no kernel call and no copy of them, and
    # they are the rows the image's gathered pairs mark
    args = kernel_calls.args
    g = gen_complete(200)
    trace = run_walk(g, ListModel(g, 1), 0, 30_000)
    walk_subgraph(trace)
    seq = trace.sequence
    assert seq.dtype == np.int32
    assert args["qw_consume"][4:7] == (None, g.bit_rows().ctypes.data, g._ranks.ctypes.data)
    assert args["qw_mark_pairs"][1:3] == (seq.ctypes.data, seq[1:].ctypes.data)
    t = gen_nary_tree(150, 2)
    hom = random_homomorphism(g, t, ListModel(g, 2), 0)
    assert t.parents.dtype == hom.image.dtype == np.int32
    assert args["qw_consume"][9] == t.parents[1:].ctypes.data
    assert args["qw_consume"][12] is not None and args["qw_consume"][12] == hom._rows.ctypes.data
    kernel_calls.clear()
    got = image_subgraph(hom)
    assert not kernel_calls and got._rows is hom._rows
    want = _pairs_graph(g.n, t.n_edges, trees_module._edge_blocks(hom))
    assert np.array_equal(got._rows, want._rows)
    sparse = gen_gnp(200, 0.01, 1)
    run_walk(sparse, ListModel(sparse, 3), int(sparse.degrees.argmax()), 1000)
    assert args["qw_consume"][4:7] == (sparse.indices.ctypes.data, None, None)


def test_visit_counts_make_no_int64_copy(backend):
    # np.bincount would cast the whole int32 sequence to int64 first
    g = gen_complete(200)
    trace = run_walk(g, ListModel(g, 3), 0, 300_000)
    tracemalloc.start()
    try:
        counts = trace.visit_counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < trace.sequence.nbytes
    assert np.array_equal(counts, np.bincount(trace.sequence[:-1], minlength=200))


@settings(max_examples=300, **PER_EXAMPLE)
@given(n=st.integers(0, 12), data=st.data())
def test_any_keys_give_the_same_graph_or_error(c_backend, monkeypatch, n, data):
    # unsorted, repeated and out-of-range keys mixed with valid ones
    keys = data.draw(st.lists(st.integers(-3, n * n + 3), max_size=30))
    if data.draw(st.booleans()):
        keys = sorted(set(keys))
    outcomes = []
    for lib in (c_backend, False):
        monkeypatch.setattr(rng, "_lib", lib)
        try:
            g = Graph(n, keys)
            outcomes.append((g.indptr.tolist(), g.indices.tolist(), g.bit_rows().tolist()))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def _graphs():
    for n in (0, 1, 2, 3, 7, 64):
        yield gen_complete(n)
    for n, p, seed in [(0, .5, 1), (1, .5, 1), (2, 1.0, 0), (30, 0.0, 3), (30, 0.1, 4),
                       (50, 0.5, 5), (300, 0.3, 6), (200, 1.0, 7)]:
        yield gen_gnp(n, p, seed)
    yield gen_two_clique_bridge(40, 0.3)
    g = gen_gnp(300, 0.3, 8)
    yield walk_subgraph(run_walk(g, ListModel(g, 9), 0, 20_000))
    g = gen_complete(200)
    hom = random_homomorphism(g, gen_nary_tree(100, 2), ListModel(g, 10), 0)
    yield image_subgraph(hom)


def test_generated_graphs_are_pinned(backend):
    # sha256 recorded before generators and subgraphs passed their sorted
    # keys straight to Graph, when every graph came through build_graph
    # and every array was int64; int32 indices are widened to hash the same
    h = hashlib.sha256()
    for g in _graphs():
        assert g.edge_count == g.degrees.sum() // 2 == len(g.edge_codes())
        h.update(str(g.n).encode())
        for a in (g.indptr, g.indices, g.edge_codes()):
            a = a.astype(np.int64)
            h.update(str(a.dtype).encode() + a.tobytes())
    assert h.hexdigest() == "05f778d7e3abc4bdd000b87dc48d51ab8e6d0be4729231ed132d15df493684e4"


def test_kernel_entry_points_are_the_loaded_ones():
    # every non-static qw_ function of the source gets its argtypes in
    # rng._declare, and nothing else does, so a half-deleted entry point
    # fails here rather than when the kernel loads; and the package calls
    # each of them, so an entry point that loses its last caller fails too
    source = (SRC / "qwalk" / "_philox.c").read_text()
    defined = re.findall(r"^(?!static\b)\w[\w ]*?\b(qw_\w+)\(", source, re.M)
    declared = _declared()
    assert len(defined) == len(set(defined)) and len(declared) == len(set(declared))
    assert sorted(defined) == sorted(declared) and len(defined) == 6
    python = "".join(p.read_text() for p in sorted((SRC / "qwalk").glob("*.py")))
    assert [name for name in declared if f".{name}(" not in python] == []


def test_kernel_compiles_without_warnings():
    # rng._build discards gcc's output, so a warning would show nowhere
    # else: the kernel as shipped and each forced source
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    check = ["gcc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only"]
    out = subprocess.run([*check, str(SRC / "qwalk" / "_philox.c")], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    for paths in sorted(FORCED):
        out = subprocess.run([*check, "-x", "c", "-"], input=_forced_source(paths),
                             capture_output=True, text=True)
        assert out.returncode == 0, (paths, out.stderr)


@pytest.mark.parametrize("n", [63, 64, 65, 2000])
@pytest.mark.parametrize("eps", [0.2, 0.9])
def test_sampled_counts_do_not_depend_on_threads(c_backend, n, eps):
    # the sampler's trials run on 1, 2, 3 and 5 threads, each with its own
    # part of ``work``, give the same sizes and counts: 255, 257 and 513
    # trials end in a part block, the threads split blocks among them, and
    # at eps = 0.9 every e(A, B) is counted over a complement
    g = gen_gnp(n, 0.5, n)
    for trials in (1, 255, 257, 513, 2000):
        runs = [_sampler_call(c_backend, g, math.ceil(eps * n), trials, trials, threads)
                for threads in (1, 2, 3, 5)]
        offset, sizes, e = runs[0]
        assert offset >= trials and (e >= 0).all()
        assert all(o == offset and np.array_equal(s, sizes) and np.array_equal(c, e)
                   for o, s, c in runs[1:])


def _sampler_call(lib, g, lo, seed, trials, threads=1):
    """(offset, sizes, counts) of one qw_sampled_counts call on ``g``."""
    n = g.n
    sizes = np.full((trials, 2), -1, dtype=np.int64)
    e = np.full(trials, -1, dtype=np.int64)
    work = np.empty(threads * (2 * n + 2 * -(-n // 64)), dtype=np.uint64)
    offset = lib.qw_sampled_counts(seed, rng.DOMAIN_SUBSETS, 0, lo, n, g.bit_rows().ctypes.data,
                                   g.indptr.ctypes.data, sizes.ctypes.data, trials, 256,
                                   threads, work.ctypes.data, e.ctypes.data)
    return offset, sizes, e


def _numpy_sizes(lo, n, seed, trials):
    """numpy's sizes for the sampler, the stream position after them and
    whether they leave half a word unread."""
    gen = rng.stream(seed, rng.DOMAIN_SUBSETS, 0)
    sizes = gen.integers(lo, n + 1, size=(trials, 2))
    return rng._next_word(gen), sizes, bool(gen.bit_generator.state["has_uint32"])


@pytest.mark.parametrize("n, lo", [(1, 1), (2, 1), (5, 5), (65, 1), (65, 33), (130, 13)])
def test_kernel_sizes_match_generator_integers(c_backend, n, lo):
    # the kernel's sizes and offset are numpy's: lo = n takes no word, and
    # 255, 256 and 257 trials cross a 4-word block edge; on 65 vertices
    # seed 3332 repeats one draw of its 2000 trials, so its 4001 32-bit
    # draws leave half a word, which no double reads
    g = gen_gnp(n, 0.5, n)
    cases = [(seed, trials) for seed in (0, 2**32 - 1, 2**64 - 1)
             for trials in (1, 255, 256, 257, 2000)]
    if (n, lo) == (65, 1):
        assert _numpy_sizes(lo, n, 3332, 2000)[::2] == (2001, True)
        cases.append((3332, 2000))
    for seed, trials in cases:
        offset, sizes, _ = _numpy_sizes(lo, n, seed, trials)
        got, drawn, e = _sampler_call(c_backend, g, lo, seed, trials)
        assert got == offset and np.array_equal(drawn, sizes) and (e >= 0).all()
        assert (offset == 0) == (lo == n)


def test_size_draw_repeats_and_gives_up_as_numpy_would(kernel_harness):
    # the sizes of a 1431655766-vertex graph from lo = 1: 2^32 mod r is
    # about r, so a third of the 32-bit draws are drawn again, and the
    # kernel returns -1 where numpy's sizes take more than 2 trials words;
    # no graph is needed, since the trials are never reached
    n = 1431655766
    cases = [(seed, trials) for seed in range(40) for trials in (1, 2, 5)]
    lines = "".join(f"{seed} 1 {n} {trials}\n" for seed, trials in cases)
    out = _section(kernel_harness, "sizes", input=lines, check=True).stdout.splitlines()
    seen = set()
    for (seed, trials), line in zip(cases, out, strict=True):
        offset, sizes, half = _numpy_sizes(1, n, seed, trials)
        if offset > 2 * trials:
            seen.add("gave up")
            assert line == "-1"
        else:
            seen.add("half a word" if half else "whole words")
            assert list(map(int, line.split())) == [offset, *sizes.ravel().tolist()]
    assert seen == {"gave up", "half a word", "whole words"}


@st.composite
def pair_lists(draw):
    """(n, us, vs): edges of K_n, some repeated in the same and in the
    other orientation, with n on both sides of n^2 <= 64 m; n = 0 and 1
    come with no pairs, and the keys 63 and 64 on either side of a 64-bit
    word edge and the largest key (n-2)*n + n-1 come up where they are
    edges."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 9, 65]), st.integers(2, 90)))
    if n < 2:
        return n, [], []
    # (u, u + d mod n) with 0 < d < n is an edge
    pairs = [(u, (u + d) % n) for u, d in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=80))]
    pairs += [divmod(k, n) for k in (63, 64, n * n - n - 1)
              if k // n < k % n < n and draw(st.booleans())]
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    pairs += [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(repeats)]
    return n, [u for u, _ in pairs], [v for _, v in pairs]


@settings(max_examples=200, **PER_EXAMPLE)
@given(case=pair_lists())
def test_edge_keys_table_matches_sort(c_backend, monkeypatch, case):
    # the kernel's bit table where n^2 <= 64 m, the numpy sort elsewhere
    # and without the kernel, and the plain-Python key set
    n, us, vs = case
    event("bit table" if n * n <= 64 * len(us) else "sort")
    want = sorted({min(u, v) * n + max(u, v) for u, v in zip(us, vs)})
    for lib in (c_backend, False):
        monkeypatch.setattr(rng, "_lib", lib)
        keys = _pairs_graph(n, len(us), [(us, vs)]).edge_codes()
        assert keys.dtype == np.int64 and keys.tolist() == want


@pytest.mark.parametrize("n,us,vs,message", [
    (4, [0], [5], r"edge endpoint out of range: \(0, 5\) with n=4"),  # key 5 is (1, 1)
    (4, [0], [0], "self-loop rejected at vertex 0"),
    (4, [-1], [2], r"edge endpoint out of range: \(-1, 2\) with n=4"),
    (4, [1, 2, 0], [1, 3, 9], r"out of range: \(0, 9\)"),  # before any self-loop
    (4, [0, 1, 3], [1, 2, 3], "self-loop rejected at vertex 3"),
    (1, [0], [0], "self-loop rejected at vertex 0"),
    (0, [0], [1], r"out of range: \(0, 1\) with n=0"),
    (100, [3], [100], r"out of range: \(3, 100\) with n=100"),  # sorted, even with the kernel
    (100, [3], [3], "self-loop rejected at vertex 3"),
    (4, [0, 1], [1], "pairs must be two 1-d arrays of equal length"),
])
def test_bad_pairs_rejected(backend, n, us, vs, message):
    with pytest.raises(ValueError, match=message):
        _pairs_graph(n, len(us), [(us, vs)])
    if len(us) == len(vs):
        with pytest.raises(ValueError, match=message):
            build_graph(n, np.column_stack((us, vs)))


@settings(max_examples=200, **PER_EXAMPLE)
@given(case=pair_lists(), data=st.data())
def test_blocks_build_the_graph_of_one_block(c_backend, monkeypatch, case, data):
    # pairs cut into blocks, empty ones among them, and no block at all
    # for no pairs, give the graph of one block on either backend and in
    # either store: the kernel marks each block into one set of rows, and
    # numpy packs each block's keys into one array
    n, us, vs = case
    us, vs = np.array(us, dtype=np.int32), np.array(vs, dtype=np.int32)
    cuts = [0, *sorted(data.draw(st.lists(st.integers(0, len(us)), max_size=6))), len(us)]
    blocks = [(us[a:b], vs[a:b]) for a, b in zip(cuts, cuts[1:])]
    if not len(us) and data.draw(st.booleans()):
        blocks = []
    event(f"{min(len(blocks), 3)} blocks, rows rule {n * n <= 64 * len(us)}")
    for lib in (c_backend, False):
        monkeypatch.setattr(rng, "_lib", lib)
        one, cut = _pairs_graph(n, len(us), [(us, vs)]), _pairs_graph(n, len(us), iter(blocks))
        assert (cut._rows is not None) == (lib is c_backend and n * n <= 64 * len(us))
        assert np.array_equal(cut.edge_codes(), one.edge_codes())
        assert np.array_equal(cut.indptr, one.indptr)
        for mine, want in ((cut._rows, one._rows), (cut._edge_codes, one._edge_codes)):
            assert (mine is None) == (want is None)
            assert mine is None or np.array_equal(mine, want)


@pytest.mark.parametrize("n", [4, 100])  # rows with the kernel on 4 vertices, keys on 100
@pytest.mark.parametrize("bad,message", [
    (([2, 3, 0], [1, 3, 1000]), r"edge endpoint out of range: \(0, 1000\) with n="),
    (([2, 3], [1, 3]), "self-loop rejected at vertex 3"),
])
def test_a_later_blocks_bad_pair_raises_its_message(backend, n, bad, message):
    # the first bad block's own message, though a good block came before
    # it and a block with another fault after it
    good, worse = ([0, 1], [1, 2]), ([-1, 2], [2, 2])
    for blocks in ([good, bad], [good, ([], []), bad, worse]):
        with pytest.raises(ValueError, match=message):
            _pairs_graph(n, sum(len(us) for us, _ in blocks), iter(blocks))


def test_blocks_hold_the_pairs_given(backend):
    # more pairs than m, on rows with the kernel, and fewer
    for m in (1, 3):
        with pytest.raises(ValueError, match=f"the blocks hold 2 pairs, not m = {m}"):
            _pairs_graph(4, m, [([0], [1]), ([1], [2])])


def test_kernel_sets_no_bit_for_bad_pairs(c_backend, monkeypatch):
    # the checking pass returns before the rows are touched, even where
    # the bad pair comes after good ones; _mark_rows then raises the
    # ValueError of numpy's check, with no bit of its rows set, on either
    # backend
    for us, vs in [([0, 1], [1, 5]), ([0, 3], [1, 3]), ([0, -1], [1, 2]), ([2, 0], [4, 1])]:
        us, vs = np.array(us, dtype=np.int32), np.array(vs, dtype=np.int32)
        rows = np.zeros((4, 1), dtype=np.uint64)
        assert c_backend.qw_mark_pairs(4, us.ctypes.data, vs.ctypes.data, 2,
                                       rows.ctypes.data) == -1
        assert not rows.any()
        messages = []
        for lib in (c_backend, False):
            monkeypatch.setattr(rng, "_lib", lib)
            with pytest.raises(ValueError) as raised:
                _mark_rows(4, us, vs)
            marked = next(e.locals["rows"] for e in raised.traceback if e.name == "_mark_rows")
            assert marked.shape == (4, 1) and not marked.any()
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


@settings(max_examples=100, **PER_EXAMPLE)
@given(case=pair_lists(), data=st.data())
def test_subgraph_matches_numpy_backend(c_backend, monkeypatch, case, data):
    # a subgraph of kept rows, where the kernel marks dense pairs, against
    # the sorted keys of the numpy backend: the same codes, count, edge
    # array, membership and inclusion, also across the two backends
    n, us, vs = case
    event("bit rows" if n * n <= 64 * len(us) else "sort")
    half = len(us) // 2

    def subgraphs(lib):
        monkeypatch.setattr(rng, "_lib", lib)
        return (_pairs_graph(n, len(us), [(us, vs)]),
                _pairs_graph(n, half, [(us[:half], vs[:half])]))

    (whole, part), (ref_whole, ref_part) = subgraphs(c_backend), subgraphs(False)
    assert (whole._rows is not None) == (n * n <= 64 * len(us))
    assert ref_whole._rows is None
    # endpoints outside 0..n-1, whose packed keys may alias an edge
    end = st.one_of(st.integers(-2, n + 2), st.sampled_from([-2**40, 2**31, 2**40]))
    probes = data.draw(st.lists(st.tuples(end, end), max_size=20))
    probes += [(u, v) for u in range(-1, min(n, 8) + 2) for v in range(-1, min(n, 8) + 2)]
    for s, ref, k in ((whole, ref_whole, len(us)), (part, ref_part, half)):
        edges = {(min(u, v), max(u, v)) for u, v in zip(us[:k], vs[:k])}
        want = [(min(u, v), max(u, v)) in edges for u, v in probes]
        assert len(s) == len(ref) == len(edges)
        assert [e in s for e in probes] == [e in ref for e in probes] == want
        codes = s.edge_codes()
        assert codes.dtype == np.int64 and not codes.flags.writeable
        assert np.array_equal(codes, ref.edge_codes())
        assert np.array_equal(s.edge_array(), ref.edge_array())
    for a, b in ((part, whole), (whole, part), (part, ref_whole), (ref_whole, part)):
        assert a.issubset(b) == (set(a.edge_codes().tolist()) <= set(b.edge_codes().tolist()))
    assert part.issubset(whole) and whole.issubset(ref_whole)


@st.composite
def count_cases(draw):
    """(n, keys, sets, among): n at and around the 64-bit word edges or up
    to 200, hosts from empty to complete with some vertices isolated, and
    up to 5 sets; the first set is empty and the last full when there are
    two or more, and ``among`` is None or masks of the same kind."""
    n = draw(st.one_of(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]),
                       st.integers(0, 200)))
    rand = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    us, vs = np.triu_indices(n, 1)
    alone = rand.random(n) < draw(st.sampled_from([0.0, 0.2]))
    keep = (rand.random(len(us)) < draw(st.floats(0, 1))) & ~alone[us] & ~alone[vs]
    k = draw(st.integers(0, 5))

    def masks():
        m = rand.random((k, n)) < draw(st.floats(0, 1))
        if k >= 2:
            m[0], m[-1] = False, True
        return m

    return n, us[keep] * n + vs[keep], masks(), masks() if draw(st.booleans()) else None


def brute_counts(n, keys, sets, among):
    """|N(v) & S_t| from the edge list through a dense 0/1 matrix."""
    adj = np.zeros((n, n), dtype=np.int64)
    u, v = Graph(n, keys).edge_array().T
    adj[u, v] = adj[v, u] = 1
    out = sets.astype(np.int64) @ adj
    if among is not None:
        out[~among] = 0
    return out


@settings(max_examples=150, **PER_EXAMPLE)
@given(case=count_cases())
def test_neighbour_counts_match_brute_count(backend, case):
    n, keys, sets, among = case
    g = Graph(n, keys)
    want = brute_counts(n, keys, sets, among)
    for _ in range(2):  # packs the bit rows, then reuses them
        got = neighbour_counts(g, sets, among)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def _rows_from_edges(g):
    """Bit rows set one edge at a time from the edge list."""
    rows = np.zeros((g.n, -(-g.n // 64)), dtype=np.uint64)
    for u, v in g.edge_array().tolist():
        rows[u, v // 64] |= np.uint64(1 << (v % 64))
        rows[v, u // 64] |= np.uint64(1 << (u % 64))
    return rows


@settings(max_examples=150, **PER_EXAMPLE)
@given(case=count_cases(), data=st.data())
def test_bit_rows_match_reference(backend, case, data):
    # the rows a graph packs from its keys, and _mark_rows over its edges
    # in any order and orientation, some repeated, as int32 or int64 ids,
    # set the bits that the edge list sets one at a time
    n, keys, _, _ = case
    g = Graph(n, keys)
    want = _rows_from_edges(g)
    assert np.array_equal(g.bit_rows(), want)
    rand = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pairs = g.edge_array()
    pairs = np.concatenate([pairs, pairs[rand.random(len(pairs)) < 0.3]])
    pairs = pairs[rand.permutation(len(pairs))]
    flip = rand.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    ids = pairs.astype(data.draw(st.sampled_from([np.int32, np.int64])))
    assert np.array_equal(_mark_rows(n, ids[:, 0], ids[:, 1]), want)


@settings(max_examples=150, **PER_EXAMPLE)
@given(case=count_cases())
def test_dense_graph_keeps_its_rows(c_backend, monkeypatch, case):
    # a graph built from bit rows, as build_graph and _pairs_graph build one
    # from dense pairs with the kernel, keeps its rows, read-only; a graph
    # built from keys marks its rows on first use; all equal numpy's, and
    # every graph counts the edges of its keys
    n, keys, _, _ = case
    event("bit rows" if n * n <= 64 * len(keys) else "numpy sort")
    monkeypatch.setattr(rng, "_lib", False)
    reference = Graph(n, keys)
    want = reference.bit_rows()
    for lib in (c_backend, False):
        monkeypatch.setattr(rng, "_lib", lib)
        for g, from_rows in _built(n, keys):
            assert (g._rows is not None) == from_rows
            assert g.edge_count == g.degrees.sum() // 2 == len(keys)
            rows = g.bit_rows()
            assert rows is g._rows and not rows.flags.writeable
            assert rows.dtype == np.uint64 and np.array_equal(rows, want)
            assert np.array_equal(g.indptr, reference.indptr)
            assert np.array_equal(g.indices, reference.indices)


def test_walk_and_image_subgraphs_make_no_keys(kernel_calls):
    # a walk's and a tree image's subgraph keep only the rows the kernel
    # marked: counting them reads no key out, and counting a walk's
    # allocates less than half of what its keys take.  The walk's trace is
    # marked by qw_mark_pairs on each call; the image's edges were marked
    # by the qw_consume call that embedded the tree, given clear rows, so
    # its subgraph makes no kernel call, and its rows are those that the
    # image's gathered pairs mark
    g = gen_gnp(300, 0.3, 8)
    trace = run_walk(g, ListModel(g, 9), 0, 20_000)
    t = gen_nary_tree(100, 2)
    hom = random_homomorphism(g, t, ListModel(g, 10), 0)
    assert kernel_calls.args["qw_consume"][12] is not None
    tracemalloc.start()
    try:
        count = len(walk_subgraph(trace))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * count / 2
    kernel_calls.clear()
    image = image_subgraph(hom)
    assert not kernel_calls
    for s in (walk_subgraph(trace), image):
        count = len(s)
        assert s._edge_codes is None and s.edge_count == count
        assert len(s.edge_codes()) == count
    assert kernel_calls == {"qw_mark_pairs": 1}
    want = _pairs_graph(g.n, t.n_edges, trees_module._edge_blocks(hom))
    assert np.array_equal(image._rows, want._rows)


def test_walk_edges_walk_and_mark_in_one_kernel_call(kernel_calls, monkeypatch):
    # under the table rule the one qw_consume call that walks also marks
    # the walk's edges, on a host built from rows and on one built from
    # keys, with no qw_mark_pairs call and the rows its trace marks; so
    # does the one call that embeds a tree, whose image_subgraph then makes
    # no kernel call and gives the rows its image's pairs mark.  A walk
    # whose pairs take keys walks a block at a time and marks nothing, and
    # a tree whose pairs take keys is embedded in one call that marks
    # nothing
    monkeypatch.setattr(walks_module, "_BLOCK", 1000)
    tree = gen_random_tree(3000, 4, 1)
    for g in (gen_gnp(300, 0.5, 2), Graph(300, gen_gnp(300, 0.05, 2).edge_codes()),
              gen_complete(65)):
        kernel_calls.clear()
        start = int(g.degrees.argmax())
        got = walks_module.walk_edges(g, ListModel(g, 5), start, 5000)
        assert kernel_calls == {"qw_consume": 1} and kernel_calls.args["qw_consume"][12]
        want = walk_subgraph(run_walk(g, ListModel(g, 5), start, 5000))
        assert np.array_equal(got._rows, want._rows) and got._indices is None
        kernel_calls.clear()
        hom = random_homomorphism(g, tree, ListModel(g, 5), start)
        assert kernel_calls == {"qw_consume": 1} and kernel_calls.args["qw_consume"][12]
        got = image_subgraph(hom)
        assert kernel_calls == {"qw_consume": 1} and got._indices is None
        want = _pairs_graph(g.n, tree.n_edges, trees_module._edge_blocks(hom))
        assert np.array_equal(got._rows, want._rows)
    sparse = Graph(3000, gen_gnp(3000, 0.002, 1).edge_codes())
    kernel_calls.clear()
    walks_module.walk_edges(sparse, ListModel(sparse, 5), int(sparse.degrees.argmax()), 10_000)
    assert kernel_calls == {"qw_consume": 10} and kernel_calls.args["qw_consume"][12] is None
    kernel_calls.clear()
    hom = random_homomorphism(sparse, tree, ListModel(sparse, 5), int(sparse.degrees.argmax()))
    assert kernel_calls == {"qw_consume": 1} and kernel_calls.args["qw_consume"][12] is None
    assert hom._rows is None and image_subgraph(hom)._rows is None


def test_pair_graphs_read_out_the_rows_the_kernel_marked(kernel_calls):
    # qw_mark_pairs marks both bits of a walk's dense pairs, and the graph
    # reads those rows out: no key is made, checked or marked again
    g = gen_gnp(300, 0.3, 8)
    trace = run_walk(g, ListModel(g, 9), 0, 20_000)
    pairs = np.column_stack((trace.sequence[:-1], trace.sequence[1:]))
    for make in (lambda: walk_subgraph(trace), lambda: build_graph(300, pairs)):
        kernel_calls.clear()
        h = make()
        assert kernel_calls == {"qw_mark_pairs": 1} and h._indices is None
        assert h._rows is not None and np.array_equal(h._rows, _rows_from_edges(h))


def test_dense_counts_never_pack_rows(kernel_calls, monkeypatch):
    # K_100's rows are written in numpy and G(300, 0.3) is drawn into its
    # rows, with no key made and no indices read out; both keep those
    # rows.  A G(300, 0.01) below the rule builds its CSR arrays with no
    # kernel call and packs its rows once, on first use, in one
    # qw_mark_pairs call; counting calls no other entry point
    packed = []
    monkeypatch.setattr(graph, "_mark_rows",
                        lambda n, us, vs: packed.append(n) or _mark_rows(n, us, vs))
    complete = gen_complete(100)
    assert not kernel_calls
    gnp = gen_gnp(300, 0.3, 1)
    assert kernel_calls == {"qw_gnp": 1}
    neighbour_counts(complete, np.ones((2, 100), dtype=bool))
    neighbour_counts(gnp, np.ones((1, 300), dtype=bool))
    assert kernel_calls == {"qw_gnp": 1} and not packed
    assert complete._indices is None and gnp._indices is None
    keys = gen_gnp(300, 0.01, 1).edge_codes()
    kernel_calls.clear()
    g = Graph(300, keys)
    assert not kernel_calls and g._rows is None
    for _ in range(2):
        neighbour_counts(g, np.ones((1, 300), dtype=bool))
    assert packed == [300] and kernel_calls == {"qw_mark_pairs": 1}


@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 129])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_rows_read_out_as_the_sorted_arcs(n, p):
    # Graph._from_rows' indices, unpacked from its rows, against the numpy
    # sort of both arcs of the same keys, and either graph's dense matrix
    # against the edges set one by one; the rows are kept
    pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)], dtype=np.int64)
    pairs = pairs.reshape(-1, 2)[np.random.default_rng(n).random(len(pairs)) < p]
    keys = pairs[:, 0] * n + pairs[:, 1]
    rows = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    for u, v in (pairs.T, pairs.T[::-1]):
        np.bitwise_or.at(rows, (u, v // 64), np.uint64(1) << (v % 64).astype(np.uint64))
    ref = Graph(n, keys)
    m = len(keys)
    g = Graph._from_rows(rows)
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
    assert np.array_equal(g.indptr, ref.indptr) and np.array_equal(g.indices, ref.indices)
    assert g.bit_rows() is rows and g.edge_count == m
    assert np.array_equal(g.edge_codes(), keys)
    dense = np.zeros((n, n))
    dense[pairs[:, 0], pairs[:, 1]] = dense[pairs[:, 1], pairs[:, 0]] = 1
    for h in (g, ref):
        assert h.adjacency_dense().dtype == np.float64
        assert np.array_equal(h.adjacency_dense(), dense)


@pytest.mark.parametrize("sets,among,message", [
    (np.zeros(4, bool), None, r"sets must be a \(k, 4\) bool array, got shape \(4,\)"),
    (np.zeros((1, 5), bool), None, r"got shape \(1, 5\)"),
    (np.zeros((2, 4), bool), np.zeros((1, 4), bool),
     r"among must have the shape \(2, 4\) of sets, got \(1, 4\)"),
])
def test_neighbour_counts_reject_bad_shapes(backend, sets, among, message):
    with pytest.raises(ValueError, match=message):
        neighbour_counts(gen_complete(4), sets, among)


def _gnp_reference(n, p, seed):
    """G(n, p)'s keys row by row from numpy's Philox streams."""
    keys = [u * n + v for u in range(n - 1)
            for v in (u + 1 + np.flatnonzero(
                rng.stream(seed, rng.DOMAIN_GNP, u).random(n - u - 1) < p)).tolist()]
    return np.array(keys, dtype=np.int64)


@st.composite
def gnp_cases(draw):
    """(n, p, seed, pair): n at the 64-bit word edges, with the largest key
    n^2 - n - 1 in the table's last, partial word for n <= 8, or up to
    300; p = 0, 1, an exact double k * 2^-53, or the double of one pair's
    own word, which that pair must then miss (``pair``, else None)."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 3, 7, 8, 63, 64, 65]), st.integers(0, 300)))
    seed = draw(SEEDS)
    kind = draw(st.sampled_from(["0", "1", "k/2^53", "word"] if n >= 2 else ["0", "1", "k/2^53"]))
    pair = None
    if kind == "word":
        u = draw(st.integers(0, n - 2))
        v = draw(st.integers(u + 1, n - 1))
        p, pair = float(rng.stream(seed, rng.DOMAIN_GNP, u).random(v - u)[-1]), (u, v)
    else:
        p = {"0": 0.0, "1": 1.0}.get(kind) or draw(st.integers(0, 2**53)) * 2.0**-53
    return n, p, seed, pair


@settings(max_examples=120, **PER_EXAMPLE)
@given(case=gnp_cases())
def test_gnp_matches_row_reference(backend, case):
    # the kernel's one call where its table rule holds, the per-row
    # uniform_words path elsewhere and without the kernel
    n, p, seed, pair = case
    event("table rule holds" if 0 < n * n <= 32 * p * n * (n - 1) else "table rule fails")
    g = gen_gnp(n, p, seed)
    assert g.n == n and np.array_equal(g.edge_codes(), _gnp_reference(n, p, seed))
    if pair is not None:  # the rule is word < p, strictly
        assert not g.has_edge(*pair)


@pytest.mark.parametrize("n,p,seed,message", [
    (10, -0.1, 1, r"p must lie in \[0, 1\]"),
    (10, 1.5, 1, r"p must lie in \[0, 1\]"),
    (10, float("nan"), 1, r"p must lie in \[0, 1\]"),
    (10, 0.5, -1, "seed must be non-negative, got -1"),
    (0, 0.5, -1, "seed must be non-negative, got -1"),  # no row is drawn
    (-1, 0.5, 1, "vertex count must be non-negative"),
])
def test_gnp_rejects_bad_arguments(backend, n, p, seed, message):
    with pytest.raises(ValueError, match=message):
        gen_gnp(n, p, seed)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 300])
def test_gnp_rows_do_not_depend_on_threads(c_backend, n):
    # the kernel's rows on 1, 2, 3 and 5 threads, which claim them one at a
    # time, against the reference, at p from 0 to 1 and each word next to
    # them, where the integer compare with ceil(p 2^53) is at its edges,
    # and at a p half a step of 2^-53 above the double of pair (0, v)'s
    # word, so that p 2^53 is no integer and its ceiling keeps that pair
    words = rng.stream(11, rng.DOMAIN_GNP, 0).random(n - 1)
    v = 1 + int(np.argmax(words < 0.5)) if n > 1 else None
    half = [float(words[v - 1]) + 2.0**-54] if n > 1 and words[v - 1] < 0.5 else []
    for p in [0.0, 2.0**-53, 0.5, 1 - 2.0**-53, 1.0, *half]:
        want = Graph(n, _gnp_reference(n, p, 11)).bit_rows()
        if p in half:
            assert want[0, v // 64] >> np.uint64(v % 64) & np.uint64(1)
        for threads in (1, 2, 3, 5):
            rows = np.zeros((n, -(-n // 64)), dtype=np.uint64)
            c_backend.qw_gnp(11, rng.DOMAIN_GNP, n, p, rows.ctypes.data, threads)
            assert np.array_equal(rows, want), (p, threads)


def test_gnp_draws_in_one_kernel_call(c_backend, monkeypatch):
    # above the table rule no row goes through uniform_words; below it,
    # G(100, 0.01) (a 1250-byte table for about 400 bytes of keys) does
    calls = []

    def counted(*args):
        calls.append(args)
        return rng.uniform_words(*args)

    def refused(*args):
        raise AssertionError("uniform_words called")

    monkeypatch.setattr(graph, "uniform_words", refused)
    assert gen_gnp(2000, 0.5, 17).edge_count > 0
    monkeypatch.setattr(graph, "uniform_words", counted)
    gen_gnp(100, 0.01, 17)
    assert len(calls) == 99


@settings(max_examples=200, **PER_EXAMPLE)
@given(seed=st.one_of(SEEDS, st.integers(2**64, 2**70)),
       domain=st.one_of(st.integers(0, 6), st.integers(2**32 - 2, 2**32 + 2)),
       index=st.one_of(st.integers(0, 10_000), st.integers(2**32 - 2, 2**32 + 2)))
def test_derive_seed_matches_reference(c_backend, monkeypatch, seed, domain, index):
    # seeds from 2^64 and domains or indices from 2^32 take the numpy path
    got = rng.derive_seed(seed, domain, index)
    monkeypatch.setattr(rng, "_lib", False)
    want = rng.derive_seed(seed, domain, index)
    assert type(got) is type(want) is int and got == want
