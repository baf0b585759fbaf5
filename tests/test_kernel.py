"""The C list kernel against the numpy reference: same words, same lists.

Every test here builds its models and draws its words on both backends,
chosen with the fixtures in conftest.py, and requires equal sequences,
equal ``consumed`` counts and equal errors.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_experiments
import test_walks
from qwalk import rng
from qwalk.experiments import ExperimentConfig, run_experiment
from qwalk.graph import build_graph, gen_gnp
from qwalk.trees import gen_random_tree, random_homomorphism
from qwalk.walks import ListModel, run_walk

SRC = Path(__file__).parents[1] / "src"
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
    # a K_4 with a pendant path: each list yields thousands of entries,
    # far past the reference's 2048-word buffers
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    for seed in (0, 5, 2**32 + 5, 2**63 + 7, 2**64 - 1):
        kernel, reference = _pair(g, seed, c_backend, monkeypatch)
        for m in (kernel, reference):
            m.parts = [run_walk(g, m, 5, 12_000).sequence,
                       random_homomorphism(g, gen_random_tree(3000, 4, 1), m, 4).image,
                       run_walk(g, m, 0, 7_001).sequence]
        for a, b in zip(kernel.parts, reference.parts):
            assert np.array_equal(a, b)
        assert np.array_equal(kernel.consumed, reference.consumed)
        assert kernel.consumed.max() > 2 * 2048


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
       count=st.integers(0, 40))
def test_uniform_words_match_reference(c_backend, monkeypatch, seed, domain, index,
                                       start, count):
    # a range that ends at or past word 2^63 does not fit the kernel's
    # int64 counter and takes the numpy path
    monkeypatch.setattr(rng, "_lib", c_backend)
    got = rng.uniform_words(seed, domain, index, start, count)
    monkeypatch.setattr(rng, "_lib", False)
    want = rng.uniform_words(seed, domain, index, start, count)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_seeded_outputs_are_pinned(backend):
    test_walks.TestListModel().test_seeded_outputs_are_pinned()


@pytest.mark.parametrize("case", sorted(test_experiments.PINNED_REPORTS))
def test_seeded_report_is_pinned(backend, case):
    config, digest = test_experiments.PINNED_REPORTS[case]
    text = run_experiment(ExperimentConfig(**config)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
