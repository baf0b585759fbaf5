"""Walks, the list model, the coupling sandwich, and step distributions."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from qwalk import rng, walks
from qwalk.graph import Graph, build_graph, gen_complete, gen_gnp
from qwalk.rng import DOMAIN_STEP_LAW, DOMAIN_TRIALS, derive_seed, stream
from qwalk.trees import (build_tree, gen_nary_tree, gen_path_tree, gen_random_tree,
                         image_subgraph, random_homomorphism)
from qwalk.walks import (Distribution, ListModel, WalkTrace, balanced_start, list_subgraph,
                         load_trace, run_walk, sandwich_bounds, save_trace, stationary,
                         step_positions, tv_distance, walk_edges, walk_steps,
                         walk_subgraph)

# each example sets the block it needs; the fixtures restore it after the test
PER_EXAMPLE = dict(derandomize=True, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


def path_graph(k):
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


def upper_gamma_regularized(k_int, y):
    """Q(k, y) = exp(-y) * sum_{j<k} y^j / j! for integer shape k."""
    term, total = 1.0, 1.0
    for j in range(1, k_int):
        term *= y / j
        total += term
    return math.exp(-y) * total


def step_law(seed):
    """The generator that the step-law stream of ``seed`` opens."""
    return stream(seed, DOMAIN_STEP_LAW, 0)


class TestStationary:
    def test_complete_uniform(self):
        pi = stationary(gen_complete(6))
        assert np.allclose(pi.probs, 1 / 6)

    def test_path(self):
        pi = stationary(path_graph(3))
        assert np.allclose(pi.probs, [0.25, 0.5, 0.25])

    def test_sums_to_one(self):
        pi = stationary(gen_gnp(50, 0.3, 4))
        assert abs(pi.probs.sum() - 1) < 1e-12

    def test_edgeless_rejected(self):
        with pytest.raises(ValueError):
            stationary(build_graph(3, []))


class TestBalancedStart:
    def test_lowest_id_balanced(self):
        g = gen_gnp(50, 0.5, 21)
        v = balanced_start(g, 0.2)
        rho = g.edge_count / (50 * 49 / 2)
        assert abs(g.degree(v) - rho * 50) <= 0.2 * 50
        for u in range(v):
            assert abs(g.degree(u) - rho * 50) > 0.2 * 50

    def test_no_balanced_vertex(self):
        star = build_graph(12, [(0, i) for i in range(1, 12)])
        with pytest.raises(ValueError, match="balanced"):
            balanced_start(star, 0.05)


class TestListModel:
    def test_next_entry_consumes_in_order(self):
        g = gen_gnp(20, 0.5, 4)
        model = ListModel(g, 11)
        got = [model.next_entry(3) for _ in range(7)]
        assert got == model.entries(3, 7).tolist()
        assert model.consumed[3] == 7

    def test_entries_are_neighbors(self):
        g = gen_gnp(20, 0.4, 1)
        model = ListModel(g, 5)
        for v in range(g.n):
            if g.degree(v) == 0:
                continue
            nbrs = set(g.neighbors(v).tolist())
            assert set(model.entries(v, 50).tolist()) <= nbrs

    def test_entry_replay_is_stateless(self):
        g = gen_gnp(20, 0.4, 1)
        model = ListModel(g, 5)
        before = model.entries(3, 10).tolist()
        run_walk(g, model, 0, 200)
        assert model.entries(3, 10).tolist() == before
        assert model.entry(3, 7) == before[6]

    def test_consumption_matches_departures(self):
        g = gen_gnp(20, 0.4, 1)
        model = ListModel(g, 5)
        trace = run_walk(g, model, 0, 300)
        assert np.array_equal(model.consumed, trace.visit_counts)

    def test_consumed_is_read_only(self):
        g = gen_complete(4)
        model = ListModel(g, 1)
        with pytest.raises(AttributeError):
            model.consumed = np.zeros(4, dtype=np.int64)

    def test_refill_boundary_and_interleaved_consumers(self):
        # a 20k-step walk on 6 vertices takes thousands of entries from
        # every list, so each crosses several 2048-word buffer refills;
        # a tree and single entries then continue the same lists
        g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                            (3, 4), (4, 5)])
        model = ListModel(g, 21)
        trace = run_walk(g, model, 5, 20_000)
        hom = random_homomorphism(g, gen_random_tree(4000, 4, 8), model, 4)
        singles = [(v, model.next_entry(v)) for v in (5, 0, 3, 3, 1)]
        taken = {v: [] for v in range(g.n)}
        seq = trace.sequence.tolist()
        for u, w in zip(seq, seq[1:]):
            taken[u].append(w)
        img = hom.image.tolist()
        for j, p in enumerate(hom.tree.parents[1:].tolist(), start=1):
            taken[img[p]].append(img[j])
        for v, w in singles:
            taken[v].append(w)
        assert max(len(t) for t in taken.values()) > 2 * 2048
        replay = ListModel(g, 21)
        for v, got in taken.items():
            assert replay.entries(v, len(got)).tolist() == got
        departures = (trace.visit_counts + hom.visit_counts
                      + np.bincount([v for v, _ in singles], minlength=g.n))
        assert np.array_equal(model.consumed, departures)
        assert (model.consumed == [len(taken[v]) for v in range(g.n)]).all()

    def test_seed_checked_at_construction(self):
        g = gen_complete(4)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            ListModel(g, -1)
        with pytest.raises(ValueError, match="seed must be an integer, got 1.7"):
            ListModel(g, 1.7)
        assert ListModel(g, np.uint64(3)).seed == 3

    def test_seeded_outputs_are_pinned(self):
        # sha256 recorded before list buffers held shared vertex ids.  The
        # K_8 on ids 392..399 (above CPython's cached small ints) takes
        # over 2048 entries per list, so walks, a tree and single entries
        # all read across refills of one model.
        clique = range(392, 400)
        g = build_graph(400, [(u, v) for u in clique for v in clique if u < v]
                        + [(399, 3), (3, 4), (4, 5), (3, 5)])
        model = ListModel(g, 2024)
        parts = [run_walk(g, model, 399, 30_000).sequence,
                 [model.next_entry(v) for v in (3, 399, 392, 5, 399)],
                 random_homomorphism(g, gen_random_tree(5000, 4, 3), model, 3).image,
                 run_walk(g, model, 4, 10_000).sequence,
                 model.consumed]
        assert model.consumed.max() > 2 * 2048
        data = b"".join(np.asarray(p, dtype=np.int64).tobytes() for p in parts)
        assert hashlib.sha256(data).hexdigest() == (
            "1285810546d05322c78608d45252fd36449ef50bc87d16875324cc1f3aff167b")

    def test_buffers_hold_references_not_ints(self, numpy_backend):
        # on n=600 most ids lie above the small-int cache; a buffer of
        # fresh ints would hold about 8 + 32 * 343/600 = 26 bytes per word
        # (the buffers are the numpy backend's, so the test runs there)
        g = gen_gnp(600, 0.5, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = ListModel(g, 7)
            run_walk(g, model, 0, 20_000)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        words = int(model._drawn.sum())
        assert words >= 500 * 2048
        assert held / words < 10

    def test_kernel_holds_no_buffers(self, c_backend):
        # the C backend keeps a key, a 64-byte chunk of next entries, the
        # next entry and a count per vertex, 92 bytes, however many
        # entries a walk takes
        g = gen_gnp(600, 0.5, 3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model = ListModel(g, 7)
            run_walk(g, model, 0, 20_000)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert model.consumed.sum() == 20_000
        assert held / g.n < 100

    def test_root_outside_host_rejected(self, backend):
        g = gen_complete(4)
        model = ListModel(g, 3)
        for root in (4, -1):
            with pytest.raises(ValueError, match=f"vertex {root} is not in the host's 0..3"):
                model.consume(range(2), root)
        with pytest.raises(ValueError, match="vertex -1 is not in the host's 0..3"):
            model.next_entry(-1)
        assert model.consumed.sum() == 0

    @pytest.mark.parametrize("v", [9, 4, -1])
    def test_entries_of_vertex_outside_host_rejected(self, backend, v):
        model = ListModel(gen_complete(4), 3)
        with pytest.raises(ValueError, match=f"vertex {v} is not in the host's 0..3"):
            model.entries(v, 2)
        with pytest.raises(ValueError, match=f"vertex {v} is not in the host's 0..3"):
            model.entry(v, 2)

    @pytest.mark.parametrize("parents,match", [
        ([1], r"parents\[0\] is 1; it must lie in 0..0"),
        ([0, 2], r"parents\[1\] is 2; it must lie in 0..1"),
        ([0, 0, -1], r"parents\[2\] is -1; it must lie in 0..2"),
        (np.array([0.0, 0.5, 1.9]), "parents must be integers in int64, got 0.0"),
        ([0.0, 1.0], "parents must be integers in int64, got 0.0"),
        ([True, False], "parents must be integers in int64, got True"),
        ([0, True], "parents must be integers in int64, got True"),
        (np.zeros(2, dtype=bool), "parents must be integers in int64, got False"),
        (["0"], "parents must be integers in int64, got '0'"),
        (np.zeros((2, 1), dtype=np.int32), "parents must be a 1-d sequence, got 2 dimensions"),
        ([[0, 0], [0, 1]], "parents must be a 1-d sequence, got 2 dimensions")],
        ids=["parents0-0-1", "parents1-1-2", "parents2-2--1", "floats", "float-list", "bools",
             "bool-among-ints", "bool-array", "strings", "2-d-array", "2-d-list"])
    def test_parent_outside_its_range_rejected(self, backend, parents, match):
        # parents[j] must be an integer naming a vertex already placed,
        # 0..j, in a 1-d sequence: floats, which numpy would truncate, bools,
        # strings and 2-d arrays are refused too, and nothing is taken from
        # any list when one is
        model = ListModel(gen_complete(4), 3)
        with pytest.raises(ValueError, match=match):
            model.consume(parents, 0)
        assert model.consumed.sum() == 0

    def test_walk_consumes_prefix_of_lists(self):
        g = gen_gnp(15, 0.5, 2)
        model = ListModel(g, 9)
        trace = run_walk(g, model, 0, 100)
        replay = ListModel(g, 9)
        seq = trace.sequence
        taken = {v: [] for v in range(g.n)}
        for i in range(trace.steps):
            taken[int(seq[i])].append(int(seq[i + 1]))
        for v, got in taken.items():
            if got:
                assert replay.entries(v, len(got)).tolist() == got


class TestRunWalk:
    def test_k2_forced_alternation(self):
        g = gen_complete(2)
        trace = run_walk(g, ListModel(g, 3), 0, 4)
        assert trace.sequence.tolist() == [0, 1, 0, 1, 0]
        assert trace.visit_counts.tolist() == [2, 2]

    def test_visits_sum_to_steps(self):
        g = gen_gnp(30, 0.4, 6)
        trace = run_walk(g, ListModel(g, 1), 0, 500)
        assert trace.visit_counts.sum() == 500

    def test_deterministic(self):
        g = gen_gnp(30, 0.4, 6)
        t1 = run_walk(g, ListModel(g, 12), 2, 400)
        t2 = run_walk(g, ListModel(g, 12), 2, 400)
        assert np.array_equal(t1.sequence, t2.sequence)

    def test_consecutive_vertices_adjacent(self):
        g = gen_gnp(30, 0.4, 6)
        trace = run_walk(g, ListModel(g, 2), 0, 400)
        for i in range(trace.steps):
            assert g.has_edge(int(trace.sequence[i]), int(trace.sequence[i + 1]))

    def test_isolated_start_rejected(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            run_walk(g, ListModel(g, 1), 2, 5)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="step index must be non-negative"):
            step_positions(gen_complete(4), 0, -3, 4, step_law(1))

    @pytest.mark.parametrize("alpha,message", [
        (math.inf, "alpha must be finite, got inf"),
        (math.nan, "alpha must be finite, got nan"),
        (1e300, "alpha=1e+300 asks for alpha*n^2 = 1.6e+301 steps on n=4 vertices; "
                "a walk takes fewer than 2**63"),
        (2.0**59, "alpha*n^2 = 9.22337e+18 steps"),  # exactly 2^63
    ])
    def test_walk_steps_refuses_what_no_walk_holds(self, alpha, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            walk_steps(alpha, 4)

    def test_walk_steps_is_alpha_n_squared(self):
        assert [walk_steps(a, 20) for a in (0.5, 0.3, -1.0, 2.0**50)] == \
            [200, 120, -400, 400 * 2**50]

    def test_negative_steps_rejected(self):
        g = gen_complete(4)
        with pytest.raises(ValueError, match="non-negative number of steps, got -5"):
            run_walk(g, ListModel(g, 1), 0, -5)

    @pytest.mark.parametrize("drive", [
        lambda g, model: run_walk(g, model, 0, 200),
        lambda g, model: walk_edges(g, model, 0, 200),
        lambda g, model: random_homomorphism(g, gen_random_tree(50, 3, 1), model, 0),
        lambda g, model: list_subgraph(g, model, 0.5),
    ])
    @pytest.mark.parametrize("other", [
        lambda: gen_gnp(50, 0.5, 2),  # another host on the same vertices
        lambda: gen_gnp(50, 0.5, 1),  # an equal host, another object
        lambda: gen_complete(10),     # fewer vertices than the model names
    ])
    def test_model_of_another_graph_rejected(self, drive, other):
        g = gen_gnp(50, 0.5, 1)
        model = ListModel(g, 3)
        with pytest.raises(ValueError, match="list model belongs to another graph"):
            drive(other(), model)
        assert model.consumed.sum() == 0
        drive(g, model)  # its own graph still drives it

    def test_uniform_law_on_k4_chi_square(self):
        # on K_4 every non-stuttering length-3 continuation has mass 27^-1
        g = gen_complete(4)
        trials = 1_000_000
        gen = stream(999, DOMAIN_STEP_LAW, 0)
        w1 = step_positions(g, 0, 1, trials, gen)
        w2 = step_positions(g, w1, 1, trials, gen)
        w3 = step_positions(g, w2, 1, trials, gen)
        # rank each step among its predecessor's 3 allowed successors
        offsets = {v: np.array([u if u < v else u - 1 for u in range(4)])
                   for v in range(4)}
        code = np.zeros(trials, dtype=np.int64)
        for prev, cur, weight in [(np.zeros(trials, dtype=np.int64), w1, 9),
                                  (w1, w2, 3), (w2, w3, 1)]:
            rank = np.empty(trials, dtype=np.int64)
            for v in range(4):
                sel = prev == v
                rank[sel] = offsets[v][cur[sel]]
            code += rank * weight
        counts = np.bincount(code, minlength=27)
        expected = trials / 27
        stat = float(((counts - expected) ** 2 / expected).sum())
        p_value = upper_gamma_regularized(13, stat / 2)  # chi^2, 26 dof
        assert p_value > 1e-3

    def test_uniform_law_of_coupled_walks_on_k4(self):
        # same check through the real list-model path, fewer trials
        g = gen_complete(4)
        trials = 20_000
        counts = np.zeros(27, dtype=np.int64)
        for t in range(trials):
            model = ListModel(g, derive_seed(4242, DOMAIN_TRIALS, t))
            seq = run_walk(g, model, 0, 3).sequence.tolist()
            code = 0
            for prev, cur in zip(seq, seq[1:]):
                code = code * 3 + (cur if cur < prev else cur - 1)
            counts[code] += 1
        expected = trials / 27
        stat = float(((counts - expected) ** 2 / expected).sum())
        p_value = upper_gamma_regularized(13, stat / 2)
        assert p_value > 1e-3


class TestWalkSubgraph:
    def test_k2_single_edge(self):
        g = gen_complete(2)
        trace = run_walk(g, ListModel(g, 3), 0, 4)
        sub = walk_subgraph(trace)
        assert len(sub) == 1 and (0, 1) in sub

    def test_edge_bound(self):
        g = gen_gnp(30, 0.5, 8)
        trace = run_walk(g, ListModel(g, 4), 0, 200)
        assert len(walk_subgraph(trace)) <= 200

    def test_triangle_hand_trace(self):
        g = gen_complete(3)
        trace = WalkTrace(graph=g, start=0, steps=3,
                          sequence=np.array([0, 1, 2, 0]))
        assert len(walk_subgraph(trace)) == 3

    def test_edges_belong_to_parent(self):
        g = gen_gnp(25, 0.5, 8)
        sub = walk_subgraph(run_walk(g, ListModel(g, 4), 0, 300))
        for u, v in sub.edge_array():
            assert g.has_edge(int(u), int(v))


def same_graph(got, want):
    """Whether two graphs keep the same edge store, rows or keys, with the
    same row starts and edge count."""
    return ((got._rows is None) == (want._rows is None)
            and np.array_equal(got.edge_codes(), want.edge_codes())
            and (got._rows is None or np.array_equal(got._rows, want._rows))
            and np.array_equal(got.indptr, want.indptr)
            and got.edge_count == want.edge_count)


@st.composite
def walk_cases(draw):
    """(host, seed, start, steps, block): G(n, p) plus the edge 01 on up to
    40 vertices, a start with neighbours, a block of 2 to 9 steps and a
    walk of 0, 1, block - 1, block, block + 1 steps or several blocks,
    with n^2 <= 64 steps on either side; seeds past 2^64 drive the numpy
    model beside the kernel's marking."""
    n = draw(st.integers(2, 40))
    edges = gen_gnp(n, draw(st.sampled_from([0.1, 0.5, 1.0])), draw(st.integers(0, 99)))
    g = build_graph(n, edges.edge_array().tolist() + [(0, 1)])
    start = draw(st.sampled_from(np.flatnonzero(g.degrees).tolist()))
    block = draw(st.integers(2, 9))
    steps = draw(st.one_of(st.sampled_from([0, 1, block - 1, block, block + 1]),
                           st.integers(2 * block, 12 * block)))
    seed = draw(st.one_of(st.integers(0, 2**64 - 1), st.just(2**64 + 5)))
    return g, seed, start, steps, block


@st.composite
def one_pass_cases(draw):
    """(host, seed, start, steps): G(n, p) built from rows or from keys,
    K_n, or a host whose last vertex is isolated, on 1 to 63 vertices or
    about a multiple of 64, any start, and a walk of 0 or 1 steps or of
    about n^2 / 64, on either side of the table rule."""
    n = draw(st.one_of(st.integers(1, 63), st.sampled_from([64, 65, 127, 128, 129, 191])))
    kind = draw(st.sampled_from(["rows", "keys", "complete", "isolated"]))
    gnp = gen_gnp(n, draw(st.sampled_from([0.1, 0.5])), draw(st.integers(0, 99)))
    if kind == "keys":
        g = Graph(n, gnp.edge_codes())
    elif kind == "complete":
        g = gen_complete(n)
    elif kind == "isolated":
        g = build_graph(n, [(u, v) for u, v in gnp.edge_array().tolist() if v < n - 1])
    else:
        g = gnp
    rule = -(-n * n // 64)
    steps = draw(st.one_of(st.sampled_from([0, 1]), st.integers(max(rule - 3, 0), rule + 3),
                           st.integers(rule, rule + 4 * n)))
    seed = draw(st.sampled_from([0, 1, 7, 2**32 + 5, 2**64 - 1, 2**64 + 5]))
    return g, seed, draw(st.integers(0, n - 1)), steps


def _edges_or_error(walk):
    """The graph ``walk()`` returns, or the message of its ValueError."""
    try:
        return walk()
    except ValueError as exc:
        return str(exc)


class TestWalkEdges:
    @settings(max_examples=120, **PER_EXAMPLE)
    @given(case=one_pass_cases())
    def test_one_pass_matches_walk_subgraph(self, backend, case):
        # the kernel walks and marks in one pass where the rule holds, and
        # the blocks path serves elsewhere: both give the trace's graph or
        # its error and leave the lists where the walk does, over two calls
        # that continue one model
        g, seed, start, steps = case
        event("one pass" if rng.backend() == "c" and seed < 2**64 and g.n**2 <= 64 * steps
              else "blocks")
        mine, ref = ListModel(g, seed), ListModel(g, seed)
        for _ in range(2):
            got = _edges_or_error(lambda: walk_edges(g, mine, start, steps))
            want = _edges_or_error(lambda: walk_subgraph(run_walk(g, ref, start, steps)))
            assert got == want if isinstance(want, str) else same_graph(got, want)
            assert np.array_equal(mine.consumed, ref.consumed)

    @settings(max_examples=150, **PER_EXAMPLE)
    @given(case=walk_cases())
    def test_same_graph_and_model_as_walk_subgraph(self, backend, monkeypatch, case):
        # the walk's pairs built a block at a time, into rows where the
        # rule holds and keys elsewhere, against the graph of its trace;
        # either leaves the lists where the walk does
        g, seed, start, steps, block = case
        monkeypatch.setattr(walks, "_BLOCK", block)
        event("n^2 <= 64 steps" if g.n * g.n <= 64 * steps else "n^2 > 64 steps")
        event(f"{min(steps // block, 3)} whole blocks, {steps % block > 0} part")
        mine, ref = ListModel(g, seed), ListModel(g, seed)
        got = walk_edges(g, mine, start, steps)
        assert same_graph(got, walk_subgraph(run_walk(g, ref, start, steps)))
        assert np.array_equal(mine.consumed, ref.consumed)
        assert np.array_equal(run_walk(g, mine, start, 20).sequence,
                              run_walk(g, ref, start, 20).sequence)

    @pytest.mark.parametrize("steps", [0, 1, 99, 100, 101, 350])
    def test_both_sides_of_the_rule(self, backend, monkeypatch, steps):
        # K_80 takes rows from 100 steps on, 80^2 = 64 * 100, with the
        # kernel: a walk of no step, one, a block less one, a block, a
        # block and one, and three and a half blocks
        monkeypatch.setattr(walks, "_BLOCK", 100)
        g = gen_complete(80)
        mine, ref = ListModel(g, 4), ListModel(g, 4)
        got = walk_edges(g, mine, 3, steps)
        want = walk_subgraph(run_walk(g, ref, 3, steps))
        assert same_graph(got, want) and np.array_equal(mine.consumed, ref.consumed)
        assert (got._rows is not None) == (steps >= 100 and rng.backend() == "c")

    @pytest.mark.parametrize("steps", [5, 65_536 * 2 + 7])
    def test_whole_blocks_on_the_kernel_path(self, c_backend, steps):
        g = gen_gnp(300, 0.5, 2)
        mine, ref = ListModel(g, 8), ListModel(g, 8)
        got = walk_edges(g, mine, 0, steps)
        assert same_graph(got, walk_subgraph(run_walk(g, ref, 0, steps)))
        assert np.array_equal(mine.consumed, ref.consumed)

    @pytest.mark.parametrize("graph,start,steps", [
        (build_graph(3, [(0, 1)]), 2, 0),       # isolated start, no step
        (build_graph(3, [(0, 1)]), 2, 1),       # isolated start, rows rule holds
        (build_graph(3, [(0, 1)]), 2, 40),
        (gen_complete(4), 4, 10),               # start outside the host
        (gen_complete(4), -1, 0),
        (gen_complete(4), 1.0, 10),             # start not an integer
        (gen_complete(4), 0, -5),               # negative steps
        (gen_complete(4), 0, 2.5),              # steps not an integer
        (gen_complete(4), 9, "3"),              # steps checked before start
        (gen_complete(0), 0, 0),                # no vertex to start from
        (gen_complete(0), 0, 3),
    ])
    def test_errors_are_run_walks(self, backend, graph, start, steps):
        if (graph.n, start, steps) == (3, 2, 0):
            # the first row: as for its path tree, a 0-step walk from an
            # isolated vertex is the trivial walk, with no edge and no entry
            # taken, on both routes
            model = ListModel(graph, 2)
            assert run_walk(graph, model, start, steps).sequence.tolist() == [2]
            edges = walk_edges(graph, model, start, steps)
            assert len(edges) == 0 and edges.n == 3 and model.consumed.tolist() == [0, 0, 0]
            return
        raised = []
        for walk in (run_walk, walk_edges):
            model = ListModel(graph, 2)
            with pytest.raises(Exception) as caught:
                walk(graph, model, start, steps)
            raised.append((type(caught.value), str(caught.value), model.consumed.tolist()))
        assert raised[0] == raised[1] and raised[0][0] is ValueError


class TestListSubgraph:
    def test_alpha_zero_empty(self):
        g = gen_gnp(20, 0.5, 3)
        assert len(list_subgraph(g, ListModel(g, 1), 0.0)) == 0

    def test_k2_prefix(self):
        g = gen_complete(2)
        assert (0, 1) in list_subgraph(g, ListModel(g, 1), 5.0)

    def test_monotone_in_alpha(self):
        g = gen_gnp(25, 0.5, 5)
        model = ListModel(g, 7)
        for a1, a2 in [(0.1, 0.3), (0.3, 0.9), (0.9, 2.0)]:
            assert list_subgraph(g, model, a1).issubset(list_subgraph(g, model, a2))

    @pytest.mark.parametrize("alpha", [0.0, 0.01, 0.05, 0.5, 3.0])
    def test_same_prefixes_from_a_hosts_rows_or_keys(self, backend, alpha):
        # a host built from rows draws each prefix from its row, one built
        # from keys from its indices: the same entries, the same graph.
        # K_60 is built from rows on both backends, G(60, 1/2) with the kernel
        for g in (gen_complete(60), gen_gnp(60, 0.5, 1)):
            got, want = (list_subgraph(host, ListModel(host, 5), alpha)
                         for host in (g, Graph(60, g.edge_codes())))
            assert same_graph(got, want)

    def test_host_from_rows_reads_no_indices_out(self, backend):
        # the prefixes are drawn from each vertex's row alone; K_150 is
        # built from rows on both backends, G(150, 1/2) with the kernel
        for g in (gen_complete(150), gen_gnp(150, 0.5, 3)):
            from_rows = g._rows is not None
            list_subgraph(g, ListModel(g, 2), 0.7)
            assert (g._indices is None) == from_rows

    def test_retention_probability_closed_form(self):
        # fixed edge of a 100-regular host at alpha = 0.5
        g = gen_complete(101)
        hits = 0
        trials = 2000
        for t in range(trials):
            model = ListModel(g, derive_seed(31, DOMAIN_TRIALS, t))
            in_v = 0 in model.entries(1, 50)
            in_u = 1 in model.entries(0, 50)
            hits += in_v or in_u
        p_hat = hits / trials
        p = 1 - (1 - 1 / 100) ** 100
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(p_hat - p) < 3 * se


class TestSandwich:
    def test_k2_exact(self):
        g = gen_complete(2)
        model = ListModel(g, 3)
        trace = run_walk(g, model, 0, 4)
        lo, hi = sandwich_bounds(trace, g)
        assert lo == hi == 2.0
        fresh = ListModel(g, 3)
        assert list_subgraph(g, fresh, lo).edge_codes().tolist() == \
            walk_subgraph(trace).edge_codes().tolist()

    @pytest.mark.parametrize("seed", range(6))
    def test_containments_exact(self, seed):
        g = gen_gnp(40, 0.5, 100 + seed)
        model = ListModel(g, seed)
        trace = run_walk(g, model, balanced_start(g, 0.2), 800)
        lo, hi = sandwich_bounds(trace, g)
        fresh = ListModel(g, seed)
        gw = walk_subgraph(trace)
        assert list_subgraph(g, fresh, lo).issubset(gw)
        assert gw.issubset(list_subgraph(g, fresh, hi))


    def test_upper_bound_takes_every_visit(self, backend):
        # vertex 25 departs X = 15 times with d = 11: int(fl(15/11) * 11)
        # is 14, so the greatest ratio alone left one walk edge outside
        # list_subgraph(alpha_hi); the bound steps up to the next double
        g = gen_gnp(30, 0.4, 9)
        trace = run_walk(g, ListModel(g, 31), 0, 300)
        assert (trace.visit_counts[25], g.degree(25)) == (15, 11)
        lo, hi = sandwich_bounds(trace, g)
        assert int(15 / 11 * 11) == 14 and hi == np.nextafter(15 / 11, 2)
        assert int(hi * 11) == 15
        fresh = ListModel(g, 31)
        gw = walk_subgraph(trace)
        assert list_subgraph(g, fresh, lo).issubset(gw)
        assert gw.issubset(list_subgraph(g, fresh, hi))

    def test_another_host_refused(self, backend):
        # bounds read against another G(50, 1/2), or a graph on another n,
        # are those of the wrong graph or an IndexError: both are refused,
        # for a walk and for a tree image, as a model on another graph is
        g, same_n, other_n = gen_gnp(50, 0.5, 1), gen_gnp(50, 0.5, 2), gen_gnp(60, 0.5, 1)
        trace = run_walk(g, ListModel(g, 3), 0, 500)
        hom = random_homomorphism(g, gen_random_tree(300, 4, 1), ListModel(g, 3), 0)
        for walked in (trace, hom):
            lo, hi = sandwich_bounds(walked, g)
            assert 0 <= lo <= hi
            for other in (same_n, other_n):
                with pytest.raises(ValueError, match="the trace belongs to another graph"):
                    sandwich_bounds(walked, other)

    @pytest.mark.parametrize("host,tree,root", [
        (gen_gnp(300, 0.3, 1), gen_random_tree(20_000, 4, 2), 0),
        (gen_complete(200), gen_nary_tree(30, 2), 7),
        (gen_gnp(400, 0.1, 3), gen_random_tree(5_000, 3, 4), 5),
        (build_graph(4, [(0, 1), (1, 2), (2, 3)]), gen_random_tree(300, 3, 5), 3),
        (build_graph(3, []), gen_path_tree(0), 0),  # no vertex to take a ratio at
    ])
    def test_tree_image_containments_exact(self, backend, host, tree, root):
        # a tree embedding takes each image vertex's entries in order, as
        # a walk does, so the walk's sandwich bounds the tree's image
        hom = random_homomorphism(host, tree, ListModel(host, 8), root)
        lo, hi = sandwich_bounds(hom, host)
        fresh, image = ListModel(host, 8), image_subgraph(hom)
        assert list_subgraph(host, fresh, lo).issubset(image)
        assert image.issubset(list_subgraph(host, fresh, hi))

    def test_tree_upper_bound_takes_every_visit(self, backend):
        # a star of 15 children at vertex 25, of degree 11, takes X = 15
        # entries of its list; with this seed the 15th adds an edge that
        # list_subgraph(15/11), 14 entries, leaves out
        g = gen_gnp(30, 0.4, 9)
        hom = random_homomorphism(g, build_tree([None] + [0] * 15), ListModel(g, 1), 25)
        assert (hom.visit_counts[25], g.degree(25)) == (15, 11)
        lo, hi = sandwich_bounds(hom, g)
        assert lo == 0.0 and hi == np.nextafter(15 / 11, 2)
        fresh, image = ListModel(g, 1), image_subgraph(hom)
        assert not image.issubset(list_subgraph(g, fresh, 15 / 11))
        assert list_subgraph(g, fresh, lo).issubset(image)
        assert image.issubset(list_subgraph(g, fresh, hi))


class TestVisitCounts:
    """A fresh model's ``consumed`` is the X_v of the walk or the tree
    image it drove: the counts ``sandwich_bounds`` reads for either."""

    @settings(max_examples=60, **PER_EXAMPLE)
    @given(case=walk_cases(), size=st.integers(1, 400), cap=st.integers(2, 6),
           tree_seed=st.integers(0, 99))
    def test_consumed_is_the_walks_and_the_trees(self, backend, case, size, cap, tree_seed):
        g, seed, start, steps, _ = case
        model = ListModel(g, seed)
        trace = run_walk(g, model, start, steps)
        assert np.array_equal(model.consumed, trace.visit_counts)
        model = ListModel(g, seed)
        hom = random_homomorphism(g, gen_random_tree(size, cap, tree_seed), model, start)
        assert np.array_equal(model.consumed, hom.visit_counts)


class TestStepDistribution:
    def test_k2_step_one(self):
        assert step_positions(gen_complete(2), 0, 1, 50, step_law(9)).tolist() == [1] * 50

    @pytest.mark.parametrize("start", [9, -1])
    def test_start_outside_host_rejected(self, start):
        with pytest.raises(ValueError, match=f"vertex {start} is not in the host's 0..3"):
            step_positions(gen_complete(4), start, 2, 10, step_law(1))

    @pytest.mark.parametrize("host,start", [
        (build_graph(4, [(1, 2), (2, 3)]), 0),  # once walked on to vertex 2
        (build_graph(4, [(0, 1), (1, 2)]), 3),  # once raised IndexError
        (build_graph(4, [(1, 2), (2, 3)]), [1, 2, 0, 3]),
    ])
    def test_start_without_neighbors_rejected(self, host, start):
        with pytest.raises(ValueError, match=r"start vertex [03] has no neighbors"):
            step_positions(host, start, 1, 4, step_law(1))
        assert (step_positions(host, start, 0, 4, step_law(1)) == start).all()  # no step taken

    def test_starts_outside_host_rejected(self):
        with pytest.raises(ValueError, match="vertex 4 is not in the host's 0..3"):
            step_positions(gen_complete(4), [0, 4, 1], 0, 3, step_law(1))
        assert step_positions(gen_complete(4), [0, 3, 1], 0, 3, step_law(1)).tolist() == \
            [0, 3, 1]

    @pytest.mark.parametrize("start,shape", [
        ([0, 1, 2], r"\(3,\)"),                # 3 starts for 4 walks
        ([[0, 1], [2, 3]], r"\(2, 2\)"),       # not 1-d
    ])
    def test_start_of_another_shape_rejected(self, start, shape):
        # refused before any draw, naming the shape and the trials
        gen = step_law(1)
        with pytest.raises(ValueError, match=rf"start must be one vertex or 4 vertices, "
                                             rf"one per walk, got shape {shape}$"):
            step_positions(gen_complete(4), start, 2, 4, gen)
        assert gen.random() == step_law(1).random()

    def test_step_zero_point_mass(self):
        # int32 vertex ids before any step, as after one
        where = step_positions(gen_gnp(20, 0.5, 2), 4, 0, 100, step_law(9))
        assert (where == 4).all() and where.dtype == np.int32

    def test_no_trials_is_empty(self):
        assert step_positions(gen_complete(4), 0, 2, 0, step_law(1)).shape == (0,)

    @pytest.mark.parametrize("host,start", [
        (gen_gnp(30, 0.3, 4), 0),
        (build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), [0, 1, 2, 3, 4] * 20),
    ])
    def test_step_one_lands_on_a_neighbour(self, host, start):
        where = step_positions(host, start, 1, 100, step_law(2))
        assert all(host.has_edge(int(u), int(v))
                   for u, v in zip(np.broadcast_to(start, 100), where))

    def test_step_one_is_uniform_on_neighbours(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        where = step_positions(star, 0, 1, 30_000, step_law(5))
        assert np.abs(np.bincount(where, minlength=4)[1:] / 30_000 - 1 / 3).max() < 0.015

    def test_complete_graph_two_steps(self):
        # on K_n a step is uniform off the current vertex, so two steps
        # return with probability 1/(n-1) and reach each other vertex with
        # (n-2)/(n-1)^2; the positions are int32 vertex ids
        n = 40
        where = step_positions(gen_complete(n), 0, 2, 40_000, step_law(8))
        assert where.dtype == np.int32
        exact = np.full(n, (n - 2) / (n - 1) ** 2)
        exact[0] = 1 / (n - 1)
        law = Distribution.from_counts(np.bincount(where, minlength=n))
        assert tv_distance(law, Distribution(exact)) < 0.03
        assert abs(law.probs[0] - 1 / (n - 1)) < 0.005

    @pytest.mark.parametrize("i", [3, 4])
    def test_even_cycle_keeps_parity(self, i):
        ring = build_graph(10, [(k, (k + 1) % 10) for k in range(10)])
        assert (step_positions(ring, 0, i, 200, step_law(6)) % 2 == i % 2).all()

    def test_steps_continue_the_generator(self):
        # every step draws one word per walk in order, so walks advanced one
        # step at a time on one generator end where walks of two steps do
        g = gen_gnp(30, 0.3, 4)
        gen = step_law(7)
        one = step_positions(g, 0, 1, 50, gen)
        assert np.array_equal(step_positions(g, one, 1, 50, gen),
                              step_positions(g, 0, 2, 50, step_law(7)))

    def test_converges_to_stationary(self):
        g = gen_gnp(100, 0.5, 15)
        where = step_positions(g, 0, 8, 50_000, step_law(3))
        law = Distribution.from_counts(np.bincount(where, minlength=g.n))
        assert tv_distance(law, stationary(g)) < 0.05


class TestTvDistance:
    def test_identical(self):
        p = Distribution(np.array([0.5, 0.5]))
        assert tv_distance(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance(Distribution(np.array([1.0, 0.0, 0.0])),
                           Distribution(np.array([0.0, 0.0, 1.0]))) == 1.0

    def test_half(self):
        p = Distribution(np.array([0.5, 0.5]))
        q = Distribution(np.array([1.0, 0.0]))
        assert tv_distance(p, q) == 0.5

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, c = (Distribution(x / x.sum()) for x in rng.random((3, 6)))
            assert tv_distance(a, b) == tv_distance(b, a)
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-15

    def test_mismatched_universes(self):
        with pytest.raises(ValueError):
            tv_distance(Distribution(np.array([1.0, 0.0])),
                        Distribution(np.array([1.0, 0.0, 0.0])))


@pytest.mark.parametrize("probs,message", [
    ([math.nan, 1.0], "entries must be non-negative numbers"),
    ([0.5, math.nan, 0.5], "entries must be non-negative numbers"),
    ([math.nan] * 3, "entries must be non-negative numbers"),
    ([-math.inf, 1.0], "entries must be non-negative numbers"),
    ([math.inf, 1.0], "must sum to 1"),
])
def test_distribution_refuses_non_finite_entries(probs, message):
    # a NaN sum is not more than 1e-12 away from 1, so the sign check,
    # which NaN fails, must refuse it
    with pytest.raises(ValueError, match=message):
        Distribution(np.array(probs))


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        # the same int32 vertex ids that run_walk returns
        g = gen_gnp(20, 0.5, 2)
        trace = run_walk(g, ListModel(g, 5), 0, 50)
        for name in ["t.txt", "t.txt.gz"]:
            path = str(tmp_path / name)
            save_trace(trace, path)
            loaded = load_trace(g, path)
            assert loaded.start == trace.start
            assert loaded.sequence.dtype == trace.sequence.dtype == np.int32
            assert np.array_equal(loaded.sequence, trace.sequence)

    @pytest.mark.parametrize("body, match", [
        ("0 2\n0 7 0\n", "position 1 is vertex 7"),
        ("0 2\n0 -1 0\n", "position 1 is vertex -1"),
        ("0 2\n0 2 0\n", "step 1 from 0 to 2 is not a host edge"),
        ("0 1\n0 0\n", "step 1 from 0 to 0 is not a host edge"),
        ("1 1\n0 1\n", "starts at 0, header says 1"),
        ("0 3\n0 1 0\n", "sequence length 3 != steps\\+1"),
        ("0 x\n0\n", ":1: header"),
        ("0 1\n0 1.5\n", ":2: the sequence must be integer"),
        # int() reads these, as numpy did for the sequence; load_graph does not
        ("0 2\n0 +1 0\n", ":2: the sequence must be integer"),
        ("0 2\n0 1_0 0\n", ":2: the sequence must be integer"),
        ("0 2\n0 --1 0\n", ":2: the sequence must be integer"),
        ("0 1\n0 1\ngarbage line three\n", ":3: a trace ends after its sequence line"),
        ("0 1\n0 1\n\n", ":3: a trace ends after its sequence line, got ''"),
    ])
    def test_invalid_trace_rejected(self, tmp_path, body, match):
        g = build_graph(3, [(0, 1)])  # vertex 2 is isolated
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match=match) as info:
            load_trace(g, str(path))
        assert str(info.value).startswith(f"{path}:")

    def test_decimal_digits_of_any_script_read(self, tmp_path):
        # the digits str.isdecimal takes, as load_graph and load_tree read them
        path = tmp_path / "digits.txt"
        path.write_text("0 3\n0 \u0661 -\uff10 \u0967\n", encoding="utf-8")
        assert load_trace(build_graph(3, [(0, 1)]), str(path)).sequence.tolist() == [0, 1, 0, 1]
