"""Trees, homomorphisms, visit counting, and the [L, 3L] decomposition."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import rng
from qwalk.graph import Graph, _pairs_graph, gen_complete, gen_gnp
from qwalk.rng import DOMAIN_TRIALS, derive_seed
from qwalk.trees import (RootedTree, TreeHomomorphism, _edge_blocks, _tree_size, build_tree,
                         decompose_tree, gen_nary_tree, gen_path_tree, gen_random_tree,
                         image_subgraph, load_tree, random_homomorphism, save_homomorphism,
                         save_tree, tree_visit_counts)
from qwalk.walks import ListModel, run_walk, walk_edges, walk_subgraph


def check_decomposition(t, L, dec):
    """All decomposition invariants, from scratch."""
    seen = set()
    for root, edges in dec.pieces:
        assert L <= len(edges) <= 3 * L
        for e in edges:
            assert e not in seen
            seen.add(e)
        # piece with its root forms a connected rooted subtree
        verts = {root}
        pending = list(edges)
        progress = True
        while pending and progress:
            progress = False
            rest = []
            for p, c in pending:
                if p in verts:
                    verts.add(c)
                    progress = True
                else:
                    rest.append((p, c))
            pending = rest
        assert not pending, "piece is not connected to its root"
    expected = {(int(t.parents[j]), j) for j in range(1, t.size)}
    assert seen == expected, "pieces do not partition the edge set"


def reference_pieces(t, L):
    """The decomposition cut round by round: each round recounts every
    surviving vertex's descendants and depth, picks the deepest vertex with
    at least L edges below it (ties by smallest index) and detaches whole
    branches below it in ascending child order until the piece holds at
    least L edges; a remainder under L joins the last piece, re-rooted at 0.
    decompose_tree must return exactly these pieces, in this order."""
    n = t.size
    parents = t.parents
    children = t.children()
    alive = np.ones(n, dtype=bool)
    pieces = []

    def subtree_edges(top):
        out = []
        stack = [top]
        while stack:
            v = stack.pop()
            for c in reversed(children[v]):
                if alive[c]:
                    out.append((v, c))
                    stack.append(c)
        return out

    while True:
        desc = np.zeros(n, dtype=np.int64)
        for j in range(n - 1, 0, -1):
            if alive[j]:
                desc[parents[j]] += desc[j] + 1
        remaining = int(desc[0])
        if remaining < L:
            if remaining:
                _, last_edges = pieces[-1]
                pieces[-1] = (0, last_edges + subtree_edges(0))
            return pieces
        depth = np.full(n, -1, dtype=np.int64)
        depth[0] = 0
        for j in range(1, n):
            if alive[j]:
                depth[j] = depth[parents[j]] + 1
        candidates = np.nonzero(alive & (desc >= L))[0]
        v = int(candidates[np.argmax(depth[candidates])])
        got = []
        for c in children[v]:
            if not alive[c]:
                continue
            branch = [(v, c)] + subtree_edges(c)
            got.extend(branch)
            for _, w in branch:
                alive[w] = False
            if len(got) >= L:
                break
        pieces.append((v, got))


@st.composite
def small_trees(draw):
    """Random trees, stars, brooms and caterpillars of at most 120 vertices."""
    kind = draw(st.sampled_from(["random", "star", "broom", "caterpillar"]))
    if kind == "random":
        return gen_random_tree(draw(st.integers(2, 120)), draw(st.integers(2, 8)),
                               draw(st.integers(0, 10_000)))
    if kind == "star":
        return build_tree([None] + [0] * draw(st.integers(1, 119)))
    if kind == "broom":
        handle, bristles = draw(st.integers(1, 60)), draw(st.integers(1, 59))
        return build_tree([None] + list(range(handle)) + [handle] * bristles)
    # every spine vertex carries legs - 1 leaves and the next spine vertex
    legs = draw(st.integers(1, 3))
    parents, top = [None], 0
    for _ in range(draw(st.integers(1, 119 // legs))):
        parents += [top] * legs
        top = len(parents) - 1
    return build_tree(parents)


def criterion_9_pieces():
    """decompose_tree's pieces on the 1000 (tree, L) cases of criterion 9."""
    master = 20240601
    rng = np.random.default_rng(master)
    out = []
    for k in range(1000):
        size = int(rng.integers(2, 201))
        max_deg = int(rng.integers(2, 8))
        t = gen_random_tree(size, max_deg, derive_seed(master, DOMAIN_TRIALS, 800_000 + k))
        L = int(rng.integers(1, t.n_edges + 1))
        out.append(decompose_tree(t, L).pieces)
    return out


def pieces_digest(pieces):
    return hashlib.sha256(repr(pieces).encode()).hexdigest()


class TestBuildTree:
    def test_path(self):
        t = build_tree([None, 0, 1, 2])
        assert t.size == 4 and t.n_edges == 3
        assert t.max_degree == 2

    def test_star(self):
        t = build_tree([None, 0, 0, 0])
        assert t.children()[0] == [1, 2, 3]
        assert t.max_degree == 3

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError, match="earlier"):
            build_tree([None, 0, 2, 1])

    def test_root_slot(self):
        with pytest.raises(ValueError):
            build_tree([0, 0])

    @pytest.mark.parametrize("parents,got", [
        ([None, 0.7, 1.9], "0.7"),            # once truncated to [-1, 0, 1]
        ([None, 0, 1.0], "1.0"),              # integral, still a float
        ([None, False], "False"),             # numpy reads it as 0 beside ints
        ([-1, 0, True], "True"),
        ([None, "0"], "'0'"),
        ([None, 2**70], str(2**70)),          # once an OverflowError
    ])
    def test_parents_follow_the_integer_rule(self, parents, got):
        with pytest.raises(ValueError, match=re.escape(
                f"parents must be integers in int64, got {got}")):
            build_tree(parents)

    def test_integer_parents_of_any_type(self):
        for parents in ([None, 0, np.int64(1)], np.array([-1, 0, 1], dtype=np.int32),
                        (-1, np.uint8(0), 1)):
            assert build_tree(parents).parents.tolist() == [-1, 0, 1]


class TestGenerators:
    def test_nary_2_2(self):
        t = gen_nary_tree(2, 2)
        assert t.size == 7 and t.n_edges == 6
        assert t.max_degree == 3  # internal vertex: two children plus parent

    def test_nary_1000_2(self):
        t = gen_nary_tree(1000, 2)
        assert t.size == 1 + 1000 + 1000 ** 2

    @pytest.mark.parametrize("b,d", [(1, 5), (2, 4), (3, 3), (1000, 2)])
    def test_nary_parents_in_level_order(self, b, d):
        # numbered level by level, vertex j > 0 hangs from (j - 1) // b
        t = gen_nary_tree(b, d)
        assert t.parents[0] == -1
        assert np.array_equal(t.parents[1:], (np.arange(1, t.size) - 1) // b)

    def test_path_tree(self):
        t = gen_path_tree(5)
        assert t.size == 6 and t.parents.tolist() == [-1, 0, 1, 2, 3, 4]

    def test_negative_path_length_rejected(self):
        with pytest.raises(ValueError, match="non-negative number of edges, got -1"):
            gen_path_tree(-1)

    def test_random_tree_degree_cap(self):
        t = gen_random_tree(100, 3, 17)
        assert t.size == 100
        assert t.graph_degrees.max() <= 3

    def test_random_tree_deterministic(self):
        t1 = gen_random_tree(50, 4, 3)
        t2 = gen_random_tree(50, 4, 3)
        assert np.array_equal(t1.parents, t2.parents)

    def test_random_tree_min_degree_guard(self):
        with pytest.raises(ValueError):
            gen_random_tree(10, 1, 0)

    def test_parents_are_int32_up_to_2_to_the_31_vertices(self):
        # every generator's parents are int32, whose ids 0..2^31 - 1 hold
        # the parents of a tree of 2^31 vertices and no larger one
        for t in (build_tree([None, 0, 0]), gen_nary_tree(3, 2), gen_path_tree(4),
                  gen_random_tree(9, 3, 1)):
            assert t.parents.dtype == np.int32
        assert _tree_size(2**31) == 2**31
        with pytest.raises(ValueError, match="a tree of 2147483649 vertices has ids past int32"):
            _tree_size(2**31 + 1)
        # every level is counted before the parent array is allocated
        with pytest.raises(ValueError, match="a tree of 4294967295 vertices has ids past int32"):
            gen_nary_tree(2, 31)


class TestHomomorphism:
    @pytest.mark.parametrize("seed", range(5))
    def test_path_tree_reproduces_walk(self, seed):
        g = gen_gnp(40, 0.5, 7)
        steps = 200
        walk = run_walk(g, ListModel(g, seed), 5, steps)
        hom = random_homomorphism(g, gen_path_tree(steps), ListModel(g, seed), 5)
        assert np.array_equal(hom.image, walk.sequence)
        assert image_subgraph(hom).edge_codes().tolist() == \
            walk_subgraph(walk).edge_codes().tolist()

    @pytest.mark.parametrize("parents", [np.array([-1.0, 0.0, 0.5, 1.9]),
                                         np.array([-1, 0, 0, 1], dtype=float)])
    def test_tree_on_float_parents_rejected(self, backend, parents):
        # a RootedTree built by hand on floats, which numpy would truncate
        # to parents [0, 0, 1], is refused before any entry is taken, even
        # where each float is integral
        g = gen_complete(4)
        model = ListModel(g, 3)
        with pytest.raises(ValueError, match="parents must be integers in int64"):
            random_homomorphism(g, RootedTree(parents), model, 0)
        assert model.consumed.sum() == 0

    def test_k2_alternates_by_parity(self):
        g = gen_complete(2)
        t = gen_nary_tree(2, 3)
        hom = random_homomorphism(g, t, ListModel(g, 1), 0)
        depth = t.depths()
        assert np.array_equal(hom.image, depth % 2)

    def test_edge_preserving(self):
        g = gen_gnp(30, 0.4, 9)
        t = gen_random_tree(200, 4, 2)
        hom = random_homomorphism(g, t, ListModel(g, 4), 0)
        assert hom.is_edge_preserving()

    def test_star_occupancy(self):
        # leaf images are i.i.d. uniform over the root's neighborhood
        n, m, trials = 30, 20, 300
        g = gen_complete(n)
        star = build_tree([None] + [0] * m)
        distinct = []
        for t in range(trials):
            hom = random_homomorphism(
                g, star, ListModel(g, derive_seed(5, DOMAIN_TRIALS, t)), 0)
            distinct.append(len(np.unique(hom.image[1:])))
        k = n - 1
        expected = k * (1 - (1 - 1 / k) ** m)
        var = (k * (k - 1) * (1 - 2 / k) ** m + k * (1 - 1 / k) ** m
               - k * k * (1 - 1 / k) ** (2 * m))
        se = math.sqrt(var / trials)
        assert abs(np.mean(distinct) - expected) < 3 * se


class TestVisitCounts:
    def test_path_equals_walk_departures(self):
        g = gen_gnp(40, 0.5, 7)
        walk = run_walk(g, ListModel(g, 3), 5, 150)
        hom = random_homomorphism(g, gen_path_tree(150), ListModel(g, 3), 5)
        assert np.array_equal(tree_visit_counts(hom), walk.visit_counts)

    def test_star_concentrates_on_root(self):
        g = gen_complete(10)
        star = build_tree([None] + [0] * 6)
        hom = random_homomorphism(g, star, ListModel(g, 2), 4)
        counts = tree_visit_counts(hom)
        assert counts[4] == 6 and counts.sum() == 6

    def test_conservation(self):
        g = gen_gnp(30, 0.5, 1)
        t = gen_random_tree(120, 5, 8)
        hom = random_homomorphism(g, t, ListModel(g, 6), 0)
        assert tree_visit_counts(hom).sum() == t.n_edges


class TestEdgeBlocks:
    """``is_edge_preserving`` and ``tree_visit_counts`` gather the parents'
    images 2^16 tree edges at a time, as ``image_subgraph`` does."""

    def test_blocks_give_the_whole_tree_gather(self):
        # the root alone, then trees of two blocks; the 90,301-vertex
        # tree's only bad edge, a self-loop at its last vertex, lies in its
        # last block
        g = gen_complete(400)
        for t in (gen_path_tree(0), gen_path_tree(70_000), gen_nary_tree(300, 2)):
            hom = random_homomorphism(g, t, ListModel(g, 3), 0)
            heads = hom.image[t.parents[1:]]
            assert np.array_equal(tree_visit_counts(hom), np.bincount(heads, minlength=g.n))
            assert tree_visit_counts(hom).dtype == np.int64
            assert hom.is_edge_preserving() is bool(g.has_edges(heads, hom.image[1:]).all())
            assert hom.is_edge_preserving() is True
        bad = TreeHomomorphism(t, g, hom.image.copy())
        bad.image[-1] = bad.image[t.parents[-1]]
        assert t.n_edges - 1 >= 2**16
        assert not g.has_edges(bad.image[t.parents[1:]], bad.image[1:]).all()
        assert bad.is_edge_preserving() is False
        assert np.array_equal(tree_visit_counts(bad), tree_visit_counts(hom))

    def test_edge_check_and_visit_counts_make_no_whole_tree_temporary(self, c_backend):
        # the 1000-ary depth-2 tree's 1,001,000 parent images take 4 MB as
        # int32; the edge check and the visit counts peak at less than half
        # of that (18.1 and 4.3 MiB when each gathered them all at once)
        g = gen_complete(2000)
        t = gen_nary_tree(1000, 2)
        hom = random_homomorphism(g, t, ListModel(g, 5), 0)
        for call in (hom.is_edge_preserving, lambda: tree_visit_counts(hom)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * t.n_edges / 2


class TestImageSubgraph:
    def test_bounded_by_tree_edges(self):
        g = gen_gnp(30, 0.5, 1)
        t = gen_random_tree(80, 4, 9)
        hom = random_homomorphism(g, t, ListModel(g, 6), 0)
        assert len(image_subgraph(hom)) <= t.n_edges

    def test_star_incident_to_root_image(self):
        g = gen_complete(12)
        star = build_tree([None] + [0] * 8)
        hom = random_homomorphism(g, star, ListModel(g, 3), 7)
        for u, v in image_subgraph(hom).edge_array():
            assert 7 in (u, v)

    def test_gathers_parent_images_a_block_at_a_time(self, c_backend):
        # the 1000-ary depth-2 tree's 1,001,000 parent images take 4 MB as
        # int32; its image's graph, K_2000's 0.5 MB of rows marked a block
        # of tree edges at a time, peaks at less than half of that
        g = gen_complete(2000)
        t = gen_nary_tree(1000, 2)
        hom = random_homomorphism(g, t, ListModel(g, 5), 0)
        tracemalloc.start()
        try:
            image = image_subgraph(hom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert image._rows is not None
        assert peak < 4 * t.n_edges / 2

    @pytest.mark.parametrize("host", ["rows", "keys", "complete"])
    def test_path_image_is_the_walks_edges(self, backend, host):
        # the coupling carried to edges: a path tree's image_subgraph is the
        # graph walk_edges gives for the walk on a fresh model, row for row,
        # and the one the image's gathered pairs build, the reference; with
        # 0 steps, below the table rule, at it and past it, on hosts built
        # from rows and from keys and on K_65
        g = {"rows": lambda: gen_gnp(300, 0.3, 4),
             "keys": lambda: Graph(300, gen_gnp(300, 0.3, 4).edge_codes()),
             "complete": lambda: gen_complete(65)}[host]()
        assert host != "keys" or g._rows is None
        rule = -(-g.n * g.n // 64)  # the fewest steps whose pairs go into rows
        for seed, start, steps in ((1, 0, 0), (2, 5, rule - 1), (3, 7, rule), (4, 11, 20_000)):
            hom = random_homomorphism(g, gen_path_tree(steps), ListModel(g, seed), start)
            assert (hom._rows is not None) == (steps >= rule and rng._kernel() is not None)
            got = image_subgraph(hom)
            for want in (walk_edges(g, ListModel(g, seed), start, steps),
                         _pairs_graph(g.n, steps, _edge_blocks(hom))):
                assert np.array_equal(got.bit_rows(), want.bit_rows())
                assert np.array_equal(got.indptr, want.indptr)
                assert np.array_equal(got.edge_codes(), want.edge_codes())

    @pytest.mark.parametrize("host", ["rows", "keys", "complete"])
    def test_sibling_runs_cross_chunks(self, backend, host):
        # the root's 200 children take its first 200 list entries, a run
        # across 7 chunks of 32, and each of its first five children 40 of
        # its own; under the table rule the rows marked as they are taken
        # are those the gathered pairs build
        g = {"rows": lambda: gen_gnp(150, 0.5, 3),
             "keys": lambda: Graph(150, gen_gnp(150, 0.5, 3).edge_codes()),
             "complete": lambda: gen_complete(65)}[host]()
        t = build_tree([None] + [0] * 200 + [c for c in range(1, 6) for _ in range(40)])
        assert g.n * g.n <= 64 * t.n_edges
        hom = random_homomorphism(g, t, ListModel(g, 6), 9)
        assert (hom._rows is not None) == (rng._kernel() is not None)
        fresh, taken = ListModel(g, 6), {}
        assert np.array_equal(hom.image[1:201], fresh.entries(9, 200))
        for c in range(1, 6):  # a child sharing an image reads on from the last
            y = int(hom.image[c])
            k = taken[y] = taken.get(y, 0) + 40
            assert np.array_equal(hom.image[161 + 40 * c:201 + 40 * c], fresh.entries(y, k)[-40:])
        got, want = image_subgraph(hom), _pairs_graph(g.n, t.n_edges, _edge_blocks(hom))
        assert np.array_equal(got.bit_rows(), want.bit_rows())
        assert np.array_equal(got.indptr, want.indptr)

    def test_host_past_2_16_vertices_matches_numpy(self, c_backend, monkeypatch):
        # past 2^16 vertices a chunk holds 16 int32 entries, and a tree's
        # pairs on a sparse host take keys, so the kernel's runs of
        # siblings mark nothing: the 150-entry runs of a 150-ary depth-2
        # tree on the 70,000-cycle, whose vertex 0 is joined to every 500th
        # vertex, give the numpy backend's image, counts and image graph,
        # and reach ids past 2^16
        n = 70_000
        u = np.arange(n - 1, dtype=np.int64)
        keys = np.unique(np.concatenate((u * n + u + 1, [n - 1], np.arange(500, n, 500))))
        g = Graph(n, keys)
        t = gen_nary_tree(150, 2)
        got = []
        for lib in (c_backend, False):
            monkeypatch.setattr(rng, "_lib", lib)
            model = ListModel(g, 12)
            hom = random_homomorphism(g, t, model, 0)
            assert hom._rows is None
            got.append((hom.image, model.consumed, image_subgraph(hom).edge_codes()))
        for a, b in zip(*got, strict=True):
            assert np.array_equal(a, b)
        assert got[0][1][0] == 150 and got[0][0].max() >= 2**16

    def test_rows_are_private_to_a_read_only_image(self, backend):
        # the kept rows are no part of == or repr, and the image they were
        # marked from cannot be written; a homomorphism built by hand from
        # that image gathers the same graph
        g = gen_complete(65)
        t = gen_random_tree(500, 4, 1)
        hom = random_homomorphism(g, t, ListModel(g, 2), 3)
        by_hand = TreeHomomorphism(t, g, hom.image)
        assert by_hand._rows is None and by_hand == hom and repr(by_hand) == repr(hom)
        assert "_rows" not in repr(hom)
        assert not hom.image.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            hom.image[1] = 0
        assert np.array_equal(image_subgraph(by_hand).bit_rows(), image_subgraph(hom).bit_rows())

    def test_depth2_counterexample_shape(self):
        # every image edge touches the root's image or a depth-1 image
        n = 60
        g = gen_complete(n)
        t = gen_nary_tree(n // 2, 2)
        hom = random_homomorphism(g, t, ListModel(g, 11), 0)
        hubs = set(hom.image[1:1 + n // 2].tolist()) | {0}
        for u, v in image_subgraph(hom).edge_array():
            assert u in hubs or v in hubs
        distinct = len(np.unique(hom.image[1:1 + n // 2]))
        expected = (n - 1) * (1 - (1 - 1 / (n - 1)) ** (n // 2))
        assert abs(distinct - expected) < 0.35 * expected


class TestDecomposeTree:
    def test_path_nine_edges(self):
        dec = decompose_tree(gen_path_tree(9), 3)
        assert [len(e) for _, e in dec.pieces] == [3, 3, 3]
        assert [r for r, _ in dec.pieces] == [6, 3, 0]
        check_decomposition(gen_path_tree(9), 3, dec)

    def test_star_nine_leaves(self):
        star = build_tree([None] + [0] * 9)
        dec = decompose_tree(star, 3)
        assert [len(e) for _, e in dec.pieces] == [3, 3, 3]
        assert all(r == 0 for r, _ in dec.pieces)
        check_decomposition(star, 3, dec)

    def test_single_piece_when_l_equals_edges(self):
        t = gen_random_tree(30, 4, 5)
        dec = decompose_tree(t, 29)
        assert len(dec.pieces) == 1
        check_decomposition(t, 29, dec)

    def test_l_too_large_rejected(self):
        with pytest.raises(ValueError):
            decompose_tree(gen_path_tree(5), 6)

    @pytest.mark.parametrize("L", [1, 2, 5, 10, 25])
    def test_adversarial_shapes(self, L):
        shapes = {
            # path ending in a heavy star
            "broom": [None] + list(range(50)) + [50] * 50,
            # spine with one leaf hanging off every vertex
            "caterpillar": [None] + [i for j in range(1, 40)
                                     for i in (2 * j - 2, 2 * j - 2)][:79],
            "binary": gen_nary_tree(2, 6).parents.tolist(),
            "unary_chain": [None] + list(range(99)),
        }
        for name, parents in shapes.items():
            t = build_tree([-1 if p is None else p for p in parents])
            if L > t.n_edges:
                continue
            check_decomposition(t, L, decompose_tree(t, L))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_invariants_on_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 61))
        max_deg = int(rng.integers(2, 7))
        t = gen_random_tree(size, max_deg, seed)
        L = int(rng.integers(1, t.n_edges + 1))
        check_decomposition(t, L, decompose_tree(t, L))


    @given(small_trees())
    @settings(max_examples=40, deadline=None)
    def test_same_pieces_as_reference_at_every_l(self, t):
        for L in range(1, t.n_edges + 1):
            assert decompose_tree(t, L).pieces == reference_pieces(t, L), L

    def test_criterion_9_pieces_pinned(self):
        # sha256 of the pieces the round-by-round cut gave on these cases
        assert pieces_digest(criterion_9_pieces()) == \
            "523e9a6fd0b57101cc671680e3c55b4a4e4be3c015fb580b95f06543bd6ccc87"

    def test_large_tree_pieces_pinned(self):
        # recorded once from the round-by-round cut, which took about 20 s on
        # a 2-core machine
        dec = decompose_tree(gen_random_tree(5000, 4, 3), 1)
        assert len(dec.pieces) == 4999
        assert pieces_digest(dec.pieces) == \
            "a286f2aa7cf2e5584eebd578fb379e33e8690791b0f71e7d376d98a9ac2b7d3d"


class TestTreeIO:
    def test_round_trip(self, tmp_path):
        t = gen_random_tree(40, 4, 12)
        path = str(tmp_path / "t.txt")
        save_tree(t, path)
        assert np.array_equal(load_tree(path).parents, t.parents)

    @pytest.mark.parametrize("body, where, match", [
        ("3\n1 0\n5 1\n", 3, "vertex 5 outside 1..2"),
        ("3\n1 0\n0 1\n", 3, "vertex 0 outside 1..2"),
        ("3\n1 0\n1 0\n", 3, "vertex 1 listed twice"),
        ("3\n1 0\n2 2\n", 3, "parent of vertex 2 is 2"),
        ("3\n1 0\n2 x\n", 3, "expected 'j parent'"),
        ("3\n1 0\n2 --1\n", 3, "expected 'j parent'"),
        ("three\n1 0\n", 1, "vertex count"),
        ("0\n", 1, "vertex count"),
        ("3\n1 0\n", 1, "vertex count 3 needs 2 edge lines, found 1"),
        ("", 1, "missing vertex count"),
    ])
    def test_malformed_file_names_the_line(self, tmp_path, body, where, match):
        path = tmp_path / "t.txt"
        path.write_text(body)
        with pytest.raises(ValueError, match=match) as info:
            load_tree(str(path))
        assert str(info.value).startswith(f"{path}:{where}: ")

    @pytest.mark.parametrize("make", [lambda: build_tree([-1]), lambda: gen_random_tree(40, 4, 12),
                                      lambda: gen_nary_tree(1000, 2)],
                             ids=["size-1", "random", "1000-ary-depth-2"])
    def test_writers_match_a_write_per_line(self, tmp_path, make):
        # one format call writes byte for byte what a write per vertex wrote
        t = make()
        g = gen_complete(50)
        hom = random_homomorphism(g, t, ListModel(g, 3), 0)
        save_tree(t, str(tmp_path / "t.txt"))
        save_homomorphism(hom, str(tmp_path / "h.txt"))
        parents, image = t.parents.tolist(), hom.image.tolist()
        lines = "".join(f"{j} {parents[j]}\n" for j in range(1, t.size))
        assert (tmp_path / "t.txt").read_bytes() == f"{t.size}\n{lines}".encode()
        lines = "".join(f"{j} {x}\n" for j, x in enumerate(image))
        assert (tmp_path / "h.txt").read_bytes() == lines.encode()

    def test_homomorphism_export(self, tmp_path):
        g = gen_complete(8)
        t = gen_path_tree(5)
        hom = random_homomorphism(g, t, ListModel(g, 1), 0)
        path = tmp_path / "hom.txt"
        save_homomorphism(hom, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == t.size
        assert lines[0] == "0 0"
