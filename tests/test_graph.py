"""Graph construction, pairwise edge counting, profiles, and generators."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.graph import (VertexSet, _pairs_graph, balanced_vertices,
                         build_graph, connectivity_profile, density,
                         edges_between, gen_complete, gen_gnp,
                         gen_two_clique_bridge, load_graph, save_graph,
                         small_clique_size)


def brute_edges_between(g, a, b):
    """Independent oracle: enumerate all ordered pairs."""
    return sum(1 for x in a.members for y in b.members if g.has_edge(x, y))


def path_graph(k):
    return build_graph(k, [(i, i + 1) for i in range(k - 1)])


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.edge_count == 3
        assert list(g.degrees) == [2, 2, 2]

    def test_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert list(g.degrees) == [1, 2, 1]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(3, [(0, 3)])

    def test_duplicates_collapse(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    @pytest.mark.parametrize("make", [lambda: gen_gnp(130, 0.3, 2), lambda: gen_complete(65),
                                      lambda: build_graph(3, [(0, 1)])])
    def test_neighbors_of_a_row(self, backend, make):
        # a graph built from rows reads one row per call, with no indices
        # read out, and gives what its indices give once they are
        g = make()
        rows = [g.neighbors(v) for v in range(g.n)]
        assert g._indices is None or g._rows is None
        for v, row in enumerate(rows):
            assert row.dtype == np.int32 and not row.flags.writeable
            assert np.array_equal(row, g.indices[g.indptr[v]:g.indptr[v + 1]])
            assert np.array_equal(g.neighbors(v), row)

    def test_adjacency_symmetric_and_sorted(self):
        g = gen_gnp(40, 0.4, 3)
        for v in range(g.n):
            row = g.neighbors(v)
            assert (np.diff(row) > 0).all()
            for u in row:
                assert g.has_edge(int(u), v)
        assert int(g.degrees.sum()) == 2 * g.edge_count

    @pytest.mark.parametrize("make", [lambda: gen_gnp(10, 0.5, 1),
                                      lambda: build_graph(10, [(0, 9), (3, 4)])],
                             ids=["rows", "keys"])
    @pytest.mark.parametrize("v", [-1, 10, 2**40, 0.5, 1.0, True, np.True_])
    def test_vertex_outside_host_rejected(self, make, v):
        # -1 used to give -2m as a degree and an empty neighbour list, 0.5
        # a TypeError, and True row 1
        g = make()
        message = re.escape(f"vertex must be an integer, got {v!r}" if type(v) is not int
                            else f"vertex {v} is not in the host's 0..9")
        for call in (g.degree, g.neighbors):
            with pytest.raises(ValueError, match=message):
                call(v)


KEYS = settings(max_examples=200, derandomize=True, deadline=None)


@st.composite
def pair_lists(draw, lists=1):
    """(n, pair lists) on n = 0..12 vertices, each list with repeated
    pairs in both orientations."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, [[] for _ in range(lists)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    out = []
    for _ in range(lists):
        pairs = draw(st.lists(pair, max_size=3 * n))
        again = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) \
            if pairs else []
        out.append(pairs + [p[::-1] if i % 2 else p for i, p in enumerate(again)])
    return n, out


def reference_keys(n, pairs):
    return sorted({min(u, v) * n + max(u, v) for u, v in pairs})


def split(pairs):
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    return us, vs


class TestEdgeKeysAgainstReference:
    """CSR arrays, keys, membership and inclusion against Python sets."""

    @KEYS
    @given(pair_lists())
    def test_csr_equals_sorted_neighbour_sets(self, case):
        n, (pairs,) = case
        g = build_graph(n, pairs)
        nbrs = [set() for _ in range(n)]
        for u, v in pairs:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
        assert g.indptr.tolist() == [0] + np.cumsum(
            [len(s) for s in nbrs], dtype=np.int64).tolist()
        for v in range(n):
            assert g.neighbors(v).tolist() == sorted(nbrs[v])

    @KEYS
    @given(pair_lists())
    def test_keys_equal_sorted_key_set(self, case):
        n, (pairs,) = case
        g = build_graph(n, pairs)
        want = reference_keys(n, pairs)
        assert g.edge_codes().tolist() == want
        assert g.edge_count == len(want)
        assert _pairs_graph(n, len(pairs), [split(pairs)]).edge_codes().tolist() == want

    @KEYS
    @given(pair_lists())
    def test_has_edges_agrees_with_has_edge(self, case):
        n, (pairs,) = case
        g = build_graph(n, pairs)
        us, vs = np.divmod(np.arange(n * n, dtype=np.int64), max(n, 1))
        assert g.has_edges(us, vs).tolist() == \
            [g.has_edge(int(u), int(v)) for u, v in zip(us, vs)]
        # has_edge goes through has_edges; the CSR lists are independent
        assert g.has_edges(us, vs).tolist() == \
            [int(v) in g.neighbors(int(u)) for u, v in zip(us, vs)]

    def test_endpoint_outside_host_is_no_edge(self):
        # key 0*4 + 6 packs to 6 = 1*4 + 2, the edge (1, 2); it must not alias
        g = gen_complete(4)
        s = _pairs_graph(4, 1, [([1], [2])])
        assert (1, 2) in s and (2, 1) in s
        outside = [(0, 6), (6, 0), (4, 0), (0, 4), (-1, 2), (2, -1), (-4, 5)]
        for u, v in outside:
            assert (u, v) not in s
            assert not g.has_edge(u, v)
        us, vs = zip(*outside)
        assert g.has_edges(list(us), list(vs)).tolist() == [False] * len(outside)
        assert g.has_edges([0, 0, 1], [6, 1, 2]).tolist() == [False, True, True]

    @pytest.mark.parametrize("make", [lambda: build_graph(100, [(0, 1)]),
                                      lambda: gen_complete(4)], ids=["keys", "rows"])
    def test_non_integral_endpoints_rejected(self, backend, make):
        # one answer from keys and from rows, and so from the graph of a
        # pair on either host's vertices: the keys used to read 0.5 as 0,
        # the rows to raise IndexError
        g = make()
        s = _pairs_graph(g.n, 1, [([0], [1])])
        for call in (lambda: g.has_edge(0.5, 1), lambda: g.has_edges([0], [1.5]),
                     lambda: (0, True) in g, lambda: (0, True) in s, lambda: (1.0, 0) in s):
            with pytest.raises(ValueError, match="edge endpoints must be integers in int64"):
                call()

    @KEYS
    @given(pair_lists(lists=2))
    def test_issubset_is_set_inclusion(self, case):
        n, (a, b) = case
        host = gen_complete(n)
        sa, sb = _pairs_graph(n, len(a), [split(a)]), _pairs_graph(n, len(b), [split(b)])
        keys_a, keys_b = set(reference_keys(n, a)), set(reference_keys(n, b))
        assert sa.issubset(sb) == (keys_a <= keys_b)
        assert sb.issubset(sa) == (keys_b <= keys_a)
        assert sa.issubset(host) and len(sa) == len(keys_a)

    def test_issubset_refuses_another_vertex_count(self):
        # keys u*n+v of different n alias: (1, 2) on 10 vertices packs to
        # 12, the key of (0, 12) on 20, which is no inclusion
        a, b = _pairs_graph(10, 1, [([1], [2])]), _pairs_graph(20, 1, [([0], [12])])
        assert (1, 2) not in b
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="on 10 and 20 vertices|on 20 and 10 vertices"):
                x.issubset(y)


class TestEdgesBetween:
    def test_k3_split(self):
        g = gen_complete(3)
        a = VertexSet.from_iterable(3, [0])
        b = VertexSet.from_iterable(3, [1, 2])
        assert edges_between(g, a, b) == 2

    def test_k3_full_overlap(self):
        g = gen_complete(3)
        v = VertexSet.full(3)
        assert edges_between(g, v, v) == 6 == brute_edges_between(g, v, v)

    def test_path_overlap(self):
        g = path_graph(3)
        a = VertexSet.from_iterable(3, [0, 1])
        b = VertexSet.from_iterable(3, [1, 2])
        assert edges_between(g, a, b) == 2 == brute_edges_between(g, a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_properties_on_random_instances(self, seed):
        g = gen_gnp(12, 0.45, seed)
        rng = np.random.default_rng(seed)
        a = VertexSet.from_mask(12, rng.random(12) < 0.5)
        b = VertexSet.from_mask(12, rng.random(12) < 0.5)
        e_ab = edges_between(g, a, b)
        assert e_ab == edges_between(g, b, a)
        assert e_ab == brute_edges_between(g, a, b)
        full = VertexSet.full(12)
        assert edges_between(g, a, full) == sum(g.degree(v) for v in a.members)
        disj = VertexSet(12, full.members - a.members)
        undirected = sum(1 for u, v in g.edge_array()
                         if (u in a.members) != (v in a.members))
        assert edges_between(g, a, disj) == undirected


class TestDensity:
    def test_complete(self):
        assert density(gen_complete(4)) == 1.0

    def test_cycle5(self):
        c5 = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert density(c5) == 5 / 10

    def test_empty(self):
        assert density(build_graph(10, [])) == 0.0

    def test_too_small(self):
        with pytest.raises(ValueError):
            density(build_graph(1, []))


class TestBalancedVertices:
    def test_complete_all_balanced(self):
        n = 8
        profile = balanced_vertices(gen_complete(n), 1 / n)
        assert profile.balanced.size == n  # |d - rho*n| = 1 <= eps*n

    def test_two_clique_small_side_unbalanced(self):
        g = gen_two_clique_bridge(600, 0.3)
        s = math.ceil(0.09 * 600 / 2)
        profile = balanced_vertices(g, 0.3)
        rho_n = profile.rho * 600
        for v in range(s):
            assert v not in profile.balanced
            assert abs(g.degree(v) - rho_n) > 0.3 * 600

    def test_star_profile(self):
        star = build_graph(10, [(0, i) for i in range(1, 10)])
        profile = balanced_vertices(star, 0.1)
        # rho = 9/45 so rho*n = 2: center deviates by 7, leaves by 1
        assert 0 not in profile.balanced
        assert all(v in profile.balanced for v in range(1, 10))

    def test_recompute_reproduces_fields(self):
        g = gen_gnp(60, 0.5, 9)
        p1 = balanced_vertices(g, 0.2)
        p2 = balanced_vertices(g, 0.2)
        assert p1.rho == p2.rho
        assert p1.balanced.members == p2.balanced.members

    def test_unbalanced_complement_small_on_quasirandom_hosts(self):
        # degree outliers past eps*n are rare on dense random hosts
        for seed in range(3):
            g = gen_gnp(400, 0.5, seed)
            profile = balanced_vertices(g, 0.1)
            unbalanced = 400 - profile.balanced.size
            assert unbalanced < 2 * 0.1 * 400


def assert_rows_match_pairs(g, pairs):
    """``g`` keeps bit rows and no keys, and has the rows, row starts,
    neighbours and keys of the graph ``build_graph`` makes from ``pairs``."""
    want = build_graph(g.n, pairs)
    assert g._rows is not None and g._edge_codes is None
    assert np.array_equal(g.bit_rows(), want.bit_rows())
    assert np.array_equal(g.indptr, want.indptr) and np.array_equal(g.indices, want.indices)
    assert np.array_equal(g.edge_codes(), want.edge_codes())


class TestGenerators:
    def test_gnp_extremes(self):
        assert gen_gnp(10, 0.0, 5).edge_count == 0
        assert gen_gnp(10, 1.0, 5).edge_count == 45

    def test_negative_vertex_count_rejected(self):
        for make in (gen_complete, lambda n: gen_gnp(n, 0.5, 1)):
            with pytest.raises(ValueError, match="vertex count must be non-negative"):
                make(-1)

    def test_gnp_reproducible(self):
        g1, g2 = gen_gnp(60, 0.3, 11), gen_gnp(60, 0.3, 11)
        assert np.array_equal(g1.indices, g2.indices)
        g3 = gen_gnp(60, 0.3, 12)
        assert not np.array_equal(g1.indices, g3.indices)

    def test_gnp_edge_count_moments(self):
        n, p = 2000, 0.5
        pairs = n * (n - 1) / 2
        sd = math.sqrt(pairs * p * (1 - p))
        m = gen_gnp(n, p, 77).edge_count
        assert abs(m - p * pairs) < 4 * sd

    def test_two_clique_closed_form(self):
        g = gen_two_clique_bridge(600, 0.3)
        s = 27
        assert g.edge_count == s * (s - 1) // 2 + (600 - s) * (599 - s) // 2 + 1
        assert g.edge_count == 351 + 163878 + 1
        assert g.has_edge(0, s)
        connected, _ = connectivity_profile(g)
        assert connected

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 129, 130])
    def test_complete_rows_match_pair_reference(self, backend, n):
        # K_n's rows, one packed row broadcast with its diagonal cleared,
        # are those that build_graph marks from every pair, for rows of one
        # word or several that end inside a word or on its boundary
        assert_rows_match_pairs(gen_complete(n), np.column_stack(np.triu_indices(n, 1)))

    # the small clique of s vertices ends inside a word, on a word's end
    # (s = 64) and past it, and the host ends inside a word or on its end
    @pytest.mark.parametrize("n,eps,s", [
        (40, 0.3, 2), (130, 0.5, 17), (126, 1.0, 63), (200, 0.8, 64), (128, 1.0, 64),
        (200, 0.81, 66), (192, 0.83, 67),
    ])
    def test_two_clique_rows_match_pair_reference(self, backend, n, eps, s):
        assert small_clique_size(n, eps) == s
        small, large = np.triu_indices(s, 1), np.triu_indices(n - s, 1)
        pairs = np.concatenate([np.column_stack(small), np.column_stack(large) + s, [[0, s]]])
        g = gen_two_clique_bridge(n, eps)
        assert_rows_match_pairs(g, pairs)
        assert g.edge_count == s * (s - 1) // 2 + (n - s) * (n - s - 1) // 2 + 1

    def test_two_clique_makes_no_pairs(self, backend):
        # the 1,827,101 pairs of n = 2000 took 83.6 MiB; its rows take 0.5 MiB
        tracemalloc.start()
        try:
            gen_two_clique_bridge(2000, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_two_clique_small_size_ceiling(self):
        g = gen_two_clique_bridge(100, 0.2)
        # ceil(0.04 * 100 / 2) = 2
        assert g.degree(0) == 2  # one clique partner plus the bridge
        assert g.degree(1) == 1

    def test_two_clique_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_two_clique_bridge(20, 0.1)


class TestConnectivityProfile:
    def test_cases(self):
        assert connectivity_profile(gen_complete(5)) == (True, False)
        k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
        assert connectivity_profile(k33) == (True, True)
        two = build_graph(6, [(0, 1), (2, 3), (3, 4), (2, 4)])
        connected, bipartite = connectivity_profile(two)
        assert not connected and not bipartite
        assert connectivity_profile(path_graph(4)) == (True, True)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        g = gen_gnp(30, 0.4, 2)
        path = str(tmp_path / "g.txt")
        save_graph(g, path)
        h = load_graph(path)
        assert h.n == g.n and np.array_equal(h.indices, g.indices)

    @pytest.mark.parametrize("make", [
        lambda: gen_gnp(30, 0.4, 2), lambda: gen_complete(70), lambda: build_graph(5, []),
        lambda: build_graph(0, []), lambda: build_graph(50_000, [(0, 49_999), (123, 45_678)]),
    ], ids=["gnp", "complete", "no-edges", "no-vertices", "large-ids"])
    def test_save_writes_one_line_per_edge(self, tmp_path, make):
        # byte for byte the header and one "u v" line written per edge,
        # from the graph's keys or its rows (K_70 always), with no indices
        # read out
        g = make()
        path = tmp_path / "g.txt"
        save_graph(g, str(path))
        assert g._indices is None
        want = f"{g.n} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in g.edge_array())
        assert path.read_bytes() == want.encode()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n")
        with pytest.raises(ValueError, match=":1:"):
            load_graph(str(path))

    def test_negative_header_names_line_one(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("-1 0\n")
        with pytest.raises(ValueError, match=":1:"):
            load_graph(str(path))

    def test_non_ascii_digit_names_the_line(self, tmp_path):
        # '²'.isdigit() holds but int('²') fails
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 \u00b2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            load_graph(str(path))

    def test_bad_edge_line_numbered(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n2 1\n")
        with pytest.raises(ValueError, match=":3:"):
            load_graph(str(path))

    def test_unordered_endpoints_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n1 1\n")
        with pytest.raises(ValueError, match="u < v"):
            load_graph(str(path))


class TestVertexSet:
    def test_membership_and_size(self):
        s = VertexSet.from_iterable(5, [0, 2, 4])
        assert s.size == 3 and 2 in s and 1 not in s
        assert s.complement().members == {1, 3}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSet.from_iterable(3, [3])

    @pytest.mark.parametrize("mask", [np.zeros(0, dtype=bool), np.zeros(7, dtype=bool),
                                      np.ones(130, dtype=bool),
                                      np.random.default_rng(3).random(300) < 0.4])
    def test_from_mask_members_are_the_nonzero_positions(self, mask):
        s = VertexSet.from_mask(len(mask), mask)
        assert s.members == frozenset(int(v) for v in np.nonzero(mask)[0])
        assert all(type(v) is int for v in s.members)
        assert np.array_equal(s.bool_mask(), mask)
