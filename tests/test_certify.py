"""Discrepancy, 4-cycle counting, and spectral certification, each checked
against an independent brute-force or dense-eigensolver oracle."""

import importlib
import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import rng
from qwalk.certify import (certify, count_c4_labelled, discrepancy_exhaustive,
                           discrepancy_refined, discrepancy_sampled,
                           lambda_bound_from_trace, lambda_estimate, trace_p4)
from qwalk.graph import (Graph, VertexSet, build_graph, density, edges_between,
                         gen_complete, gen_gnp, gen_two_clique_bridge)
from qwalk.rng import DOMAIN_SUBSETS, DOMAIN_TRIALS, derive_seed, stream
from qwalk.trees import gen_nary_tree, image_subgraph, random_homomorphism
from qwalk.walks import ListModel

# the package re-exports the function ``certify`` under the module's name
certify_module = importlib.import_module("qwalk.certify")


def cycle_graph(k):
    return build_graph(k, [(i, (i + 1) % k) for i in range(k)])


def brute_discrepancy(g, eps):
    """Oracle: loop over every qualifying subset pair with its own counting."""
    n = g.n
    adj = [set(g.neighbors(v).tolist()) for v in range(n)]
    rho = density(g)
    lo = -(-eps * n // 1)  # ceil
    best = 0.0
    subsets = [s for r in range(n + 1) for s in itertools.combinations(range(n), r)
               if r >= lo]
    for a in subsets:
        for b in subsets:
            e = sum(1 for x in a for y in b if y in adj[x])
            dev = abs(e - rho * len(a) * len(b)) / (len(a) * len(b))
            best = max(best, dev)
    return best


def dense_exhaustive(g, eps):
    """Oracle: every qualifying pair at once, e = member @ adj @ member.T,
    and the first argmax, which is the first attaining pair in ascending
    bitmask order.  Returns the value and the witness as sorted lists."""
    n = g.n
    masks = np.arange(1 << n)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    member = member[member.sum(axis=1) >= math.ceil(eps * n)]
    sizes = member.sum(axis=1)
    e = member @ g.adjacency_dense() @ member.T
    dev = (np.abs(e - density(g) * sizes[:, None] * sizes[None, :])
           / (sizes[:, None] * sizes[None, :]))
    ia, ib = np.unravel_index(int(dev.argmax()), dev.shape)
    return (float(dev[ia, ib]), np.flatnonzero(member[ia]).tolist(),
            np.flatnonzero(member[ib]).tolist())


@st.composite
def exhaustive_cases(draw):
    """(host, eps) with n <= 10: G(n, p), K_n, or G(n, p) with some vertices
    isolated; eps at eps*n = 1, at 1, at k/n and between sizes."""
    n = draw(st.integers(2, 10))
    kind = draw(st.sampled_from(["gnp", "complete", "isolated"]))
    if kind == "complete":
        g = gen_complete(n)
    else:
        g = gen_gnp(n, draw(st.floats(0, 1)), draw(st.integers(0, 2**32 - 1)))
        if kind == "isolated":
            alone = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            pairs = g.edge_array()
            g = build_graph(n, pairs[~alone[pairs].any(axis=1)])
    k = draw(st.integers(1, n))
    eps = draw(st.sampled_from([1 / n, 1.0, k / n, (max(k, 2) - 0.5) / n]))
    return g, eps


def brute_c4(g):
    """Oracle: enumerate ordered 4-tuples of distinct vertices."""
    count = 0
    for a, b, c, d in itertools.permutations(range(g.n), 4):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d) \
                and g.has_edge(d, a):
            count += 1
    return count


def walk_matrix_eigs(g):
    """Oracle: dense eigenvalues of the symmetrized transition matrix."""
    a = g.adjacency_dense()
    s = 1.0 / np.sqrt(a.sum(1))
    return np.linalg.eigvalsh(a * s[:, None] * s[None, :])


class TestDiscrepancyExhaustive:
    def test_k4_witness(self):
        g = gen_complete(4)
        dev, (wa, wb) = discrepancy_exhaustive(g, 0.5)
        assert dev == 0.5
        assert wa.members == wb.members == {0, 1}

    def test_empty_graph(self):
        g = build_graph(6, [])
        dev, _ = discrepancy_exhaustive(g, 0.2)
        assert dev == 0.0

    def test_c5_matches_brute_force(self):
        g = cycle_graph(5)
        dev, _ = discrepancy_exhaustive(g, 0.2)
        assert dev == pytest.approx(brute_discrepancy(g, 0.2), abs=1e-12)

    def test_witness_reproduces_deviation(self):
        for seed in range(5):
            g = gen_gnp(9, 0.5, seed)
            dev, (wa, wb) = discrepancy_exhaustive(g, 0.3)
            e = edges_between(g, wa, wb)
            rho = density(g)
            again = abs(e - rho * wa.size * wb.size) / (wa.size * wb.size)
            assert again == dev

    def test_witness_is_first_pair_across_blocks(self):
        # n = 13 has more qualifying masks than one block of rows; a later
        # block's tie with a smaller pair used to lose to the earlier block
        dev, (wa, wb) = discrepancy_exhaustive(gen_gnp(13, 0.4, 102), 0.3)
        assert dev == pytest.approx(5 / 12, abs=1e-12)
        assert (sum(1 << v for v in wa.members), sum(1 << v for v in wb.members)) == (57, 4866)

    @given(exhaustive_cases())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_matches_dense_4n_oracle(self, case):
        g, eps = case
        dev, (wa, wb) = discrepancy_exhaustive(g, eps)
        assert (dev, sorted(wa.members), sorted(wb.members)) == \
            dense_exhaustive(g, eps)

    def test_pinned_case_at_the_cap(self):
        # recorded with the former 4^n pair enumeration (81-86 s on 2 cores)
        dev, (wa, wb) = discrepancy_exhaustive(gen_gnp(16, 0.5, 7), 0.25)
        assert dev == pytest.approx(0.4875, abs=1e-12)
        assert wa.members == {0, 5, 8, 10} and wb.members == {1, 6, 13, 14}

    def test_large_n_refused(self):
        with pytest.raises(ValueError, match="sampled"):
            discrepancy_exhaustive(gen_gnp(17, 0.5, 0), 0.2)

    def test_eps_floor(self):
        with pytest.raises(ValueError):
            discrepancy_exhaustive(gen_complete(4), 0.1)


@pytest.mark.parametrize("eps", [0.1, 1.0001, 1.5, float("nan")])
@pytest.mark.parametrize("estimator", ["exhaustive", "sampled", "refined"])
def test_eps_outside_one_to_n_refused(estimator, eps):
    # eps*n must lie in [1, n]: 0.1 * 4 < 1, 1.5 * 4 > 4, and NaN compares false
    g = gen_complete(4)
    call = {"exhaustive": lambda: discrepancy_exhaustive(g, eps),
            "sampled": lambda: discrepancy_sampled(g, eps, 10, 0),
            "refined": lambda: discrepancy_refined(
                g, eps, (VertexSet.full(4), VertexSet.full(4)))}[estimator]
    with pytest.raises(ValueError, match=r"^eps\*n must lie in \[1, n\], "
                       rf"got eps={eps} and n=4$"):
        call()


def test_eps_one_leaves_the_whole_vertex_set():
    g = gen_gnp(8, 0.5, 3)
    full = VertexSet.full(8)
    # e(V, V) = 2m counts no loops, while rho * 8^2 = 2m + 8 rho
    for dev, pair in (discrepancy_exhaustive(g, 1.0),
                      discrepancy_sampled(g, 1.0, 5, 0),
                      discrepancy_refined(g, 1.0, (full, full))):
        assert pair == (full, full)
        assert dev == pytest.approx(density(g) / 8, abs=1e-12)
    assert certify(g, 1.0, exhaustive=True).pairs_checked == 1


def reference_sampled(g, eps, trials, seed):
    """Oracle for the dense sampler: float64 counts, and each cut read off
    a full sort of its row.  Returns the value and the witness masks."""
    n = g.n
    rho = density(g)
    gen = stream(seed, DOMAIN_SUBSETS, 0)
    sizes = gen.integers(math.ceil(eps * n), n + 1, size=(trials, 2))
    adj = g.adjacency_dense()
    best, best_masks = -1.0, None
    for t0 in range(0, trials, 256):
        t1 = min(t0 + 256, trials)
        block = t1 - t0
        u = gen.random((2 * block, n))
        cut = np.sort(u, axis=1)[np.arange(2 * block),
                                 sizes[t0:t1].T.reshape(-1) - 1]
        picks = u <= cut[:, None]
        amask, bmask = picks[:block], picks[block:]
        e = ((amask.astype(np.float64) @ adj) * bmask).sum(axis=1)
        dev = certify_module._deviation(e, rho, sizes[t0:t1, 0], sizes[t0:t1, 1])
        if float(dev.max()) > best:
            i = int(dev.argmax())
            best, best_masks = float(dev[i]), (amask[i].copy(), bmask[i].copy())
    return best, best_masks


def assert_matches_reference(g, eps, trials, seed):
    """The sampler against the oracle on the kernel and on numpy, each on
    its own copy of ``g``, so that each packs its own bit rows."""
    ref, (ra, rb) = reference_sampled(g, eps, trials, seed)
    for lib in (rng._load(), False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng, "_lib", lib)
            dev, (wa, wb) = discrepancy_sampled(Graph(g.n, g.edge_codes()), eps,
                                                trials, seed)
        assert dev == ref
        assert np.array_equal(wa.bool_mask(), ra)
        assert np.array_equal(wb.bool_mask(), rb)


@st.composite
def sampler_hosts(draw):
    """Hosts on 5..80 vertices: G(n, p) with some vertices isolated, K_n,
    and K_n less a few edges, whose counts run largest."""
    n = draw(st.integers(5, 80))
    kind = draw(st.sampled_from(["isolated", "complete", "near_complete"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    us, vs = np.triu_indices(n, 1)
    if kind == "complete":
        keep = np.ones(len(us), dtype=bool)
    elif kind == "near_complete":
        keep = rng.random(len(us)) >= 0.03
    else:
        alone = rng.random(n) < 0.2
        keep = (rng.random(len(us)) < draw(st.floats(0.05, 0.95))) \
            & ~alone[us] & ~alone[vs]
    return build_graph(n, np.stack([us[keep], vs[keep]], axis=1))


class TestSampledMatchesReference:
    # 1, 256, 257 and 600 trials cross the 256-trial block edge
    @given(sampler_hosts(), st.sampled_from([0.2, 0.3, 0.5]),
           st.sampled_from([1, 256, 257, 600]), st.integers(0, 10_000))
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_small_hosts(self, g, eps, trials, seed):
        assert_matches_reference(g, eps, trials, seed)

    def test_tree_image(self):
        # criterion 11's trial-0 image of the 1000-ary depth-2 tree in K_2000
        g = gen_complete(2000)
        model = ListModel(g, derive_seed(20240601, DOMAIN_TRIALS, 0))
        hom = random_homomorphism(g, gen_nary_tree(1000, 2), model, 0)
        assert_matches_reference(image_subgraph(hom), 0.1, 300, 7)

    def test_counts_above_2048(self):
        # 100 hubs joined to all 2200 vertices: at eps = 0.95 a hub's count
        # is |A| or |A| - 1, over 2048, where float16 keeps only even
        # integers, so a float16 count is off on nearly every trial
        n, hubs = 2200, 100
        h, v = np.repeat(np.arange(hubs), n), np.tile(np.arange(n), hubs)
        pairs = np.stack([h, v], axis=1)[h < v]
        assert_matches_reference(build_graph(n, pairs), 0.95, 20, 3)

    def test_csr_path(self):
        # n = 4200: bit rows of 66 words, the last one partly filled
        n = 4200
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, n, size=(30_000, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        assert_matches_reference(build_graph(n, pairs), 0.1, 40, 5)


def sampled_counts(g, eps, trials, seed):
    """The per-trial e(A, B) that ``discrepancy_sampled`` hands its one
    deviation, on the kernel and on numpy, each on its own copy of ``g``."""
    deviation = certify_module._deviation
    counts = []
    for lib in (rng._load(), False):
        seen = []

        def recorded(e, *rest):
            seen.append(e.copy())
            return deviation(e, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng, "_lib", lib)
            patch.setattr(certify_module, "_deviation", recorded)
            discrepancy_sampled(Graph(g.n, g.edge_codes()), eps, trials, seed)
        [e] = seen
        counts.append(e)
    return counts


class TestSampledCountsMatch:
    """The two paths part only in how they count: every trial's e(A, B),
    not just the largest deviation and its witness, is the same on both."""

    @given(sampler_hosts(), st.sampled_from([0.2, 0.3, 0.5]),
           st.sampled_from([1, 256, 257, 600]), st.integers(0, 10_000))
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_small_hosts(self, g, eps, trials, seed):
        kernel, reference = sampled_counts(g, eps, trials, seed)
        assert kernel.dtype == reference.dtype == np.int64
        assert len(kernel) == trials and np.array_equal(kernel, reference)

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("eps", [0.2, 0.9])
    def test_word_edges(self, n, eps):
        for g in (gen_gnp(n, 0.5, n), gen_gnp(n, 0.05, n + 1)):
            kernel, reference = sampled_counts(g, eps, 300, n)
            assert np.array_equal(kernel, reference)


class TestSampledKernelEdges:
    """Where the kernel's one call and the reference's block loop could
    part: seeds it must leave to numpy, block edges, 64-bit word edges
    with complemented row sets, and sets that are all of V."""

    @pytest.mark.parametrize("seed", [2**64 - 1, 2**64, 2**64 + 3, 2**70])
    def test_seed_from_2_64_steps_aside(self, kernel_calls, seed):
        g = gen_gnp(40, 0.5, 1)
        ref, (ra, rb) = reference_sampled(g, 0.3, 30, seed)
        dev, (wa, wb) = discrepancy_sampled(g, 0.3, 30, seed)
        assert dev == ref
        assert np.array_equal(wa.bool_mask(), ra) and np.array_equal(wb.bool_mask(), rb)
        assert kernel_calls["qw_sampled_counts"] == (seed < 2**64)
        assert_matches_reference(g, 0.3, 30, seed)

    @pytest.mark.parametrize("trials", [1, 256, 257, 2000])
    def test_one_thread_a_block_at_most(self, kernel_calls, trials):
        # one thread up to 256 trials, and no more threads than the
        # 256-trial blocks or the CPUs this process may use above that
        discrepancy_sampled(gen_gnp(40, 0.5, 1), 0.3, trials, 5)
        threads = kernel_calls.args["qw_sampled_counts"][10]
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert threads == (1 if trials <= 256 else min(cpus or 1, -(-trials // 256)))

    def test_two_block_edges(self):
        # 513 trials: blocks of 256, 256 and 1
        assert_matches_reference(gen_gnp(50, 0.5, 2), 0.2, 513, 11)

    @pytest.mark.parametrize("n", [63, 64, 65, 129])
    @pytest.mark.parametrize("eps", [0.2, 0.9])
    def test_word_edges(self, n, eps):
        # at eps = 0.9 every set is larger than its complement, so each
        # e(A, B) is counted over V - A or V - B and needs vol(B) or vol(A)
        for g in (gen_gnp(n, 0.5, n), gen_gnp(n, 0.05, n + 1)):
            assert_matches_reference(g, eps, 300, n)

    @pytest.mark.parametrize("n", [5, 64, 65])
    def test_every_set_is_v(self, n):
        # ceil(eps*n) = n: every trial counts e(V, V) = 2m, over no rows
        g = gen_gnp(n, 0.3, 9)
        assert_matches_reference(g, 1.0, 20, 4)
        full = VertexSet.full(n)
        assert discrepancy_sampled(g, 1.0, 20, 4)[1] == (full, full)


class TestDiscrepancySampled:
    def test_exhausted_budget_equals_exhaustive(self):
        # enough trials to visit every qualifying pair with certainty ~1
        for seed in range(4):
            g = gen_gnp(6, 0.5, 40 + seed)
            exact, _ = discrepancy_exhaustive(g, 0.5)
            approx, _ = discrepancy_sampled(g, 0.5, 40_000, seed)
            assert approx == exact

    def test_empty_graph(self):
        dev, _ = discrepancy_sampled(build_graph(8, []), 0.25, 50, 1)
        assert dev == 0.0

    def test_lower_bound_property(self):
        for seed in range(8):
            g = gen_gnp(9, 0.4, seed)
            exact, _ = discrepancy_exhaustive(g, 0.4)
            approx, _ = discrepancy_sampled(g, 0.4, 300, seed)
            assert approx <= exact

    def test_lower_bound_property_n12(self):
        g = gen_gnp(12, 0.5, 2)
        exact, _ = discrepancy_exhaustive(g, 0.25)
        for trials, seed in [(50, 0), (500, 1), (2000, 2)]:
            approx, _ = discrepancy_sampled(g, 0.25, trials, seed)
            assert approx <= exact

    def test_deterministic(self):
        g = gen_gnp(30, 0.5, 3)
        d1, _ = discrepancy_sampled(g, 0.1, 200, 9)
        d2, _ = discrepancy_sampled(g, 0.1, 200, 9)
        assert d1 == d2

    def test_witness_reproduces_deviation(self):
        g = gen_gnp(30, 0.5, 3)
        dev, (wa, wb) = discrepancy_sampled(g, 0.1, 200, 9)
        e = edges_between(g, wa, wb)
        again = abs(e - density(g) * wa.size * wb.size) / (wa.size * wb.size)
        assert again == dev

    def test_gnp_is_quasirandom_at_scale(self):
        g = gen_gnp(400, 0.5, 5)
        dev, _ = discrepancy_sampled(g, 0.05, 400, 7)
        assert dev < 0.05


def recount(g, pair):
    """Deviation of a witness pair from its own exact edge count."""
    wa, wb = pair
    e = edges_between(g, wa, wb)
    return abs(e - density(g) * wa.size * wb.size) / (wa.size * wb.size)


class TestDiscrepancyRefined:
    def test_between_sampled_and_exhaustive(self):
        # 30 graphs in criterion 6's style: the refined value starts from the
        # sampled witness, so it can only rise, and it is a lower bound
        raised = 0
        for s in range(30):
            n = 5 + s % 8
            eps = (0.2, 0.3, 0.5)[s % 3]
            g = gen_gnp(n, 0.3 + 0.1 * (s % 5), 100 + s)
            exact, _ = discrepancy_exhaustive(g, eps)
            sampled, start = discrepancy_sampled(g, eps, 5, s)
            refined, pair = discrepancy_refined(g, eps, start)
            assert sampled <= refined <= exact
            assert all(w.size >= math.ceil(eps * n) for w in pair)
            assert recount(g, pair) == refined
            assert discrepancy_refined(g, eps, start) == (refined, pair)
            raised += refined > sampled
        assert raised > 0

    def test_isolated_vertices(self):
        # isolated vertices at the front, middle and end of the id range
        g = build_graph(12, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 6),
                             (6, 7), (7, 8), (8, 9), (2, 9), (6, 9)])
        assert not g.degrees[[0, 5, 10, 11]].any()
        exact, _ = discrepancy_exhaustive(g, 0.25)
        sampled, start = discrepancy_sampled(g, 0.25, 5, 3)
        refined, pair = discrepancy_refined(g, 0.25, start)
        assert sampled <= refined <= exact
        assert recount(g, pair) == refined

    def test_empty_graph(self):
        g = build_graph(8, [])
        _, start = discrepancy_sampled(g, 0.25, 5, 1)
        dev, pair = discrepancy_refined(g, 0.25, start)
        assert dev == 0.0 and pair == start

    def test_start_below_size_floor_rejected(self):
        g = gen_gnp(10, 0.5, 1)
        small = VertexSet.from_iterable(10, [0])
        with pytest.raises(ValueError):
            discrepancy_refined(g, 0.3, (small, VertexSet.full(10)))


class TestCountC4:
    def test_k4(self):
        assert count_c4_labelled(gen_complete(4)) == 24

    def test_four_cycle(self):
        assert count_c4_labelled(cycle_graph(4)) == 8

    def test_forest(self):
        tree = build_graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        assert count_c4_labelled(tree) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_tuple_enumeration(self, seed):
        g = gen_gnp(8, 0.5, seed)
        assert count_c4_labelled(g) == brute_c4(g)


class TestTraceP4:
    def test_k3(self):
        # eigenvalues of the K_3 walk matrix are 1, -1/2, -1/2
        assert trace_p4(gen_complete(3)) == pytest.approx(1.125, abs=1e-12)

    def test_c8(self):
        # six closed 4-walks per vertex, each of weight 1/16
        assert trace_p4(cycle_graph(8)) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_eigensolver(self, seed):
        g = gen_gnp(10, 0.6, seed)
        if g.degrees.min() == 0:
            pytest.skip("isolated vertex")
        assert trace_p4(g) == pytest.approx(
            float((walk_matrix_eigs(g) ** 4).sum()), abs=1e-9)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError):
            trace_p4(build_graph(3, [(0, 1)]))


class TestLambdaBound:
    def test_k3(self):
        bound = lambda_bound_from_trace(gen_complete(3))
        assert bound == pytest.approx(0.125 ** 0.25, abs=1e-12)
        assert bound >= 0.5  # true lambda

    def test_bipartite_pinned_to_one(self):
        k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
        assert lambda_bound_from_trace(k33) == 1.0

    def test_disconnected_pinned_to_one(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert lambda_bound_from_trace(g) == 1.0

    def test_dominates_true_lambda(self):
        for seed in range(5):
            g = gen_gnp(10, 0.7, seed)
            if g.degrees.min() == 0:
                continue
            eigs = walk_matrix_eigs(g)
            true_lambda = max(abs(eigs[0]), abs(eigs[-2]))
            assert lambda_bound_from_trace(g) >= true_lambda - 1e-12


class TestLambdaEstimate:
    def test_c5_circulant(self):
        est = lambda_estimate(cycle_graph(5))
        assert est == pytest.approx(abs(np.cos(4 * np.pi / 5)), abs=1e-8)

    def test_c7_circulant(self):
        est = lambda_estimate(cycle_graph(7))
        assert est == pytest.approx(np.cos(np.pi / 7), abs=1e-8)

    def test_k4(self):
        assert lambda_estimate(gen_complete(4)) == pytest.approx(1 / 3, abs=1e-10)

    def test_matches_eigensolver_on_random_instances(self):
        hits = 0
        for seed in range(30):
            g = gen_gnp(9, 0.6, seed)
            from qwalk.graph import connectivity_profile
            connected, bipartite = connectivity_profile(g)
            if not connected or bipartite:
                continue
            eigs = walk_matrix_eigs(g)
            true_lambda = max(abs(eigs[0]), abs(eigs[-2]))
            est = lambda_estimate(g)
            assert est == pytest.approx(true_lambda, abs=1e-8)
            hits += 1
        assert hits >= 10

    def test_bound_dominates_estimate(self):
        for seed in range(5):
            g = gen_gnp(12, 0.6, seed)
            from qwalk.graph import connectivity_profile
            connected, bipartite = connectivity_profile(g)
            if not connected or bipartite:
                continue
            tol = 1e-9
            assert lambda_bound_from_trace(g) >= lambda_estimate(g) - tol

    def test_positive_end_of_spectrum(self):
        # two cliques joined by one edge: lambda_2 is near 1 and dominates
        g = gen_two_clique_bridge(20, 0.5)
        eigs = walk_matrix_eigs(g)
        assert eigs[-2] > abs(eigs[0])
        second = np.sort(np.abs(eigs))[-2]
        assert lambda_estimate(g) == pytest.approx(second, abs=1e-12)

    def test_bipartite_rejected(self):
        with pytest.raises(ValueError):
            lambda_estimate(cycle_graph(6))


class TestCertify:
    def test_report_fields_and_flags(self):
        g = gen_gnp(60, 0.5, 4)
        report = certify(g, 0.1, trials=100, seed=2)
        assert report.method == "sampled" and report.pairs_checked == 100
        assert report.connected and not report.bipartite
        assert 0 <= report.lambda_bound <= 1
        assert report.rho == density(g)
        assert report.quasirandom == (report.discrepancy < 0.1)

    def test_exhaustive_mode(self):
        report = certify(gen_complete(6), 0.5, exhaustive=True)
        assert report.method == "exhaustive"
        assert report.pairs_checked == (20 + 15 + 6 + 1) ** 2  # |A|, |B| >= 3
        assert report.discrepancy > 0

    def test_bipartite_flagged(self):
        k33 = build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
        report = certify(k33, 0.4, trials=50, seed=1)
        assert report.bipartite and report.lambda_bound == 1.0
        assert report.lambda_estimate is None

    def test_json_round_trip(self):
        import json
        report = certify(gen_gnp(30, 0.5, 8), 0.2, trials=50, seed=3)
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "rho", "eps_target", "discrepancy", "method", "pairs_checked",
            "c4_labelled", "trace_p4", "lambda_bound", "lambda_estimate",
            "connected", "bipartite"}

    def test_lambda_estimate_exact_on_slow_mixing_cycle(self):
        # the spectral gap of C_51 is about 2e-3; the report is exact anyway
        report = certify(cycle_graph(51), 0.1, trials=50, seed=0)
        assert report.lambda_estimate == pytest.approx(math.cos(math.pi / 51),
                                                       abs=1e-12)

    @pytest.mark.parametrize("g", [
        gen_gnp(40, 0.3, 5),
        build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]),
        build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    ], ids=["gnp", "k33", "disconnected", "isolated"])
    def test_fields_match_standalone_functions(self, g):
        report = certify(g, 0.4, trials=50, seed=1)
        assert report.c4_labelled == count_c4_labelled(g)
        assert report.lambda_bound == lambda_bound_from_trace(g)
        if g.degrees.min() > 0:
            assert report.trace_p4 == trace_p4(g)
        else:
            assert report.trace_p4 is None
        if report.connected and not report.bipartite:
            assert report.lambda_estimate == lambda_estimate(g)
        else:
            assert report.lambda_estimate is None

    @pytest.mark.parametrize("g, kwargs", [
        (gen_gnp(50, 0.5, 2), {"trials": 100}),
        (gen_complete(6), {"exhaustive": True}),
        (build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]), {}),
    ], ids=["gnp", "k6-exhaustive", "k33"])
    def test_one_pass(self, monkeypatch, g, kwargs):
        calls = dict.fromkeys(["dense", "bfs", "square", "eig"], 0)

        def counted(key, fn):
            def wrapper(*args, **kw):
                calls[key] += 1
                return fn(*args, **kw)
            return wrapper

        class CountedSquare(np.ndarray):
            def __matmul__(self, other):
                calls["square"] += 1
                return np.asarray(self) @ np.asarray(other)

        walk_matrix = certify_module._walk_matrix
        monkeypatch.setattr(Graph, "adjacency_dense",
                            counted("dense", Graph.adjacency_dense))
        monkeypatch.setattr(certify_module, "connectivity_profile",
                            counted("bfs", certify_module.connectivity_profile))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counted("eig", np.linalg.eigvalsh))
        monkeypatch.setattr(certify_module, "_walk_matrix",
                            lambda *a: walk_matrix(*a).view(CountedSquare))
        certify(g, 0.5, seed=1, **kwargs)
        # the battery builds one; the exhaustive search and the sampler,
        # which count from bit rows, build none
        assert calls["dense"] == 1
        assert calls["bfs"] == 1
        assert calls["square"] == 1 and calls["eig"] <= 1
