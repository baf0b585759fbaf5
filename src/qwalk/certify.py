"""Quasirandomness certification: discrepancy, 4-cycle counts, and
spectral bounds on the walk's transition matrix.

A graph with density rho is eps-quasirandom when every pair of vertex
sets of size at least eps*n spans within eps*|A||B| of rho*|A||B|
ordered-pair edges.  Exhaustive checking, on tiny graphs, pairs each set
A with the best B of every size.  The sampled estimator scales but only
ever produces a lower bound on the true discrepancy, so it can refute
quasirandomness and support it statistically, never certify it; the
refined estimator raises a sampled witness by best-response search and
is still a lower bound, but one that finds lopsided structure (a dense
hub set, say) that uniform subsets almost never hit.  Every discrepancy
value comes with a witness pair whose exact edge count reproduces it.

All spectral quantities live on the transition matrix P = D^-1 A.  The
symmetrization M = D^-1/2 A D^-1/2 shares its spectrum, which keeps the
arithmetic real and symmetric: trace(P^4) is the squared norm of M @ M,
and lambda = max(|lambda_2|, |lambda_n|) comes exactly from one dense
symmetric eigensolve of M, an O(n^3) step like the C4 count and the
trace.  The trace bound lambda <= (trace(P^4) - 1)^(1/4) stays as a
certified cross-check.  M, the C4 product, the trace and the spectrum
use float64; the C4 product is exact because products of adjacency
counts stay far below 2**53.  Every e(A, B) is an exact integer count
from the graph's adjacency bit rows: the exhaustive search takes the
popcount of each one-word row and set, and the refined search and the
sampler's reference count through ``graph.neighbour_counts``; with the
C kernel the sampler draws every set and counts every e(A, B) in one
kernel call, over the fewest rows of A, B and their complements, with
its trials split among the CPUs the process may use; the sampler's two
paths part only in that count, and share the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .graph import (Graph, VertexSet, connectivity_profile, density,
                    neighbour_counts)
from .rng import (DOMAIN_SUBSETS, _checked_seed, _cpus, _integer, _kernel, _next_word,
                  stream, uniform_words)

EXHAUSTIVE_MAX_N = 16
_BLOCK = 256  # trials per draw of the subset sampler's sets


def _deviation(e, rho, size_a, size_b):
    """|e(A,B) - rho|A||B|| / (|A||B|), shared by every discrepancy path."""
    return np.abs(e - rho * size_a * size_b) / (size_a * size_b)


def _min_size(n: int, eps: float) -> int:
    """k = ceil(eps*n), the least set size counted; needs 1 <= eps*n <= n."""
    if not 1 <= eps * n <= n:  # NaN fails too
        raise ValueError(f"eps*n must lie in [1, n], got eps={eps} and n={n}")
    return math.ceil(eps * n)


def _qualifying_masks(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """All subset bitmasks of size >= k, ascending, with their sizes."""
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(masks).astype(np.int64)
    keep = sizes >= k
    return masks[keep], sizes[keep]


def discrepancy_exhaustive(g: Graph, eps: float) -> tuple[float, tuple[VertexSet, VertexSet]]:
    """Exact maximum deviation over all qualifying set pairs, with a witness.

    One pass over the 2^n sets A, so n is capped at EXHAUSTIVE_MAX_N.
    For fixed A, e(A, B) over sets B of size b runs from the sum of the
    b smallest counts |N(j) & A| to the sum of the b largest, and the
    deviation, convex in e and monotone in floating point on each side
    of rho|A|b, peaks at one of the two: so every qualifying pair, all
    that certify's pairs_checked counts, is covered without enumeration.
    The graph is eps-quasirandom iff the maximum is below eps.  The
    witness is the first attaining pair in ascending bitmask order: the
    first A whose row attains it, then the first B in one pass for it.
    Each count |N(j) & A| is the popcount of A's mask and j's bit row, a
    single word, and each e(A, B) an integer sum of them.
    """
    if g.n > EXHAUSTIVE_MAX_N:
        raise ValueError(
            f"exhaustive discrepancy caps at n={EXHAUSTIVE_MAX_N}; "
            "use discrepancy_sampled")
    n = g.n
    k = _min_size(n, eps)
    rho = density(g)
    masks, sizes = _qualifying_masks(n, k)
    rows = g.bit_rows()[:, 0].astype(np.int64)
    counts = np.bitwise_count(masks[:, None] & rows).astype(np.int64)  # |N(j) & A|
    ends = np.sort(counts, axis=1)
    low = np.cumsum(ends, axis=1)[:, k - 1:]  # sums of the b smallest, b >= k
    high = np.cumsum(ends[:, ::-1], axis=1)[:, k - 1:]  # and of the b largest
    size_a, size_b = sizes[:, None], np.arange(k, n + 1)
    # the larger _deviation of the two ends, bit for bit: low <= high, and
    # rounding keeps that order through "- c" and the division by |A|b > 0
    c = rho * size_a * size_b
    row_best = (np.maximum(high - c, c - low) / (size_a * size_b)).max(axis=1)
    ia = int(row_best.argmax())
    a = ((masks[ia] >> np.arange(n)) & 1).astype(bool)
    # e(A, B) = e(B, A): the counts of each B summed over A's members
    ib = int(_deviation(counts[:, a].sum(axis=1), rho, sizes[ia], sizes).argmax())
    return float(row_best[ia]), (VertexSet.from_mask(n, a),
                                 VertexSet.from_mask(n, (masks[ib] >> np.arange(n)) & 1))


def discrepancy_sampled(g: Graph, eps: float, trials: int,
                        seed: int) -> tuple[float, tuple[VertexSet, VertexSet]]:
    """Maximum deviation over sampled set pairs; a lower bound estimator.

    Sizes are uniform on [ceil(eps*n), n] and each set is a uniform
    subset of its size: the vertices whose draws are at most the
    size-th smallest of n draws (``_picks``).  Deterministic given the
    seed.  Each e(A, B) is an exact integer count.

    The sizes are numpy's ``integers(lo, n + 1, size=(trials, 2))`` of
    the stream, and the draws follow them on it, 2b rows of n for each
    block of b <= 256 trials, A's rows first.  The two paths part only
    in how they count each trial's e(A, B).  With the C kernel, for an
    address it takes (``rng._kernel``), one call draws the sizes as numpy
    does, with no numpy generator opened, then every set, and counts
    every e(A, B) from the graph's bit rows over the fewest rows:
    A, B, V - A or V - B, since e(A, B) = e(B, A) and vol(B) - e(V - A,
    B) = e(A, B).  That call runs its trials on min(CPUs this process
    may use, ceil(trials / 256)) threads, which claim one trial at a
    time, so up to 256 trials run on the calling thread alone; each trial
    reads its words at stream positions fixed by its number, so the
    counts do not depend on which thread ran it.  The kernel takes the
    sizes from at most 2 trials words, twice what they take unless a
    32-bit draw is repeated (a chance below n / 2^32 each), so its words
    end below 2 trials (n + 1), the ``end`` it is asked for; past that it
    returns -1 before counting, and the numpy path serves.  That path
    draws each block as floats after the sizes and counts it by
    ``neighbour_counts``, the reference, on one thread.  Then the witness
    is the first trial of largest deviation, and only its two sets are
    drawn again, to be returned.
    """
    lo = _min_size(g.n, eps)
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ValueError("need at least one trial")
    n = g.n
    seed = _checked_seed(seed)
    lib = _kernel(seed, DOMAIN_SUBSETS, 0, 2 * trials * (n + 1))
    offset = -1
    if lib is not None:
        sizes = np.empty((trials, 2), dtype=np.int64)
        e = np.empty(trials, dtype=np.int64)
        threads = min(_cpus(), -(-trials // _BLOCK))
        work = np.empty(threads * (2 * n + 2 * -(-n // 64)), dtype=np.uint64)
        offset = lib.qw_sampled_counts(seed, DOMAIN_SUBSETS, 0, lo, n, g.bit_rows().ctypes.data,
                                       g.indptr.ctypes.data, sizes.ctypes.data, trials, _BLOCK,
                                       threads, work.ctypes.data, e.ctypes.data)
    if offset < 0:
        gen = stream(seed, DOMAIN_SUBSETS, 0)
        sizes = gen.integers(lo, n + 1, size=(trials, 2))
        offset = _next_word(gen)
        e = _sampled_counts(g, gen, sizes)
    dev = _deviation(e, density(g), sizes[:, 0], sizes[:, 1])
    i = int(dev.argmax())
    t0 = i - i % _BLOCK
    start = offset + 2 * t0 * n + (i - t0) * n
    witness = (_subset(seed, start, sizes[i, 0], n),
               _subset(seed, start + min(_BLOCK, trials - t0) * n, sizes[i, 1], n))
    return float(dev[i]), witness


def _picks(u: np.ndarray, sizes) -> np.ndarray:
    """The sampler's subsets: row i's vertices whose draws are at most
    the sizes[i]-th smallest of its row of ``u``."""
    kth = np.sort(u, axis=1)[np.arange(len(u)), np.asarray(sizes) - 1]
    return u <= kth[:, None]


def _subset(seed: int, start: int, size: int, n: int) -> VertexSet:
    """The sampler's set from words start .. start+n-1 of its stream."""
    u = uniform_words(seed, DOMAIN_SUBSETS, 0, start, n)
    return VertexSet.from_mask(n, _picks(u[None], [size])[0])


def _sampled_counts(g: Graph, gen, sizes: np.ndarray) -> np.ndarray:
    """Each trial's e(A, B) from ``gen``, placed after the sizes: each
    block's sets drawn as one float array and counted by
    ``neighbour_counts``, the reference."""
    n, trials = g.n, len(sizes)
    e = np.empty(trials, dtype=np.int64)
    for t0 in range(0, trials, _BLOCK):
        t1 = min(t0 + _BLOCK, trials)
        block = t1 - t0
        picks = _picks(gen.random((2 * block, n)), sizes[t0:t1].T.reshape(-1))
        e[t0:t1] = neighbour_counts(g, picks[block:], picks[:block]).sum(axis=1)
    return e


def discrepancy_refined(g: Graph, eps: float, start: tuple[VertexSet, VertexSet]
                        ) -> tuple[float, tuple[VertexSet, VertexSet]]:
    """Best-response search from a starting pair; a lower bound estimator.

    With B fixed, the deviation of A is |sum over A of |N(v) & B| -
    rho|B|| / (|A||B|), which over all |A| >= ceil(eps*n) is maximised by
    the top or the bottom ceil(eps*n) vertices by |N(v) & B| (stable
    order, ties to the lower id).  The search alternates that best
    response for A given B and for B given A, keeping a move only when it
    strictly raises the deviation, and stops after a round with no move
    (the cut-norm local search of Alon and Naor).  The result is never
    below the start pair's deviation, never above the exhaustive value,
    and is recomputed from exact integer e(A, B).  Deterministic.
    """
    n = g.n
    k = _min_size(n, eps)
    if any(s.n != n or s.size < k for s in start):
        raise ValueError(f"start sets must live on n={n} with at least {k} members")
    rho = density(g)

    def counts(mask):  # |N(v) & set| for every v, exact integers
        return neighbour_counts(g, mask[None])[0]

    def best_response(other):
        c = counts(other)
        order = np.argsort(c, kind="stable")
        size = int(np.count_nonzero(other))
        best_dev, best_pick = -1.0, None
        for pick in (order[-k:], order[:k]):
            dev = _deviation(int(c[pick].sum()), rho, k, size)
            if dev > best_dev:
                best_dev, best_pick = dev, pick
        mask = np.zeros(n, dtype=bool)
        mask[best_pick] = True
        return best_dev, mask

    a, b = start[0].bool_mask(), start[1].bool_mask()
    best = _deviation(int(counts(b)[a].sum()), rho, start[0].size, start[1].size)
    improved = True
    while improved:
        improved = False
        dev, mask = best_response(b)
        if dev > best:
            best, a, improved = dev, mask, True
        dev, mask = best_response(a)
        if dev > best:
            best, b, improved = dev, mask, True
    return float(best), (VertexSet.from_mask(n, a), VertexSet.from_mask(n, b))


def _c4_from_adjacency(adj: np.ndarray) -> int:
    """Labelled 4-cycles from the dense adjacency matrix."""
    codeg = adj @ adj  # exact: entries are common-neighborhood sizes
    np.fill_diagonal(codeg, 0.0)
    return int(round(float((codeg * (codeg - 1.0)).sum())))


def _walk_matrix(g: Graph, adj: np.ndarray) -> np.ndarray:
    """M = D^-1/2 A D^-1/2, which shares its spectrum with P = D^-1 A."""
    deg = g.degrees
    if g.n and deg.min() == 0:
        raise ValueError("transition matrix undefined with isolated vertices")
    s = 1.0 / np.sqrt(deg.astype(np.float64))
    return adj * s[:, None] * s[None, :]


def _trace_from_square(m2: np.ndarray) -> float:
    """trace(M^4) = sum of squared entries of the symmetric M^2."""
    return float((m2 * m2).sum())


def _bound_from_trace(tr: float) -> float:
    """lambda <= (trace(P^4) - 1)^(1/4), capped at 1."""
    return min(max(tr - 1.0, 0.0) ** 0.25, 1.0)


def _lambda_from_spectrum(m: np.ndarray) -> float:
    """max(|lambda_2|, |lambda_n|), the top eigenvalue 1 being simple."""
    eigs = np.linalg.eigvalsh(m)
    return float(max(abs(eigs[0]), abs(eigs[-2])))


def count_c4_labelled(g: Graph) -> int:
    """Labelled 4-cycles: 2 * sum over ordered pairs of C(codegree, 2)."""
    return _c4_from_adjacency(g.adjacency_dense())


def trace_p4(g: Graph) -> float:
    """Trace of P^4, the degree-weighted count of closed 4-walks.

    Each closed walk uvwx carries weight 1/(d(u)d(v)d(w)d(x)); the trace
    equals the sum of fourth powers of the eigenvalues of P.
    """
    m = _walk_matrix(g, g.adjacency_dense())
    return _trace_from_square(m @ m)


def lambda_bound_from_trace(g: Graph) -> float:
    """Certified upper bound on lambda = max(|lambda_2|, |lambda_n|).

    Uses lambda^4 <= trace(P^4) - 1, valid when the walk is irreducible
    and aperiodic.  Disconnected or bipartite graphs get lambda = 1
    (exact there, and no better bound is claimed).
    """
    connected, bipartite = connectivity_profile(g)
    if not connected or bipartite:
        return 1.0
    return _bound_from_trace(trace_p4(g))


def lambda_estimate(g: Graph) -> float:
    """lambda = max(|lambda_2|, |lambda_n|) from the full dense spectrum.

    Exact to floating-point rounding; defined only when the walk is
    irreducible and aperiodic, so that the eigenvalue 1 is simple.
    """
    connected, bipartite = connectivity_profile(g)
    if not connected:
        raise ValueError("lambda estimation requires a connected graph")
    if bipartite:
        raise ValueError("lambda estimation requires a non-bipartite graph")
    return _lambda_from_spectrum(_walk_matrix(g, g.adjacency_dense()))


@dataclass
class QuasirandomnessReport:
    """Certification output for one graph at one eps target."""

    rho: float
    eps_target: float
    discrepancy: float
    method: str                    # "exhaustive" | "sampled"
    pairs_checked: int
    c4_labelled: int
    trace_p4: float | None
    lambda_bound: float
    lambda_estimate: float | None
    connected: bool
    bipartite: bool

    @property
    def quasirandom(self) -> bool:
        """Whether the measured discrepancy stays below the eps target."""
        return self.discrepancy < self.eps_target

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def certify(g: Graph, eps: float, trials: int = 2000, seed: int = 0,
            exhaustive: bool = False) -> QuasirandomnessReport:
    """Run the full certification battery and collect a report.

    One breadth-first search, one dense adjacency for the C4 count, the
    trace and the spectrum, and one eigensolve.  The trace is null on
    hosts with isolated vertices; lambda_estimate is null, and
    lambda_bound is 1, on disconnected or bipartite hosts.
    """
    connected, bipartite = connectivity_profile(g)
    if exhaustive:
        disc, _ = discrepancy_exhaustive(g, eps)
        sets = sum(math.comb(g.n, k)
                   for k in range(_min_size(g.n, eps), g.n + 1))
        method, pairs = "exhaustive", sets ** 2
    else:
        disc, _ = discrepancy_sampled(g, eps, trials, seed)
        method, pairs = "sampled", trials
    adj = g.adjacency_dense()
    c4 = _c4_from_adjacency(adj)
    tr, lam_bound, lam_est = None, 1.0, None
    if g.n and g.degrees.min() > 0:
        m = _walk_matrix(g, adj)
        tr = _trace_from_square(m @ m)
        if connected and not bipartite:
            lam_bound = _bound_from_trace(tr)
            lam_est = _lambda_from_spectrum(m)
    return QuasirandomnessReport(
        rho=density(g),
        eps_target=eps,
        discrepancy=disc,
        method=method,
        pairs_checked=pairs,
        c4_labelled=c4,
        trace_p4=tr,
        lambda_bound=lam_bound,
        lambda_estimate=lam_est,
        connected=connected,
        bipartite=bipartite,
    )
