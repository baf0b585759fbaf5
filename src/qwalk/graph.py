"""Immutable undirected simple graphs in compressed adjacency form.

A ``Graph`` stores sorted per-vertex neighbor lists in CSR layout
(``indptr``/``indices``) with 64-bit counts throughout.  Instances are
frozen after construction, so any number of readers may share one.
Generators are pure functions of their arguments.

An edge uv, u < v, is the int64 key u * n + v.  This module alone
packs, deduplicates and looks up keys: a ``Graph`` is built from its
sorted distinct keys, and an ``EdgeSubgraph`` (the edges a walk or a
tree embedding traverses) is a sorted distinct key array.

``Graph(n, keys)`` checks that its keys are strictly ascending and of
the form 0 <= u < v < n, and raises ValueError otherwise.  Ascending
keys put every row's smaller neighbours before its larger ones, so the
C kernel of ``rng`` fills the CSR arrays in one pass over the keys; the
numpy code sorts both arcs of every edge instead and stays the
reference.  Generators and ``EdgeSubgraph.to_graph``, which hold their
keys sorted already, call ``Graph`` directly; ``build_graph`` packs and
deduplicates arbitrary pairs first.
"""

from __future__ import annotations

import gzip
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .rng import DOMAIN_GNP, _kernel, uniform_words


def _pack(n: int, us, vs) -> np.ndarray:
    """Edge keys min(u, v) * n + max(u, v) as a new int64 array."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    return np.minimum(us, vs) * n + np.maximum(us, vs)


def _unpack(n: int, keys: np.ndarray) -> np.ndarray:
    """Keys back to an (m, 2) array of (u, v) rows with u < v."""
    return np.column_stack((keys // n, keys % n))


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``a``, which is sorted in place.

    A sort and a mask of neighbours that differ give the same array as
    ``np.unique``, which is over 20x slower on millions of values.
    """
    a.sort()
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def edge_keys(n: int, us, vs) -> np.ndarray:
    """Sorted distinct keys of the unordered pairs (us[i], vs[i]).

    Sorted rather than marked in a boolean table of all n^2 keys, which
    would need n^2 bytes on sparse hosts with large n.
    """
    return _distinct(_pack(n, us, vs))


class Graph:
    """Undirected simple graph on vertices 0 .. n-1.

    Invariants: symmetric adjacency, no self-loops, no duplicate
    neighbors, and sum of degrees equal to twice ``edge_count``.
    Built from its edge keys u * n + v, u < v, strictly ascending, which
    it keeps (read-only) as ``edge_codes()``; other keys raise ValueError.
    """

    __slots__ = ("n", "indptr", "indices", "edge_count", "_edge_codes")

    def __init__(self, n: int, keys):
        self.n = n = int(n)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        keys = np.require(keys, np.int64, "C")
        if keys.ndim != 1:
            raise ValueError("edge keys must be a 1-d array")
        m = len(keys)
        lib = _kernel() if n < 2**31 else None  # the kernel needs n * n in int64
        if lib is None:
            done, self.indptr, self.indices = _csr_numpy(n, keys)
        else:
            self.indptr = np.empty(n + 1, dtype=np.int64)
            self.indices = np.empty(2 * m, dtype=np.int64)
            done = lib.qw_csr(n, keys.ctypes.data, m, self.indptr.ctypes.data,
                              self.indices.ctypes.data)
        if done < m:
            raise _bad_key(n, keys, done)
        self.edge_count = m
        self._edge_codes = keys
        for a in (self.indptr, self.indices, keys):
            a.setflags(write=False)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (read-only view)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    def has_edges(self, us, vs) -> np.ndarray:
        """Elementwise ``has_edge`` for endpoints in 0 .. n-1."""
        return np.isin(_pack(self.n, us, vs), self._edge_codes)

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        return _unpack(self.n, self._edge_codes)

    def edge_codes(self) -> np.ndarray:
        """Edges packed as u * n + v with u < v, sorted (read-only)."""
        return self._edge_codes

    def adjacency_dense(self, dtype=np.float64) -> np.ndarray:
        """Dense adjacency matrix; intended for n at desk scale only."""
        a = np.zeros((self.n, self.n), dtype=dtype)
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        a[src, self.indices] = 1
        return a

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _csr_numpy(n: int, keys: np.ndarray):
    """(m, indptr, indices) of the keys by sorting both arcs of every
    edge, or (j, None, None) for the first invalid key j, as ``qw_csr``."""
    u, v = np.divmod(keys, max(n, 1))
    bad = (keys < 0) | (u >= v)
    bad[1:] |= keys[1:] <= keys[:-1]
    if bad.any():
        return int(bad.argmax()), None, None
    # arcs u -> v packed as u * n + v, both directions, in CSR order
    arcs = np.concatenate([keys, v * n + u])
    arcs.sort()
    indptr = np.searchsorted(arcs, np.arange(n + 1, dtype=np.int64) * n)
    return len(keys), indptr, arcs % max(n, 1)


def _bad_key(n: int, keys: np.ndarray, j: int) -> ValueError:
    k = int(keys[j])
    if j and k <= keys[j - 1]:
        return ValueError(f"edge keys must be strictly ascending: key {k} at "
                          f"position {j} follows {int(keys[j - 1])}")
    return ValueError(f"edge key {k} at position {j} is not u*{n}+v "
                      f"with 0 <= u < v < {n}")


class EdgeSubgraph:
    """A deduplicated set of edges of a parent graph."""

    __slots__ = ("parent", "codes")

    def __init__(self, parent: Graph, codes: np.ndarray):
        self.parent = parent
        self.codes = codes  # sorted unique u * n + v with u < v

    @classmethod
    def from_pairs(cls, parent: Graph, us, vs) -> "EdgeSubgraph":
        return cls(parent, edge_keys(parent.n, us, vs))

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, edge) -> bool:
        return bool(_pack(self.parent.n, *edge) in self.codes)

    def edge_array(self) -> np.ndarray:
        return _unpack(self.parent.n, self.codes)

    def issubset(self, other: "EdgeSubgraph") -> bool:
        return bool(np.isin(self.codes, other.codes).all())

    def to_graph(self) -> Graph:
        return Graph(self.parent.n, self.codes)


@dataclass(frozen=True)
class VertexSet:
    """Subset of {0, ..., n-1} with bitset membership semantics."""

    n: int
    members: frozenset

    def __post_init__(self):
        if self.members and (min(self.members) < 0 or max(self.members) >= self.n):
            raise ValueError("vertex id out of range for VertexSet")

    @classmethod
    def from_iterable(cls, n: int, ids) -> "VertexSet":
        return cls(n, frozenset(int(v) for v in ids))

    @classmethod
    def from_mask(cls, n: int, mask: np.ndarray) -> "VertexSet":
        return cls(n, frozenset(int(v) for v in np.nonzero(mask)[0]))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, frozenset(range(n)))

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def bool_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        if self.members:
            mask[sorted(self.members)] = True
        return mask

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, frozenset(range(self.n)) - self.members)


@dataclass(frozen=True)
class DegreeProfile:
    """Density and the set of degree-balanced vertices at a given epsilon."""

    rho: float
    balanced: VertexSet
    epsilon: float


def build_graph(n: int, edges) -> Graph:
    """Build a Graph from unordered vertex pairs; duplicates collapse.

    Rejects self-loops and out-of-range endpoints.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    pairs = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                       dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be pairs of vertex ids")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        bad = pairs[(pairs < 0).any(1) | (pairs >= n).any(1)][0]
        raise ValueError(f"edge endpoint out of range: {tuple(bad)} with n={n}")
    if pairs.size and (pairs[:, 0] == pairs[:, 1]).any():
        v = int(pairs[pairs[:, 0] == pairs[:, 1]][0, 0])
        raise ValueError(f"self-loop rejected at vertex {v}")
    return Graph(n, edge_keys(n, pairs[:, 0], pairs[:, 1]))


def edges_between(g: Graph, a: VertexSet, b: VertexSet) -> int:
    """Ordered-pair edge count e(A, B) = |{(a, b) in A x B : ab in E}|.

    Counts ordered pairs, so an edge with both endpoints in the
    intersection contributes 2.
    """
    if a.n != g.n or b.n != g.n:
        raise ValueError("vertex sets must live on the graph's vertex range")
    return _arc_count(g, a.bool_mask(), b.bool_mask())


def _arc_count(g: Graph, amask: np.ndarray, bmask: np.ndarray) -> int:
    """Arcs (u, v) of the CSR arrays with amask[u] and bmask[v]."""
    return int(np.count_nonzero(np.repeat(amask, g.degrees) & bmask[g.indices]))


def density(g: Graph) -> float:
    """Edge density e(G) / C(n, 2)."""
    if g.n < 2:
        raise ValueError("density requires at least 2 vertices")
    return g.edge_count / (g.n * (g.n - 1) / 2)


def balanced_vertices(g: Graph, eps: float) -> DegreeProfile:
    """Vertices whose degree is within eps*n of rho*n."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    rho = density(g)
    mask = np.abs(g.degrees - rho * g.n) <= eps * g.n
    return DegreeProfile(rho=rho, balanced=VertexSet.from_mask(g.n, mask), epsilon=eps)


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each pair present independently with probability p.

    The draw for pair (u, v), u < v, is word v-u-1 of the stream keyed
    (seed, GNP domain, u), so the pair stream is replayable per row.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    rows = [np.empty(0, dtype=np.int64)]  # keys of row u are u*n + u+1 .. u*n + n-1
    for u in range(n - 1):
        draws = uniform_words(seed, DOMAIN_GNP, u, 0, n - u - 1) < p
        rows.append(np.flatnonzero(draws) + (u * n + u + 1))
    return Graph(n, np.concatenate(rows))


def gen_complete(n: int) -> Graph:
    # the flat indices of the strict upper triangle are the keys, ascending;
    # a negative n makes no triangle, and Graph rejects it
    side = max(n, 0)
    return Graph(n, np.flatnonzero(np.triu(np.ones((side, side), dtype=bool), 1)))


def small_clique_size(n: int, eps: float) -> int:
    """Order ceil(eps^2 * n / 2) of the two-clique host's small side."""
    # round before the ceiling so 0.2**2 * 100 / 2 counts as exactly 2
    return math.ceil(round(eps * eps * n / 2, 9))


def gen_two_clique_bridge(n: int, eps: float) -> Graph:
    """Two disjoint cliques joined by a single edge.

    The small clique has ceil(eps^2 * n / 2) vertices 0 .. s-1, the large
    clique the rest; the bridge joins the lowest-id vertex of each.
    """
    s = small_clique_size(n, eps)
    if s < 2:
        raise ValueError(f"small clique would have {s} < 2 vertices")
    if n - s < 2:
        raise ValueError("large clique needs at least 2 vertices")
    iu, iv = np.triu_indices(s, k=1)
    ju, jv = np.triu_indices(n - s, k=1)
    edges = np.concatenate([
        np.column_stack((iu, iv)),
        np.column_stack((ju + s, jv + s)),
        np.array([[0, s]]),
    ]).astype(np.int64)
    return build_graph(n, edges)


def connectivity_profile(g: Graph) -> tuple[bool, bool]:
    """(connected, bipartite) via breadth-first 2-coloring.

    Bipartiteness is reported for the whole graph (all components).
    """
    n = g.n
    color = np.full(n, -1, dtype=np.int8)
    components = 0
    for root in range(n):
        if color[root] >= 0:
            continue
        components += 1
        color[root] = 0
        frontier = np.array([root], dtype=np.int64)
        c = 0
        while len(frontier):
            c ^= 1
            starts, stops = g.indptr[frontier], g.indptr[frontier + 1]
            slots = np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])
            nbrs = _distinct(g.indices[slots])
            frontier = nbrs[color[nbrs] < 0]
            color[frontier] = c
    u, v = g.edge_array().T
    return components <= 1, bool((color[u] != color[v]).all())


def save_graph(g: Graph, path: str) -> None:
    """Plain text: first line "n m", then one "u v" line per edge, u < v."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        for u, v in g.edge_array():
            fh.write(f"{u} {v}\n")


def read_text(path: str, opener=open) -> str:
    """The UTF-8 text of a file; bytes that are not UTF-8 name their line.

    ``opener`` is ``open`` or ``gzip.open``; a file that is not gzip, or
    a truncated or corrupt gzip stream, names line 1.
    """
    try:
        with opener(path, "rb") as fh:
            data = fh.read()
    except (gzip.BadGzipFile, EOFError, zlib.error):
        raise ValueError(f"{path}:1: not a readable gzip file") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text") from None


def load_graph(path: str) -> Graph:
    """Load the text format written by save_graph; violations name the line."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ValueError(f"{path}:1: missing header line 'n m'")
    head = lines[0].split()
    if len(head) != 2 or not all(t.isdecimal() for t in head):
        raise ValueError(f"{path}:1: header must be 'n m' with non-negative "
                         f"integers, got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"{path}: header promises {m} edges, found {len(lines) - 1}")
    edges = np.empty((m, 2), dtype=np.int64)
    for i, line in enumerate(lines[1:], start=2):
        toks = line.split()
        if len(toks) != 2 or not all(t.removeprefix("-").isdecimal() for t in toks):
            raise ValueError(f"{path}:{i}: expected 'u v', got {line!r}")
        u, v = int(toks[0]), int(toks[1])
        if not u < v:
            raise ValueError(f"{path}:{i}: endpoints must satisfy u < v, got {u} {v}")
        if v >= n or u < 0:
            raise ValueError(f"{path}:{i}: endpoint out of range for n={n}")
        edges[i - 2] = (u, v)
    return build_graph(n, edges)
