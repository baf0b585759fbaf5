"""Immutable undirected simple graphs in compressed adjacency form.

A ``Graph`` presents sorted per-vertex neighbor lists in CSR layout:
int64 row starts ``indptr`` and int32 vertex ids ``indices``.  Instances
are frozen after construction, so any number of readers may share one.
Generators are pure functions of their arguments.

An edge uv, u < v, is the int64 key u * n + v, formed only after
widening the int32 ids.  This module alone packs, deduplicates and
looks up keys: a ``Graph`` is built from its sorted distinct keys or
from its adjacency bit rows.  The edges a walk or a tree embedding
traverses are such a ``Graph``, read as an edge set by ``len``, ``in``
and ``issubset``.

A vertex count n is an integer with 0 <= n < 2^31, so that every vertex
id fits in int32 and every key in int64, and keys, endpoints and
vertices are integers; anything else raises ValueError, and so does a
vertex outside 0..n-1 given to ``degree`` or ``neighbors``.
``Graph(n, keys)`` checks that its keys are strictly ascending and of
the form 0 <= u < v < n, else raises ValueError, and keeps its keys and
``indptr``, counted from their endpoints.  ``Graph._from_rows`` keeps
bit rows instead, n^2/8 bytes, and ``indptr``, summed from their
popcounts, half of whose total is its edge count; walks select each
neighbour from the rows.  Either reads ``indices``, 8 bytes an edge,
out of its one edge store only when they are asked for: from keys by
the numpy sort of both arcs of every edge, from rows as each row's set
bits in order; until then ``neighbors(v)`` of a graph built from rows
reads row v alone.  Rows become ``indices``, keys and the dense matrix
in numpy alone, through ``_row_bits``.  ``gen_gnp`` draws G(n, p) into
rows, ``gen_complete`` and ``gen_two_clique_bridge`` write their cliques'
(``_clique_rows``), and ``_mark_rows`` alone marks
given pairs in them, by the C kernel of ``rng`` or by numpy, the
reference; both OR into rows, so pairs may be marked a block at a time.

``_pairs_graph`` alone turns given pairs into a ``Graph``, for
``build_graph`` and the edges of walks, tree images and list prefixes,
which it takes a block of pairs at a time, and rejects an endpoint
outside 0..n-1 and a self-loop.  With the kernel and under the table
rule, m pairs with n^2 <= 64 m (``_table_fits``, ``_rows_fit``), it
marks each block into the n bit rows of the ``Graph``, no larger than
the m int64 keys a sort needs, so no key is made until
``Graph.edge_codes`` reads them out.  Otherwise it packs each block's
keys into one array, which numpy sorts, the reference.  Under the same
rule (``walks.ListModel._marks``) the list model's kernel marks a walk's
or a tree image's edges as it takes their entries, and
``walks.walk_edges`` and ``trees.image_subgraph`` build the ``Graph``
from those rows.

``Graph.bit_rows`` holds the adjacency as n bit rows of ceil(n/64)
uint64 words, n^2/8 bytes, packed once: kept from construction where it
was built from them, else marked by ``_mark_rows`` on first use.
``has_edges`` tests their bits on a graph built from rows.  ``neighbour_counts`` counts
neighbours in vertex sets, the e(A, B) behind the discrepancy
estimators: |N(v) & S| is the popcount of row v and S's words, exact
integers at any n, with ``np.bitwise_count``.  The subset sampler of
``certify`` counts from the same rows in its own kernel call.
"""

from __future__ import annotations

import gzip
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .rng import DOMAIN_GNP, _checked_seed, _cpus, _integer, _kernel, uniform_words


def _vertex_count(n) -> int:
    """``n`` as an int, 0 <= n < 2^31 so that every vertex id fits in
    int32 and every key u * n + v in int64; ValueError naming any other
    value."""
    n = _integer(n, "vertex count", natural=True)
    if n >= 2**31:
        raise ValueError(f"vertex count {n} is too large: vertex ids need n < 2^31")
    return n


def _vertex(g: Graph, v) -> int:
    """``v`` as an int; ValueError names a value that is not an integer,
    as ``_integers`` judges them, or a vertex outside the host."""
    v = _integer(v, "vertex")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} is not in the host's 0..{g.n - 1}")
    return v


def _int64s(values, what: str) -> np.ndarray:
    """``values`` as a C-contiguous int64 array, checked as ``_integers``
    checks them."""
    return np.ascontiguousarray(_integers(values, what), dtype=np.int64)


def _integers(values, what: str) -> np.ndarray:
    """``values`` as a signed integer array: a signed integer array as it
    is, so int32 ids pass without a copy, and anything else as int64.
    ValueError names the first value that is not an integer in int64.
    Floats are refused even when integral, as ``operator.index`` refuses
    them, and so are bools, among ints too; an empty input, which numpy
    reads as float64, is an empty array."""
    a = np.asarray(values)
    if a.dtype.kind == "i" and (isinstance(values, np.ndarray) or not {bool, np.bool_} & set(
            map(type, np.asarray(values, dtype=object).flat))):
        return a
    if a.size and not (a.dtype.kind == "u" and a.max() < 2**63):
        # the values as given: numpy reads [0, 2**64 - 1] as floats
        for x in np.asarray(values, dtype=object).flat:
            if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
                    or not -2**63 <= int(x) < 2**63):
                raise ValueError(f"{what} must be integers in int64, got {x!r}")
    return a.astype(np.int64)


def _ids(a: np.ndarray):
    """An integer array as C-contiguous int32, without a copy when it is
    that already, or None when a value lies outside int32."""
    if a.dtype != np.int32 and a.size and not -2**31 <= a.min() <= a.max() < 2**31:
        return None
    return np.ascontiguousarray(a, dtype=np.int32)


def _table_fits(n: int, m) -> bool:
    """The table rule: n^2 bits, a bit table or n bit rows of n bits,
    take no more bytes than m int64 keys."""
    return n * n <= 64 * m


def _rows_fit(n: int, m) -> bool:
    """Whether m pairs on n vertices are marked into bit rows rather than
    packed into keys: under the table rule, with the kernel loaded."""
    return _table_fits(n, m) and _kernel() is not None


def _clear_rows(n: int) -> np.ndarray:
    """n clear bit rows of ceil(n/64) uint64 words."""
    return np.zeros((n, -(-n // 64)), dtype=np.uint64)


def _pack(n: int, us, vs, out=None) -> np.ndarray:
    """Edge keys min(u, v) * n + max(u, v), widened before the product, in
    the int64 array ``out`` or a new one; ids of any width make no copy."""
    keys = np.asarray(np.minimum(us, vs, out=out, dtype=np.int64))
    np.multiply(keys, n, out=keys)
    return np.add(keys, np.maximum(us, vs), out=keys, casting="unsafe")


def _inside(n: int, us, vs):
    """Whether both endpoints lie in 0..n-1; a pair outside is no edge."""
    us, vs = np.asarray(us), np.asarray(vs)
    return (0 <= us) & (us < n) & (0 <= vs) & (vs < n)


def _unpack(n: int, keys: np.ndarray) -> np.ndarray:
    """Keys back to an (m, 2) array of (u, v) rows with u < v."""
    return np.column_stack((keys // n, keys % n))


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``a``, which is sorted in place.

    A sort and a mask of neighbours that differ give the same array as
    ``np.unique``, which is over 20x slower on millions of values, and
    ``np.compress`` takes the values where most are repeats about 3.5x
    faster than ``a[first]`` (the 10^6 keys of a walk on G(20000, 0.001),
    numpy 2.4).
    """
    a.sort()
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return np.compress(first, a)


def _check_pairs(n: int, us: np.ndarray, vs: np.ndarray) -> None:
    """Raise ValueError for the first pair with an endpoint outside
    0..n-1, or else for the first self-loop."""
    out = (us < 0) | (us >= n) | (vs < 0) | (vs >= n)
    if out.any():
        i = int(out.argmax())
        raise ValueError(f"edge endpoint out of range: ({us[i]}, {vs[i]}) with n={n}")
    loop = us == vs
    if loop.any():
        raise ValueError(f"self-loop rejected at vertex {us[loop.argmax()]}")


def _mark_rows(n: int, us, vs, rows: np.ndarray | None = None) -> np.ndarray:
    """``rows``, or n new clear bit rows of ceil(n/64) uint64 words, with
    bit v of row u and bit u of row v set for each pair of the
    equal-length integer arrays us, vs: by the kernel's ``qw_mark_pairs``
    on int32 ids, else by numpy, the reference.  Both OR into the rows, so
    a caller may mark its pairs a block at a time.  A bad pair raises
    ``_check_pairs``' ValueError before any bit is set."""
    if rows is None:
        rows = _clear_rows(n)
    lib = _kernel()
    us32, vs32 = (_ids(us), _ids(vs)) if lib is not None else (None, None)
    if us32 is not None and vs32 is not None and lib.qw_mark_pairs(
            n, us32.ctypes.data, vs32.ctypes.data, len(us32), rows.ctypes.data) == 0:
        return rows
    _check_pairs(n, us, vs)  # raises where the kernel returned -1 or took no ids
    for a, b in ((us, vs), (vs, us)):
        np.bitwise_or.at(rows, (a, b // 64), np.uint64(1) << (b % 64).astype(np.uint64))
    return rows


def _pairs_graph(n: int, m: int, blocks) -> Graph:
    """The Graph on 0..n-1 of the distinct edges of the m unordered pairs
    (us[i], vs[i]) of the blocks (us, vs) that the iterable ``blocks``
    yields, holding no more than one block at a time.

    ValueError names a block's first endpoint outside 0..n-1, or else its
    first self-loop, or blocks that hold other than m pairs.  With the C
    kernel and under the table rule for m, each block is marked into the
    n bit rows the graph keeps.  Otherwise each block's keys are packed
    into one array of m and sorted, the reference, which takes about half
    as long as numpy's marking of a walk's pairs, and the graph keeps them.
    """
    n = _vertex_count(n)
    keys = None if _rows_fit(n, m) else np.empty(m, dtype=np.int64)
    rows, at = None, 0
    for us, vs in blocks:
        us, vs = _integers(us, "edge endpoints"), _integers(vs, "edge endpoints")
        if us.ndim != 1 or us.shape != vs.shape:
            raise ValueError("pairs must be two 1-d arrays of equal length")
        if keys is None:
            rows = _mark_rows(n, us, vs, rows)
        elif at + len(us) <= m:  # else the count is refused below
            _check_pairs(n, us, vs)
            _pack(n, us, vs, out=keys[at:at + len(us)])
        at += len(us)
    if at != m:
        raise ValueError(f"the blocks hold {at} pairs, not m = {m}")
    if keys is not None:
        return Graph(n, _distinct(keys))
    if rows is None:  # no block came, as on n = m = 0
        rows = _mark_rows(n, *np.empty((2, 0), dtype=np.int32))
    return Graph._from_rows(rows)


def _row_bits(rows: np.ndarray) -> np.ndarray:
    """Bit rows as an (n, 64 ceil(n/64)) bool matrix, whose nonzero
    entries numpy finds several times faster than a uint8 one's: column
    u of row v is bit u % 64 of word u // 64."""
    return np.unpackbits(rows.astype("<u8", copy=False).view(np.uint8), axis=1,
                         bitorder="little").view(bool)


def _row_keys(n: int, rows: np.ndarray) -> np.ndarray:
    """The keys u * n + v, ascending, of the bits v > u of each row u:
    position u * width + v of the bits above the diagonal, less u
    (width - n)."""
    bits = _row_bits(rows)
    width = max(bits.shape[1], 1)
    at = np.flatnonzero(np.triu(bits, 1))
    at -= at // width * (width - n)
    return at


def _bits_set(rows: np.ndarray, n: int, us, vs) -> np.ndarray:
    """Elementwise, whether bit v of row u of symmetric bit rows with a
    clear diagonal is set; False for a pair outside 0..n-1."""
    inside = _inside(n, us, vs)
    if n == 0:
        return inside
    # a pair outside reads bit 0 of row 0, which no row sets; the rows'
    # little-endian bytes hold neighbour v at bit v % 8 of byte v // 8, so
    # no temporary is wider than the ids
    us, vs = np.where(inside, us, 0), np.where(inside, vs, 0)
    octets = rows.astype("<u8", copy=False).view(np.uint8)[us, vs >> 3]
    return (octets >> (vs & 7).astype(np.uint8) & 1).astype(bool)


class Graph:
    """Undirected simple graph on vertices 0 .. n-1.

    Invariants: symmetric adjacency, no self-loops, no duplicate
    neighbors, and sum of degrees equal to twice ``edge_count``.
    Built from its edge keys u * n + v, u < v, strictly ascending, which
    it keeps (read-only) with ``indptr``, counted from their endpoints;
    other keys raise ValueError.  A graph built from bit rows
    (``_from_rows``) keeps its rows, ``indptr`` and a rank directory
    instead, reads ``edge_codes()`` out of its rows on each call, and its
    walks select each neighbour from its rows through the directory.
    Either reads ``indices`` out of its one edge store on first use;
    ``neighbors`` of a graph built from rows reads one row until then.
    """

    __slots__ = ("n", "indptr", "edge_count", "_indices", "_edge_codes", "_rows", "_ranks")

    def __init__(self, n: int, keys):
        n = _vertex_count(n)
        keys = _int64s(keys, "edge keys")
        if keys.ndim != 1:
            raise ValueError("edge keys must be a 1-d array")
        us, vs = _key_endpoints(n, keys)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(us, minlength=n) + np.bincount(vs, minlength=n), out=indptr[1:])
        self._keep(n, indptr, keys, None)  # rows packed by bit_rows()

    @classmethod
    def _from_rows(cls, rows: np.ndarray) -> "Graph":
        """A dense graph on n vertices from its own n bit rows, symmetric
        with a clear diagonal, which it keeps, with row starts and the rank
        directory its kernel walks search, both summed from the rows'
        popcounts: (n, ceil(n/64)) int32, entry [v, i] the set bits of
        words 0..i-1 of row v.  Its edges are half its row starts' total."""
        counts = np.bitwise_count(rows)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts.sum(axis=1, dtype=np.int64), out=indptr[1:])
        ranks = np.cumsum(counts, axis=1, dtype=np.int32)
        ranks -= counts
        g = cls.__new__(cls)
        g._keep(len(rows), indptr, None, rows, ranks)
        return g

    def _keep(self, n, indptr, keys, rows, ranks=None) -> None:
        self.n, self.indptr, self.edge_count = n, indptr, int(indptr[-1]) // 2
        self._indices, self._edge_codes, self._rows, self._ranks = None, keys, rows, ranks
        for a in (indptr, keys, rows, ranks):
            if a is not None:
                a.setflags(write=False)

    @property
    def indices(self) -> np.ndarray:
        """int32 neighbour ids, each row's ascending, in CSR layout
        (read-only), read out on first use: by the numpy sort of both arcs
        of every edge from the keys of a graph built from them, or as the
        set bits of each row of a graph built from rows."""
        if self._indices is None:
            indices = np.empty(2 * self.edge_count, dtype=np.int32)
            keys, n = self._edge_codes, self.n
            if keys is not None:
                # arcs u -> v packed as u * n + v, both directions, in CSR order
                arcs = np.concatenate([keys, keys % n * n + keys // n])
                arcs.sort()
                indices[:] = arcs % n
            else:
                width = 64 * self._rows.shape[1]  # a row's bits in _row_bits
                starts = np.repeat(np.arange(n) * width, np.diff(self.indptr))
                np.subtract(np.flatnonzero(_row_bits(self._rows)), starts, out=indices,
                            casting="unsafe")
            indices.setflags(write=False)
            self._indices = indices
        return self._indices

    def degree(self, v: int) -> int:
        v = _vertex(self, v)
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted int32 neighbor ids of v (read-only): a view of
        ``indices``, or, where a graph built from rows has not read them
        out, the set bits of row v alone."""
        v = _vertex(self, v)
        if self._indices is None and self._rows is not None:
            row = np.flatnonzero(_row_bits(self._rows[v:v + 1])).astype(np.int32)
            row.setflags(write=False)
            return row
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def __len__(self) -> int:
        return self.edge_count

    def __contains__(self, edge) -> bool:
        return self.has_edge(*edge)

    def issubset(self, other: Graph) -> bool:
        """Whether every edge of this graph is an edge of ``other``, by
        ``other.has_edges`` over this graph's edge array; ValueError for
        graphs on different vertex counts."""
        if other.n != self.n:
            raise ValueError(f"edge sets on {self.n} and {other.n} vertices are not comparable")
        return bool(other.has_edges(*self.edge_array().T).all())

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(u, v))

    def has_edges(self, us, vs) -> np.ndarray:
        """Elementwise ``has_edge``: a key lookup on a graph's kept keys,
        a bit test on the rows of a graph built from rows.  A pair outside
        0..n-1 is no edge; an endpoint that is not an integer raises
        ValueError."""
        n = self.n
        us, vs = _integers(us, "edge endpoints"), _integers(vs, "edge endpoints")
        if self._edge_codes is not None:
            return _inside(n, us, vs) & np.isin(_pack(n, us, vs), self._edge_codes)
        return _bits_set(self.bit_rows(), n, us, vs)

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        return _unpack(self.n, self.edge_codes())

    def edge_codes(self) -> np.ndarray:
        """Edges packed as u * n + v with u < v, sorted (read-only): the
        kept keys, or a dense graph's read out of its rows."""
        if self._edge_codes is not None:
            return self._edge_codes
        keys = _row_keys(self.n, self._rows)
        keys.setflags(write=False)
        return keys

    def bit_rows(self) -> np.ndarray:
        """(n, ceil(n/64)) uint64 adjacency rows (read-only): neighbour u
        of v sets bit u % 64 of word u // 64 of row v.  Packed once: kept
        from construction where it made them, else marked on first call."""
        if self._rows is None:
            self._rows = _mark_rows(self.n, *_key_endpoints(self.n, self._edge_codes))
            self._rows.setflags(write=False)
        return self._rows

    def adjacency_dense(self) -> np.ndarray:
        """Dense float64 adjacency matrix, unpacked from ``bit_rows()``, so
        no ``indices`` are read out; intended for n at desk scale only."""
        return _row_bits(self.bit_rows())[:, :self.n].astype(np.float64)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _key_endpoints(n: int, keys: np.ndarray):
    """(u, v) of each key u * n + v; ValueError names the first key out of
    order or not u*n+v, u < v."""
    u, v = np.divmod(keys, max(n, 1))
    bad = (keys < 0) | (u >= v)
    bad[1:] |= keys[1:] <= keys[:-1]
    if bad.any():
        j = int(bad.argmax())
        k = int(keys[j])
        if j and k <= keys[j - 1]:
            raise ValueError(f"edge keys must be strictly ascending: key {k} at "
                             f"position {j} follows {int(keys[j - 1])}")
        raise ValueError(f"edge key {k} at position {j} is not u*{n}+v "
                         f"with 0 <= u < v < {n}")
    return u, v


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
        return cls(n, frozenset(_int64s(list(ids), "vertex ids").tolist()))

    @classmethod
    def from_mask(cls, n: int, mask: np.ndarray) -> "VertexSet":
        return cls(n, frozenset(np.flatnonzero(mask).tolist()))

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

    Rejects self-loops and out-of-range endpoints (``_pairs_graph``).
    """
    n = _vertex_count(n)
    pairs = _integers(edges if isinstance(edges, np.ndarray) else list(edges),
                      "edge endpoints")
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be pairs of vertex ids")
    return _pairs_graph(n, len(pairs), [(pairs[:, 0], pairs[:, 1])])


def edges_between(g: Graph, a: VertexSet, b: VertexSet) -> int:
    """Ordered-pair edge count e(A, B) = |{(a, b) in A x B : ab in E}|.

    Counts ordered pairs, so an edge with both endpoints in the
    intersection contributes 2.
    """
    if a.n != g.n or b.n != g.n:
        raise ValueError("vertex sets must live on the graph's vertex range")
    return int(neighbour_counts(g, b.bool_mask()[None], a.bool_mask()[None]).sum())


def neighbour_counts(g: Graph, sets, among=None) -> np.ndarray:
    """(k, n) int64 counts: entry [t, v] is |N(v) & sets[t]| for v in
    ``among[t]``, and 0 for the other v.

    ``sets`` and ``among`` are (k, n) bool arrays; ``among=None`` counts at
    every v.  Each count is the popcount of v's bit row and the set's
    words, so e(A, B) is ``neighbour_counts(g, B, A).sum(axis=1)``, exact.
    """
    sets = np.ascontiguousarray(sets, dtype=bool)
    if sets.ndim != 2 or sets.shape[1] != g.n:
        raise ValueError(f"sets must be a (k, {g.n}) bool array, got shape {sets.shape}")
    if among is not None:
        among = np.ascontiguousarray(among, dtype=bool)
        if among.shape != sets.shape:
            raise ValueError(f"among must have the shape {sets.shape} of sets, "
                             f"got {among.shape}")
    rows = g.bit_rows()
    k, (n, w) = len(sets), rows.shape
    packed = np.zeros((k, 8 * w), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(sets, axis=1, bitorder="little")
    words = packed.view("<u8").astype(np.uint64, copy=False)  # member u: bit u % 64
    out = np.zeros((k, n), dtype=np.int64)
    for t in range(k):
        at = slice(None) if among is None else np.flatnonzero(among[t])
        out[t, at] = np.bitwise_count(rows[at] & words[t]).sum(axis=1)
    return out


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


# G(n, p) up to this n is drawn on one thread: on a 2-CPU host a second
# thread made n = 128 slower (median 59 us against 39 us) and n = 256 about
# even (108 us against 118 us), while n = 512 took 266 us against 395 us
_GNP_ONE_THREAD = 256


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p): each pair present independently with probability p.

    The draw for pair (u, v), u < v, is word v-u-1 of the stream keyed
    (seed, GNP domain, u), so the pair stream is replayable per row; the
    pair is an edge when the word's double is below p.

    With the C kernel, for a seed it takes (``rng._kernel``), and under
    the table rule for the expected p n(n-1)/2 edges, so that n bit rows
    take no more bytes than the int64 keys they are expected to hold, one
    call draws every pair and sets both its bits in the rows, which the
    graph keeps and reads out (``Graph._from_rows``); no key is made.
    That call builds the rows on as many threads as the process may use
    CPUs, or on one where n <= ``_GNP_ONE_THREAD``; the rows do not depend
    on how many.  Otherwise each row is drawn with ``uniform_words``, the
    reference.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    seed = _checked_seed(seed)
    n = _vertex_count(n)
    lib = _kernel(seed, DOMAIN_GNP) if _table_fits(n, p * n * (n - 1) / 2) else None
    if lib is not None:
        rows = _clear_rows(n)
        threads = 1 if n <= _GNP_ONE_THREAD else _cpus()
        lib.qw_gnp(seed, DOMAIN_GNP, n, p, rows.ctypes.data, threads)
        return Graph._from_rows(rows)
    rows = [np.empty(0, dtype=np.int64)]  # keys of row u are u*n + u+1 .. u*n + n-1
    for u in range(n - 1):
        draws = uniform_words(seed, DOMAIN_GNP, u, 0, n - u - 1) < p
        rows.append(np.flatnonzero(draws) + (u * n + u + 1))
    return Graph(n, np.concatenate(rows))


def _clique_rows(n: int, cliques) -> np.ndarray:
    """n bit rows in which each range (lo, hi) of ``cliques`` is a clique:
    one row holding bits lo..hi-1 is packed, broadcast over rows lo..hi-1,
    and their diagonal bits cleared, so no pair is made."""
    rows = _clear_rows(_vertex_count(n))
    for lo, hi in cliques:
        members = np.zeros(64 * rows.shape[1], dtype=bool)
        members[lo:hi] = True
        rows[lo:hi] = np.packbits(members, bitorder="little").view("<u8")
        v = np.arange(lo, hi)
        rows[v, v // 64] ^= np.uint64(1) << (v % 64).astype(np.uint64)
    return rows


def gen_complete(n: int) -> Graph:
    """K_n from its bit rows (``_clique_rows``), where row v holds every
    u != v."""
    return Graph._from_rows(_clique_rows(n, [(0, n)]))


def small_clique_size(n: int, eps: float) -> int:
    """Order ceil(eps^2 * n / 2) of the two-clique host's small side;
    ValueError when that is not finite."""
    # round before the ceiling so 0.2**2 * 100 / 2 counts as exactly 2
    size = round(eps * eps * n / 2, 9)
    if not math.isfinite(size):
        raise ValueError(f"two-clique eps={eps} gives no finite clique size on n={n}")
    return math.ceil(size)


def gen_two_clique_bridge(n: int, eps: float) -> Graph:
    """Two disjoint cliques joined by a single edge, from their bit rows
    (``_clique_rows``).

    The small clique has ceil(eps^2 * n / 2) vertices 0 .. s-1, the large
    clique the rest; the bridge joins the lowest-id vertex of each.
    """
    s = small_clique_size(n, eps)
    if s < 2:
        raise ValueError(f"small clique would have {s} < 2 vertices")
    if n - s < 2:
        raise ValueError("large clique needs at least 2 vertices")
    rows = _clique_rows(n, [(0, s), (s, n)])
    rows[0, s // 64] |= np.uint64(1) << np.uint64(s % 64)
    rows[s, 0] |= np.uint64(1)
    return Graph._from_rows(rows)


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
    return components <= 1, bool((np.repeat(color, g.degrees) != color[g.indices]).all())


def save_graph(g: Graph, path: str) -> None:
    """Plain text: first line "n m", then one "u v" line per edge, u < v."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.edge_count}\n")
        _write_pairs(fh, g.edge_array())


def _write_pairs(fh, pairs: np.ndarray) -> None:
    """One "a b" line per row of the (m, 2) integer array ``pairs``, in one
    format over the flat ids: 0.2 s for the 1M edges of G(2000, 1/2),
    against 1.3 s for a write per line."""
    fh.write("%d %d\n" * len(pairs) % tuple(pairs.ravel().tolist()))


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
    """Load the text format written by save_graph; violations name the line,
    and a repeated edge also the earlier line it repeats."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ValueError(f"{path}:1: missing header line 'n m'")
    head = lines[0].split()
    if len(head) != 2 or not all(t.isdecimal() for t in head):
        raise ValueError(f"{path}:1: header must be 'n m' with non-negative "
                         f"integers, got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    try:
        n = _vertex_count(n)
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"{path}:1: header promises {m} edges, found {len(lines) - 1}")
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
    # a stable sort puts each line after the earlier lines of its edge, so
    # the first repeat in the file follows the edge's first line
    keys = edges[:, 0] * n + edges[:, 1]
    order = np.argsort(keys, kind="stable")
    repeats = keys[order[1:]] == keys[order[:-1]]
    if repeats.any():
        later, earlier = order[1:][repeats], order[:-1][repeats]
        j = later.argmin()
        u, v = edges[later[j]]
        raise ValueError(f"{path}:{later[j] + 2}: edge {u} {v} repeats line {earlier[j] + 2}")
    try:
        return build_graph(n, edges)
    except MemoryError:  # indptr alone takes 8 (n + 1) bytes
        raise ValueError(f"{path}:1: vertex count {n} needs more memory than there is") from None
