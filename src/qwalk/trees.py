"""Rooted trees, random homomorphisms into a host graph, and the
decomposition of a tree into edge-disjoint rooted pieces.

Trees are stored as a parent array in prefix-connected enumeration
order: every prefix of the vertex list spans a connected subtree
containing the root.  A random homomorphism maps the root to a chosen
host vertex and each later vertex to the next unused list entry of its
parent's image, through ``ListModel.consume``, the loop that also drives
walks.  A path tree therefore reproduces a walk exactly, seed for seed.
Where an image's edges go into bit rows (``graph._rows_fit``) and the
kernel serves the model, the kernel call that embeds the tree also marks
its edges in rows, which ``image_subgraph`` hands to the ``Graph``, as
``walks.walk_edges`` does for a walk.  Otherwise, and for the edge check
and the visit counts, which ``walks.sandwich_bounds`` reads for an image
as for a walk, an image's edges are gathered a block of tree edges at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, _integers, _pairs_graph, _rows_fit, _write_pairs, read_text
from .rng import DOMAIN_TREE_GEN, _integer, uniform_words
from .walks import _BLOCK, ListModel, _check_model, _count_ids, _tree_size


class RootedTree:
    """Rooted tree as an int32 parent array; parents[0] is -1 for the
    root.  A tree has at most 2^31 vertices (``_tree_size``)."""

    __slots__ = ("parents", "_children", "_graph_degrees")

    def __init__(self, parents: np.ndarray):
        self.parents = parents
        self._children = None
        self._graph_degrees = None
        parents.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.parents)

    @property
    def n_edges(self) -> int:
        return len(self.parents) - 1

    def children(self) -> list[list[int]]:
        """Child lists in ascending vertex order (cached)."""
        if self._children is None:
            kids = [[] for _ in range(self.size)]
            for j, p in enumerate(self.parents[1:].tolist(), start=1):
                kids[p].append(j)
            self._children = kids
        return self._children

    @property
    def graph_degrees(self) -> np.ndarray:
        """Degree of each vertex in the tree seen as a graph."""
        if self._graph_degrees is None:
            deg = np.zeros(self.size, dtype=np.int64)
            if self.size > 1:
                np.add.at(deg, self.parents[1:], 1)
                deg[1:] += 1
            self._graph_degrees = deg
        return self._graph_degrees

    @property
    def max_degree(self) -> int:
        return int(self.graph_degrees.max()) if self.size else 0

    def depths(self) -> np.ndarray:
        d = np.zeros(self.size, dtype=np.int64)
        for j in range(1, self.size):
            d[j] = d[self.parents[j]] + 1
        return d

    def __repr__(self) -> str:
        return f"RootedTree(size={self.size})"


def build_tree(parents) -> RootedTree:
    """Validate a parent array: parents[j] must index an earlier vertex.

    The root slot accepts -1 or None.  Parents are integers: ValueError
    names a float, bool, string or value outside int64 (``_integers``).
    """
    arr = _integers([-1 if p is None else p for p in parents], "parents")
    if len(arr) == 0:
        raise ValueError("a tree has at least its root")
    if arr[0] != -1:
        raise ValueError("parents[0] must be None or -1 for the root")
    idx = np.arange(len(arr))
    bad = np.nonzero((arr[1:] < 0) | (arr[1:] >= idx[1:]))[0]
    if len(bad):
        j = int(bad[0]) + 1
        raise ValueError(
            f"parent of vertex {j} is {int(arr[j])}; must be an earlier vertex")
    _tree_size(len(arr))
    return RootedTree(arr.astype(np.int32))


def gen_path_tree(length: int) -> RootedTree:
    """Path with ``length`` edges rooted at one end, the tree of a walk."""
    length = _integer(length, "length")
    if length < 0:
        raise ValueError(f"a path takes a non-negative number of edges, got {length}")
    parents = np.arange(-1, _tree_size(length + 1) - 1, dtype=np.int32)
    return RootedTree(parents)


def gen_nary_tree(branching: int, depth: int) -> RootedTree:
    """Complete b-ary tree: every vertex above ``depth`` has b children."""
    branching, depth = _integer(branching, "branching"), _integer(depth, "depth")
    if branching < 1 or depth < 0:
        raise ValueError("branching must be >= 1 and depth >= 0")
    sizes, total = [1], 1  # vertices per level, and in the tree
    for _ in range(depth):
        sizes.append(sizes[-1] * branching)
        total = _tree_size(total + sizes[-1])
    parents, start = np.full(total, -1, dtype=np.int32), 0
    for size in sizes[:-1]:  # a level's vertices, b times each, parent the next level
        parents[start + size:start + size * (1 + branching)].reshape(size, branching)[:] = \
            np.arange(start, start + size, dtype=np.int32)[:, None]
        start += size
    return RootedTree(parents)


def gen_random_tree(n_vertices: int, max_deg: int, seed: int) -> RootedTree:
    """Random increasing tree with graph degree capped at max_deg.

    Vertex j attaches to a uniform choice among earlier vertices that
    still have degree budget.  Requires max_deg >= 2, which guarantees a
    vertex with spare capacity always exists.
    """
    n_vertices, max_deg = _integer(n_vertices, "n_vertices"), _integer(max_deg, "max_deg")
    if max_deg < 2:
        raise ValueError("max_deg must be at least 2")
    if n_vertices < 1:
        raise ValueError("need at least the root")
    parents = np.empty(_tree_size(n_vertices), dtype=np.int32)
    parents[0] = -1
    eligible = [0]          # vertices with degree < max_deg, swap-removed
    degree = [0] * n_vertices
    u = uniform_words(seed, DOMAIN_TREE_GEN, 0, 0, max(n_vertices - 1, 1))
    for j in range(1, n_vertices):
        pick = int(u[j - 1] * len(eligible))
        p = eligible[pick]
        parents[j] = p
        degree[p] += 1
        degree[j] = 1
        if degree[p] == max_deg:
            # only the picked vertex can fill up, so swap-remove in place
            eligible[pick] = eligible[-1]
            eligible.pop()
        eligible.append(j)
    return RootedTree(parents)


@dataclass
class TreeHomomorphism:
    """An edge-preserving map of a rooted tree into a host graph.

    ``_rows``, which ``==`` and ``repr`` ignore, are the symmetric bit rows
    of the image's edges where the kernel marked them as it embedded the
    tree (``random_homomorphism``), else None.  The image they were marked
    from is read-only, so they describe no other image."""

    tree: RootedTree
    host: Graph
    image: np.ndarray
    _rows: np.ndarray | None = field(default=None, compare=False, repr=False)

    def is_edge_preserving(self) -> bool:
        return all(self.host.has_edges(us, vs).all() for us, vs in _edge_blocks(self))

    @property
    def visit_counts(self) -> np.ndarray:
        """visits(x) = number of tree edges whose parent endpoint maps to x."""
        return _count_ids((us for us, _ in _edge_blocks(self)), self.host.n)


def _edge_blocks(h: TreeHomomorphism):
    """The images (parent's, child's) of the tree's edges, gathered
    ``_BLOCK`` edges at a time, so that no whole-tree temporary is made."""
    heads, image = h.tree.parents[1:], h.image
    for i in range(0, len(heads), _BLOCK):
        yield image[heads[i:i + _BLOCK]], image[1 + i:1 + i + _BLOCK]


def random_homomorphism(g: Graph, t: RootedTree, model: ListModel,
                        root_image: int) -> TreeHomomorphism:
    """Map each vertex to the next unused list entry of its parent's image.

    Vertices are processed in enumeration order, so a path tree consumes
    entries exactly as run_walk does and yields the identical sequence.
    The image is read-only.  Where its edges go into bit rows
    (``graph._rows_fit``) and the kernel serves the model, the kernel call
    that embeds the tree marks them in rows, kept for ``image_subgraph``.
    """
    _check_model(g, model)
    image, rows = model._consume(t.parents[1:], root_image, _rows_fit(g.n, t.n_edges))
    image.setflags(write=False)
    return TreeHomomorphism(tree=t, host=g, image=image, _rows=rows)


def tree_visit_counts(h: TreeHomomorphism) -> np.ndarray:
    """``h.visit_counts``, per host vertex."""
    return h.visit_counts


def image_subgraph(h: TreeHomomorphism) -> Graph:
    """Host edges in the image of the tree, deduplicated, as a Graph: the
    rows the kernel marked as it embedded the tree, with no kernel call,
    or else, as for a hand-built homomorphism, the graph
    ``graph._pairs_graph`` builds from ``_edge_blocks``, the reference."""
    if h._rows is not None:
        return Graph._from_rows(h._rows)
    return _pairs_graph(h.host.n, h.tree.n_edges, _edge_blocks(h))


@dataclass
class TreeDecomposition:
    """Edge-disjoint rooted pieces covering a tree, sizes in [L, 3L]."""

    tree: RootedTree
    L: int
    pieces: list  # (root vertex, list of (parent, child) edges)


def decompose_tree(t: RootedTree, L: int) -> TreeDecomposition:
    """Split a rooted tree into edge-disjoint rooted subtrees of size
    between L and 3L.

    One pass visits the vertices deepest first, ties by smallest index.
    While at least L edges remain below the visited vertex v, a piece
    rooted at v takes whole branches below v in ascending child order
    until it holds at least L edges; every branch was left with at most
    L edges when its top was visited, so the piece stops below 2L.  A
    vertex's remaining edges fall only through pieces at or below it, so
    this is the order in which repeatedly cutting at the deepest vertex
    with at least L edges below it takes its pieces.  When fewer than L
    edges remain at the root they are merged into the last piece, which
    is re-rooted at the tree root (the remainder always contains it),
    keeping every size within [L, 3L].
    """
    L = _integer(L, "L")
    if L < 1:
        raise ValueError("L must be positive")
    if L > t.n_edges:
        raise ValueError(f"L={L} exceeds the tree's {t.n_edges} edges")
    children = t.children()
    below = [0] * t.size    # edges left below a visited vertex
    first = [0] * t.size    # children[v][first[v]:] are not yet cut off
    pieces = []

    def subtree_edges(top: int) -> list:
        """(parent, child) edges left below ``top``, depth first: a
        vertex's child edges in descending child order, then the
        subtree of its smallest child first."""
        out = []
        stack = [top]
        while stack:
            v = stack.pop()
            for c in reversed(children[v][first[v]:]):
                out.append((v, c))
                stack.append(c)
        return out

    for v in np.argsort(-t.depths(), kind="stable").tolist():
        kids = children[v]
        left = sum(below[c] + 1 for c in kids)
        while left >= L:
            got = []
            while len(got) < L:
                c = kids[first[v]]
                first[v] += 1
                got.append((v, c))
                got.extend(subtree_edges(c))
            left -= len(got)
            pieces.append((v, got))
        below[v] = left
    if below[0]:
        _, last_edges = pieces[-1]
        pieces[-1] = (0, last_edges + subtree_edges(0))
    return TreeDecomposition(tree=t, L=L, pieces=pieces)


def save_tree(t: RootedTree, path: str) -> None:
    """Text format: first line the vertex count, then "j parent(j)" lines."""
    with open(path, "w") as fh:
        fh.write(f"{t.size}\n")
        _write_pairs(fh, np.column_stack((np.arange(1, t.size), t.parents[1:])))


def load_tree(path: str) -> RootedTree:
    """Read the format of save_tree; violations name the line."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ValueError(f"{path}:1: missing vertex count")
    if not lines[0].strip().isdecimal() or int(lines[0]) < 1:
        raise ValueError(f"{path}:1: vertex count must be a positive integer, "
                         f"got {lines[0]!r}")
    size = int(lines[0])
    # s - 1 edge lines, each filling a distinct vertex or failing, so
    # every vertex has its line once this holds and no line fails
    if size > len(lines):
        raise ValueError(f"{path}:1: vertex count {size} needs {size - 1} edge lines, "
                         f"found {len(lines) - 1}")
    parents = [-1] + [None] * (size - 1)
    for i, line in enumerate(lines[1:], start=2):
        toks = line.split()
        if len(toks) != 2 or not all(t.removeprefix("-").isdecimal() for t in toks):
            raise ValueError(f"{path}:{i}: expected 'j parent', got {line!r}")
        j, p = int(toks[0]), int(toks[1])
        if not 1 <= j < size:
            raise ValueError(f"{path}:{i}: vertex {j} outside 1..{size - 1}")
        if parents[j] is not None:
            raise ValueError(f"{path}:{i}: vertex {j} listed twice")
        if not 0 <= p < j:
            raise ValueError(f"{path}:{i}: parent of vertex {j} is {p}; "
                             f"must be an earlier vertex")
        parents[j] = p
    return build_tree(parents)


def save_homomorphism(h: TreeHomomorphism, path: str) -> None:
    """One "j image(j)" line per tree vertex."""
    with open(path, "w") as fh:
        _write_pairs(fh, np.column_stack((np.arange(len(h.image)), h.image)))
