"""Per-vertex list model, coupled random walks, and visit statistics.

Each vertex v owns an infinite virtual list of uniform neighbor choices;
entry j is a pure function of (model seed, v, j).  A walk leaving v for
the j-th time takes entry j, so a walk and the prefix subgraphs built
from the same seed realize one coupled experiment: the traversed
subgraph is sandwiched between two prefix subgraphs exactly.

Walks and tree embeddings are one operation, ``ListModel.consume``:
each new vertex maps to the next unused entry of the list of its
parent's image, and a walk is the path tree.  It runs in the C kernel
of ``rng`` when that loads, and in a Python loop over numpy-drawn
buffers otherwise; both take the same entries, bit for bit.

``walk_edges`` gives a walk's edges alone, the graph ``walk_subgraph``
builds from its trace, and never holds the trace whole: where the edges
go into bit rows, the kernel marks each step's edge as it walks, and
otherwise it hands ``graph._pairs_graph`` the walk a block of steps at a
time.

A "visit" is a departure: visit counts run over walk positions
0 .. steps-1, one list entry consumed per visit, so counts sum to the
number of steps and the terminal vertex consumes nothing: they are a
fresh model's ``consumed``, for a walk as for a tree image.

Walks are inherently sequential; independent trials parallelize over
derived seeds and all aggregation here is order-independent.
"""

from __future__ import annotations

import gzip
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import rng
from .graph import (Graph, VertexSet, _clear_rows, _integers, _pairs_graph, _rows_fit,
                    _vertex, balanced_vertices, density, read_text)
from .rng import (DOMAIN_LIST, DOMAIN_STEP_LAW, _checked_seed, _integer, _kernel, stream,
                  uniform_words)

_CHUNK = 2048
# The shortest walk that the kernel's helper thread serves.  In process on
# G(2000, 1/2), medians of 21 alternating walk_edges calls: 2e4 steps took
# 1.34 ms with the helper against 1.10 ms without, 1e5 steps 2.38 ms
# against 2.38 ms, and 2^18 steps 3.58 ms against 4.24 ms (BENCH_42.json).
_AHEAD_STEPS = 1 << 18
_BLOCK = 1 << 16  # ids per block where a whole-array temporary would outweigh them


def _count_ids(blocks, n: int) -> np.ndarray:
    """How often each vertex id 0..n-1 occurs in ``blocks``, an iterable of
    id arrays, a block at a time: bincount first casts its whole input to
    int64, which would triple the bytes of an int32 walk or tree image."""
    counts = np.zeros(n, dtype=np.int64)
    for ids in blocks:
        counts += np.bincount(ids, minlength=n)
    return counts


def _ahead_words(n: int) -> int:
    """The uint64 words of the work of ``qw_consume``'s helper on n
    vertices: a header line, a ring of 4096 two-word requests, and a
    64-byte tag line and four 64-byte chunks a vertex."""
    return 16 + 2 * 4096 + 40 * n


def _tree_size(size: int) -> int:
    """``size`` when a tree of that many vertices has ids that fit int32
    parents, at most 2^31; ValueError otherwise, before any allocation."""
    if size > 2**31:
        raise ValueError(f"a tree of {size} vertices has ids past int32")
    return size


class ListModel:
    """Seeded per-vertex streams of uniform neighbor choices.

    ``entry``/``entries`` replay list values without touching the
    consumption state.  ``consume`` is the one operation that takes
    entries in order; walks, tree embeddings and ``next_entry`` all go
    through it, so any mix of them continues the same lists.

    Vertex ids are int32: the kernel reads int32 parents and writes an
    int32 image, and the numpy reference returns the same dtype.

    The backend is chosen at construction.  With the C kernel of
    ``rng``, for a seed it takes, a vertex keeps its Philox key, a 64-byte
    chunk of its next entries (32 uint16 ids on a host of at most 2^16
    vertices, else 16 int32 ids), its next entry and its count of entries
    taken, 92 bytes in all, and the kernel makes each chunk in place,
    whole, when the count reaches a multiple of its size.  On a host
    built from bit rows an entry is the set bit of its rank in a row word
    found in the host's rank directory, so no ``indices`` are read out;
    on any other host it is read from the host's int32 ``indices``.
    Otherwise, the numpy reference draws a vertex's next ``_CHUNK`` words
    per refill with ``uniform_words``, as ``entries`` replays them;
    buffered entries are the model's own n vertex-id objects, shared by
    every buffer, so a refill allocates one list of references and no new
    int per word.  Both give the same entries.
    """

    def __init__(self, graph: Graph, seed: int):
        self.graph = graph
        self.seed = _checked_seed(seed)
        self._lib = _kernel(self.seed, DOMAIN_LIST)
        if self._lib is not None:
            self._taken = np.zeros(graph.n, dtype=np.int64)     # entries taken per vertex
            # each vertex's key and 64-byte chunk, then the int32 next entries
            self._state = np.zeros(10 * graph.n + -(-graph.n // 2), dtype=np.uint64)
            return
        self._ids = np.arange(graph.n).astype(object)  # one int per vertex
        self._drawn = np.zeros(graph.n, dtype=np.int64)  # list words drawn per vertex
        self._iters = [None] * graph.n  # buffered unconsumed entries

    @property
    def consumed(self) -> np.ndarray:
        """Entries taken from each list so far (a copy)."""
        if self._lib is not None:
            return self._taken.copy()
        return self._drawn - np.fromiter(map(operator.length_hint, self._iters),
                                         dtype=np.int64, count=self.graph.n)

    def entry(self, v: int, j: int) -> int:
        """The j-th (1-indexed) list entry of v, replayed statelessly."""
        if j < 1:
            raise ValueError("list entries are 1-indexed")
        return int(self.entries(v, j)[-1])

    def entries(self, v: int, count: int) -> np.ndarray:
        """Entries 1 .. count of the list of v, replayed statelessly."""
        return self._entries(_vertex(self.graph, v), 0, count)

    def _entries(self, v: int, start: int, count: int) -> np.ndarray:
        """Entries start+1 .. start+count of the list of v, from the words
        ``uniform_words`` draws."""
        d = self.graph.degree(v)
        if d == 0 and count:
            raise ValueError(f"vertex {v} has no neighbors")
        u = uniform_words(self.seed, DOMAIN_LIST, v, start, count)
        return self.graph.neighbors(v)[(u * d).astype(np.int64)]

    def _refill(self, v: int):
        buf = self._entries(v, int(self._drawn[v]), _CHUNK)
        self._drawn[v] += _CHUNK
        it = self._iters[v] = iter(self._ids[buf].tolist())
        return it

    def consume(self, parents, root: int) -> np.ndarray:
        """Image of a tree given by ``parents``: image[0] = root, and
        image[j+1] is the next unused entry of the list of
        image[parents[j]], for j in order.

        ``parents`` is a 1-d sequence of integers with parents[j] in 0..j;
        an int32 array passes to the kernel without a copy, and a walk
        passes ``range(steps)``, which no array stands for.  A root
        outside the host, parents that are not integers (``_integers``:
        floats and bools are refused) or not 1-d, or a parent outside its
        range raises ValueError before any entry is taken.
        """
        return self._consume(parents, root, False)[0]

    def _consume(self, parents, root: int, mark: bool):
        """(image, rows): ``consume(parents, root)``, and for a tree given
        by an array of parents with ``mark``, where the kernel serves this
        model, the symmetric bit rows of the image's edges, which the same
        kernel call marks as it takes their entries; else None.  A walk's
        rows are ``_walk_rows``'."""
        root = _vertex(self.graph, root)
        if isinstance(parents, range) and parents.start == 0 and parents.step == 1:
            m, parents = len(parents), None  # a walk: parents[j] = j
        else:
            parents = _integers(parents, "parents")
            if parents.ndim != 1:
                raise ValueError(f"parents must be a 1-d sequence, got {parents.ndim} dimensions")
            m = _tree_size(len(parents) + 1) - 1
            for i in range(0, m, _BLOCK):  # temporaries of a block, not of the tree
                block, at = parents[i:i + _BLOCK], np.arange(i, min(i + _BLOCK, m), dtype=np.int32)
                bad = at[(block < 0) | (block > at)]
                if len(bad):
                    j = int(bad[0])
                    raise ValueError(f"parents[{j}] is {parents[j]}; it must lie in 0..{j}")
            parents = np.ascontiguousarray(parents, dtype=np.int32)
        # before any entry is taken, so that an image too large for memory
        # fails at once on both backends
        image = np.empty(m + 1, dtype=np.int32)
        image[0] = root
        if self._lib is None:
            return self._consume_numpy(parents, image), None
        rows = _clear_rows(self.graph.n) if mark else None
        done = self._consume_kernel(parents, m, image, rows)
        if done < m:  # the list's vertex at position done has no neighbors
            p = done if parents is None else parents[done]
            raise ValueError(f"vertex {image[p]} has no neighbors")
        return image, rows

    def _consume_kernel(self, parents, m: int, image: np.ndarray, marks=None) -> int:
        """``qw_consume`` of m entries from image[0]: the entries it took,
        m or the position of a vertex without neighbors.  A walk of at
        least ``_AHEAD_STEPS`` steps, in a process that may use 2 CPUs or
        more, runs with the kernel's helper thread, which fills the walk's
        chunks ahead, where its work (``_ahead_words``, 320 bytes a vertex)
        takes no more bytes than the host's neighbour storage."""
        g = self.graph
        lists = (g.indices, None, None) if g._ranks is None else \
            (None, g.bit_rows(), g._ranks)
        work = None
        if parents is None and m >= _AHEAD_STEPS and rng._cpus() > 1 and \
                8 * _ahead_words(g.n) <= sum(a.nbytes for a in lists if a is not None):
            work = np.zeros(_ahead_words(g.n), dtype=np.uint64)
        return self._lib.qw_consume(
            self.seed, DOMAIN_LIST, g.n, g.indptr.ctypes.data,
            *(None if a is None else a.ctypes.data for a in lists),
            self._state.ctypes.data, self._taken.ctypes.data,
            None if parents is None else parents.ctypes.data, m, image.ctypes.data,
            None if marks is None else marks.ctypes.data, 1 if work is None else 2,
            None if work is None else work.ctypes.data)

    def _walk_rows(self, start: int, steps: int):
        """The symmetric bit rows of the edges that a walk of ``steps``
        steps from ``start`` traverses, marked by the kernel in one call as
        it walks, with no step held; None where the kernel does not serve
        this model.  The lists are taken as ``consume(range(steps), start)``
        takes them, and a start without neighbors raises its ValueError."""
        if self._lib is None:
            return None
        rows = _clear_rows(self.graph.n)
        if self._consume_kernel(None, steps, np.array([start], dtype=np.int32), rows) < steps:
            # every vertex after the start ends an edge, so only it can stop a walk
            raise ValueError(f"vertex {start} has no neighbors")
        return rows

    def _consume_numpy(self, parents, image: np.ndarray) -> np.ndarray:
        iters = self._iters
        img = [int(image[0])]  # python ints keep the hot loop cheap
        push = img.append
        for p in range(len(image) - 1) if parents is None else parents.tolist():
            x = img[p]
            try:
                push(next(iters[x]))
            except (StopIteration, TypeError):
                push(next(self._refill(x)))
        image[:] = img
        return image

    def next_entry(self, v: int) -> int:
        """Consume and return the next unused entry of the list of v."""
        return int(self.consume(range(1), v)[1])


@dataclass
class WalkTrace:
    """A realized walk: sequence W_0 .. W_l plus departure counts."""

    graph: Graph
    start: int
    steps: int
    sequence: np.ndarray

    @property
    def visit_counts(self) -> np.ndarray:
        """X_v = number of departures from v (positions 0 .. steps-1)."""
        seq = self.sequence[:-1]
        return _count_ids(np.split(seq, range(_BLOCK, len(seq), _BLOCK)), self.graph.n)


@dataclass(frozen=True)
class Distribution:
    """Probabilities over the vertices of a graph, summing to 1."""

    probs: np.ndarray

    def __post_init__(self):
        if not (self.probs >= 0).all():  # NaN compares False too
            raise ValueError("probability entries must be non-negative numbers")
        if abs(float(self.probs.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")

    @classmethod
    def point_mass(cls, n: int, v: int) -> "Distribution":
        p = np.zeros(n)
        p[v] = 1.0
        return cls(p)

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "Distribution":
        total = counts.sum()
        if total <= 0:
            raise ValueError("empty counts")
        return cls(counts / total)


def stationary(g: Graph) -> Distribution:
    """pi_v = d(v) / 2e(G), the walk's equilibrium law."""
    if g.edge_count == 0:
        raise ValueError("stationary distribution undefined on an edgeless graph")
    return Distribution(g.degrees / (2.0 * g.edge_count))


def balanced_start(g: Graph, eps: float) -> int:
    """Lowest-id vertex with degree within eps*n of rho*n."""
    profile = balanced_vertices(g, eps)
    if not profile.balanced.members:
        raise ValueError("graph has no balanced vertex at this eps")
    return min(profile.balanced.members)


def run_walk(g: Graph, model: ListModel, start: int, steps: int) -> WalkTrace:
    """Walk ``steps`` edges from ``start``, consuming the model's lists.

    Step i+1 takes the next unused entry of the current vertex's list,
    so repeated runs against one model continue its streams while a
    fresh model with the same seed reproduces the trace exactly.
    """
    start, steps = _walk_args(g, model, start, steps)
    sequence = model.consume(range(steps), start)
    if g.degree(start) == 0:
        raise ValueError(f"start vertex {start} has no neighbors")
    return WalkTrace(graph=g, start=start, steps=steps, sequence=sequence)


def walk_edges(g: Graph, model: ListModel, start: int, steps: int) -> Graph:
    """The edges a walk of ``steps`` steps from ``start`` traverses: the
    graph ``walk_subgraph(run_walk(g, model, start, steps))`` returns,
    with the model left in the state that leaves and the same errors.

    Where its pairs go into bit rows (``graph._rows_fit``) and the kernel
    serves the model, one kernel call walks and marks each step's edge in
    the rows (``ListModel._walk_rows``) and holds no block of steps.  From
    ``_AHEAD_STEPS`` (2^18) steps on, where the process may use 2 CPUs
    and the helper's work (320 bytes a vertex and a 64 kB ring, made per
    call) is no larger than the host's rows and ranks or ``indices``, that
    call runs with a helper thread that fills the walk's list chunks ahead,
    with the same result: on G(2000, 1/2), 8.9 ns a step against 12.9 ns on
    one thread in process.
    Otherwise ``graph._pairs_graph`` builds it from ``_BLOCK`` steps at a
    time, the reference, so no more than a block of the walk is held."""
    start, steps = _walk_args(g, model, start, steps)
    rows = model._walk_rows(start, steps) if _rows_fit(g.n, steps) else None
    edges = _pairs_graph(g.n, steps, _walk_blocks(model, start, steps)) if rows is None \
        else Graph._from_rows(rows)
    if g.degree(start) == 0:  # run_walk's check; a walk of a step or more failed sooner
        raise ValueError(f"start vertex {start} has no neighbors")
    return edges


def _walk_blocks(model: ListModel, start: int, steps: int):
    """Yield the (from, to) vertices of a walk's steps, ``_BLOCK`` steps
    at a time, each block walked from where the last one ended."""
    for done in range(0, steps, _BLOCK):
        walk = model.consume(range(min(_BLOCK, steps - done)), start)
        yield walk[:-1], walk[1:]
        start = int(walk[-1])


def _walk_args(g: Graph, model: ListModel, start, steps) -> tuple[int, int]:
    """(start, steps) as ints, checked before any entry is taken: the
    model is built on ``g``, steps is a non-negative integer and start a
    vertex of ``g``, each refused with ValueError in that order."""
    _check_model(g, model)
    steps = _integer(steps, "steps")
    if steps < 0:
        raise ValueError(f"a walk takes a non-negative number of steps, got {steps}")
    return _vertex(g, start), steps


def _check_model(g: Graph, model: ListModel) -> None:
    """ValueError, before any entry is taken, unless ``model`` is built on ``g``."""
    if model.graph is not g:
        raise ValueError("the list model belongs to another graph; "
                         "build it on the graph it drives")


def walk_steps(alpha: float, n: int) -> int:
    """int(alpha * n^2), the steps of a walk of length parameter alpha on
    n vertices.

    ValueError names alpha when it is not finite, or when the length is
    more than ``run_walk`` can hold: its steps + 1 vertices need an int64
    length.  ``run_walk`` refuses a negative length.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if alpha * n * n >= 2**63:
        raise ValueError(f"alpha={alpha} asks for alpha*n^2 = {alpha * n * n:g} steps "
                         f"on n={n} vertices; a walk takes fewer than 2**63")
    return int(alpha * n * n)


def walk_subgraph(trace: WalkTrace) -> Graph:
    """Edges traversed by the walk, deduplicated, as a Graph.  A caller
    that needs the edges alone calls ``walk_edges``, which holds no
    trace."""
    seq = trace.sequence
    return _pairs_graph(trace.graph.n, len(seq[1:]), [(seq[:-1], seq[1:])])


def list_subgraph(g: Graph, model: ListModel, alpha: float) -> Graph:
    """Prefix subgraph: uv kept iff u is among the first floor(alpha*d(v))
    entries of the list of v, or vice versa.

    Replayed from the model's seed, independent of any walk's consumption.
    On a host built from rows, each prefix is drawn from the vertex's row
    alone (``Graph.neighbors``), so the host reads out no ``indices``.
    """
    _check_model(g, model)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    us, vs = [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int32)]
    for v in range(g.n):
        k = int(alpha * g.degree(v))
        if k <= 0:
            continue
        named = model.entries(v, k)
        us.append(np.full(len(named), v, dtype=np.int32))
        vs.append(named)
    return _pairs_graph(g.n, sum(map(len, us)), [(np.concatenate(us), np.concatenate(vs))])


def sandwich_bounds(trace, g: Graph) -> tuple[float, float]:
    """(alpha_lo, alpha_hi): the least X_v / d(v) over vertices, and the
    least double at or above the greatest with int(alpha_hi * d(v)) >=
    X_v at every v, the count ``list_subgraph`` takes.  ``trace`` is a
    ``WalkTrace`` or a ``trees.TreeHomomorphism``; X_v is its ``visit_counts``.

    For the model that drove it, list_subgraph(alpha_lo) is contained in
    the walk's traversed subgraph or the tree's image, which is contained
    in list_subgraph(alpha_hi); the containments are exact, not asymptotic,
    because floor(alpha_lo * d(v)) <= X_v <= floor(alpha_hi * d(v)) in
    floating point.  The greatest ratio alone may round below: with X_v
    = 15 and d(v) = 11, int(fl(15 / 11) * 11) is 14.  ValueError unless
    ``g`` is the walk's or the image's host.
    """
    if (trace.graph if isinstance(trace, WalkTrace) else trace.host) is not g:
        raise ValueError("the trace belongs to another graph; "
                         "bound it on the graph it ran on")
    deg = g.degrees
    live = deg > 0
    visits, deg = trace.visit_counts[live], deg[live]
    ratios = visits / deg
    hi = ratios.max()
    while ((hi * deg).astype(np.int64) < visits).any():
        hi = np.nextafter(hi, np.inf)
    return float(ratios.min()), float(hi)


def subsequence_visit_counts(trace: WalkTrace, L: int) -> np.ndarray:
    """X^(i)_v for i in [0, L): visits at positions i, i+L, i+2L, ...

    Row i counts the K = steps // L walk positions i + (j-1)L, j <= K.
    When L divides steps the rows sum to the plain visit counts; the
    trailing steps - K*L positions are truncated otherwise.
    """
    L = _integer(L, "L")
    if L < 1:
        raise ValueError("L must be positive")
    if L > trace.steps:
        raise ValueError("L exceeds the walk length")
    K = trace.steps // L
    block = trace.sequence[:K * L].reshape(K, L)
    return np.array([_count_ids([block[:, i]], trace.graph.n) for i in range(L)])


def default_block_length(n: int) -> int:
    """Subsequence stride (log n)^2, natural logarithm, rounded."""
    return max(1, round(float(np.log(n)) ** 2))


def step_positions(g: Graph, start, i: int, trials: int, rng) -> np.ndarray:
    """Vertices at step i of ``trials`` independent walks (vectorized).

    ``start`` is one vertex or one per walk, each in the host and, for i >=
    1, with neighbors, or ValueError names it.  ``rng`` is a seed, whose
    step-law stream is opened, or a generator to continue, so callers
    can batch walks or advance them step by step.  Every step draws
    ``trials`` words in order; draws are independent across trials and
    steps, which realizes the law of W_i for fresh walks.
    """
    i, trials = _integer(i, "step index", natural=True), _integer(trials, "trials")
    for v in np.unique(start).tolist():
        if g.degree(v) == 0 and i:
            raise ValueError(f"start vertex {v} has no neighbors")
    gen = stream(rng, DOMAIN_STEP_LAW, 0) if isinstance(rng, (int, np.integer)) else rng
    cur = np.full(trials, start, dtype=np.int64)
    deg = g.degrees
    for _ in range(i):
        u = gen.random(trials)
        cur = g.indices[g.indptr[cur] + (u * deg[cur]).astype(np.int64)]
    return cur


def empirical_step_distribution(g: Graph, start: int, i: int, trials: int,
                                seed: int) -> Distribution:
    """Monte-Carlo law of W_i over independent walks from ``start``."""
    if _integer(trials, "trials") < 1:
        raise ValueError("need at least one trial")
    where = step_positions(g, start, i, trials, seed)
    return Distribution.from_counts(np.bincount(where, minlength=g.n))


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance, half the l1 distance."""
    if len(p.probs) != len(q.probs):
        raise ValueError("distributions live on different universes")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def hit_probability_check(g: Graph, start: int, s: VertexSet, i: int,
                          trials: int, seed: int, *, eps: float) -> tuple[float, float]:
    """Empirical Pr(W_i in S) from a balanced start, with its lower floor.

    The floor is |S|/n - 9*sqrt(eps)/rho, valid for i >= 2 and |S| >= eps*n
    when the host is eps-quasirandom.  Rejects unbalanced starts.
    """
    start, i, trials = _vertex(g, start), _integer(i, "step index"), _integer(trials, "trials")
    if s.n != g.n:
        raise ValueError("vertex sets must live on the graph's vertex range")
    rho = density(g)
    if abs(g.degree(start) - rho * g.n) > eps * g.n:
        raise ValueError(f"start vertex {start} is not balanced at eps={eps}")
    if s.size < eps * g.n:
        raise ValueError("target set smaller than eps*n")
    if i < 2:
        raise ValueError("the floor applies to steps i >= 2")
    if trials < 1:
        raise ValueError("need at least one trial")
    where = step_positions(g, start, i, trials, seed)
    empirical = float(s.bool_mask()[where].mean())
    floor = s.size / g.n - 9.0 * np.sqrt(eps) / rho
    return empirical, float(floor)


def save_trace(trace: WalkTrace, path: str) -> None:
    """Text format: "start steps" then the vertex sequence; .gz compresses."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "wt") as fh:
        fh.write(f"{trace.start} {trace.steps}\n")
        fh.write(" ".join(map(str, trace.sequence.tolist())))
        fh.write("\n")


def load_trace(g: Graph, path: str) -> WalkTrace:
    """Read the format of save_trace; reject anything that is not a walk on g."""
    lines = read_text(path, gzip.open if path.endswith(".gz") else open).splitlines()
    head = lines[0].split() if lines else []
    body = lines[1] if len(lines) > 1 else ""
    if len(head) != 2 or not all(t.isdecimal() for t in head):
        raise ValueError(f"{path}:1: header must be 'start steps', "
                         f"got {' '.join(head)!r}")
    start, steps = int(head[0]), int(head[1])
    # numpy reads a token as int() does, [+-]?\d+(_\d+)*; without '+' and '_'
    # that is load_graph's rule: decimal digits after at most one '-'
    try:
        seq = np.array(body.split(), dtype=np.int64)
    except (ValueError, OverflowError):
        seq = None
    if seq is None or "+" in body or "_" in body:
        raise ValueError(f"{path}:2: the sequence must be integer vertex ids")
    if len(seq) != steps + 1:
        raise ValueError(f"{path}:2: sequence length {len(seq)} != steps+1")
    if seq[0] != start:
        raise ValueError(f"{path}:2: sequence starts at {seq[0]}, header says {start}")
    bad = np.flatnonzero((seq < 0) | (seq >= g.n))
    if len(bad):
        raise ValueError(f"{path}:2: position {bad[0]} is vertex {seq[bad[0]]}, "
                         f"outside the host's 0..{g.n - 1}")
    seq = seq.astype(np.int32)  # vertex ids, as run_walk returns them
    bad = np.flatnonzero(~g.has_edges(seq[:-1], seq[1:]))
    if len(bad):
        i = bad[0]
        raise ValueError(f"{path}:2: step {i + 1} from {seq[i]} to {seq[i + 1]} "
                         f"is not a host edge")
    if len(lines) > 2:
        raise ValueError(f"{path}:3: a trace ends after its sequence line, "
                         f"got {lines[2]!r}")
    return WalkTrace(graph=g, start=start, steps=steps, sequence=seq)
