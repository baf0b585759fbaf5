"""Counter-based random streams with replayable random access.

Every random quantity in this package is drawn from a Philox stream
addressed by (seed, domain, index).  Word j of a stream is a pure
function of that address, so any consumer can be replayed from scratch,
in chunks of any size, and always sees the same values.  Domains keep
unrelated consumers (edge sampling, list entries, subset sampling, ...)
on independent streams even when they share a seed and an index.

Philox advances in blocks of four 64-bit words and numpy's ``random()``
consumes exactly one word per double, so positioning a stream at word j
means advancing j // 4 blocks and discarding j % 4 doubles.  This block
arithmetic is what makes chunked replay exact; it is pinned by tests.

The same words come from a small C kernel, ``_philox.c``, which derives
numpy's SeedSequence key and computes Philox4x64-10 blocks in place for
the addresses that ``_kernel`` alone accepts.  ``uniform_words``,
``derive_seed`` and the list model use it when it loads.  So does
``graph``: vertex pairs are marked in symmetric adjacency bit rows, and
``gen_gnp`` draws G(n, p) into such rows in one call.  The list model's
kernel marks the edges of a walk or a tree image in such rows as it
takes their entries, for ``walks.walk_edges`` and
``trees.image_subgraph``.  A ``Graph`` built from rows, these (the
``Graph`` of a walk's or a tree image's edges) or the K_n rows of
``gen_complete``, keeps them as its one edge store and counts its edges
from them.  The list model's kernel takes
each entry on such a graph from its rows, by select (pdep on x86-64
CPUs that run it fast, a broadword select elsewhere); ``graph`` reads a
``Graph``'s ``indices`` out of its rows, or out of its keys by a sort,
in numpy and only when asked, and the walks of a ``Graph`` built from
keys read them.
``certify.discrepancy_sampled`` uses the kernel too: it draws every set
size as numpy's ``integers`` would, then every subset from the stream
position ``_next_word`` would read off numpy's generator, and counts every
e(A, B) from the bit rows by popcount in one call, with its trials
claimed one at a time by POSIX threads that run C alone.  The list model's
kernel makes a vertex's entries a 64-byte chunk at a time, and
``gen_gnp``'s call builds its rows on as many threads as the process
may use CPUs (``_cpus``, which the sampler's call shares).  A walk of
2^18 steps or more, where ``_cpus`` is 2 or more, runs with one helper
thread that fills its chunks four at a time ahead of the walker, which
never waits on it: 8.9 ns a step against 12.9 ns on one thread for a
2e6-step walk on G(2000, 1/2) in process.  Its work, 320 bytes a vertex
and a 64 kB ring made per call, is taken only where it is no more than
the host's neighbour storage (``walks.ListModel._consume_kernel``).
On x86-64 CPUs with AVX-512F and AVX-512 VPOPCNTDQ, found at run time,
the kernel computes eight or sixteen Philox blocks at a time for ``uniform_words``,
G(n, p) rows, the sampler's sets and the list model's chunks, builds
G(n, p)'s row words from 8-lane compares, and the sampler picks and
counts its sets in 512-bit registers; with AVX-512F, AVX-512DQ and a
fast pdep it finds the row words of 16 list entries at a time by a
binary search of the row's ranks in 512-bit registers.  Elsewhere it
draws one block at a time and counts in a popcnt clone on x86-64 glibc,
with the same results.  The kernel is
built on first use, never at import, with ``gcc -O2 -pthread`` into a
user cache directory keyed by the sha256 of its flags and source, from
CPython's built-in sha256 module, which names each build as ``hashlib``
did and loads no OpenSSL library.
Without gcc, when the build or the cache directory fails, or for an
address past its limits, the numpy code serves instead and stays the
reference; ``backend()`` says which one is in use.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

# Stream domains.  Values are arbitrary but frozen: changing them changes
# every seeded result in the package.
DOMAIN_GNP = 0          # index = row vertex u; word v-u-1 decides pair (u, v)
DOMAIN_LIST = 1         # index = vertex v; word j-1 realizes entry(v, j)
DOMAIN_SUBSETS = 2      # index = 0; discrepancy subset sampler
DOMAIN_STEP_LAW = 3     # index = 0; batched independent walks
DOMAIN_TRIALS = 4       # index = trial number; derives per-trial seeds
DOMAIN_TREE_GEN = 5     # index = 0; random tree attachment choices
DOMAIN_HOST = 6         # index = 0; host generation inside experiments


def _integer(value, what: str, natural: bool = False) -> int:
    """``value`` as an int, for seeds, vertex counts, vertices and counts.
    ValueError names a bool, any other non-integer (a float however
    integral), and a negative value when ``natural``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if natural and value < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    return int(value)


def _checked_seed(seed) -> int:
    """``seed`` as an int; a negative or non-integral seed raises ValueError."""
    return _integer(seed, "seed", natural=True)


def _address(seed: int, domain: int, index: int) -> np.random.SeedSequence:
    """The one SeedSequence behind the stream at (seed, domain, index)."""
    return np.random.SeedSequence(_checked_seed(seed), spawn_key=(domain, index))


def stream_key(seed: int, domain: int, index: int) -> np.ndarray:
    """128-bit Philox key for the stream at (seed, domain, index)."""
    return _address(seed, domain, index).generate_state(2, np.uint64)


def stream(seed: int, domain: int, index: int, offset: int = 0) -> np.random.Generator:
    """Generator positioned at word ``offset`` of the addressed stream.

    Successive ``random(k)`` calls walk the stream one word per double,
    independent of how the reads are chunked.  Philox keys itself with
    ``generate_state(2, uint64)`` of the SeedSequence it is given, which
    is ``stream_key``; handing it the address directly saves a second,
    entropy-seeded SeedSequence per stream.
    """
    offset = _integer(offset, "offset", natural=True)
    bg = np.random.Philox(_address(seed, domain, index))
    if offset:
        bg.advance(offset // 4)
    gen = np.random.Generator(bg)
    if offset % 4:
        gen.random(offset % 4)
    return gen


def uniform_words(seed: int, domain: int, index: int, start: int, count: int) -> np.ndarray:
    """Doubles for words start .. start+count-1 of the addressed stream."""
    seed = _checked_seed(seed)
    start, count = _integer(start, "offset", True), _integer(count, "count", True)
    lib = _kernel(seed, domain, index, start + count)
    if lib is None:
        return stream(seed, domain, index, offset=start).random(count)
    out = np.empty(count)
    lib.qw_words(seed, domain, index, start, count, out.ctypes.data)
    return out


def _next_word(gen: np.random.Generator) -> int:
    """Stream position of the word that ``gen``'s next double reads.

    ``gen`` comes from ``stream``: Philox increments its 256-bit counter
    before each block of four words and hands them out from ``buffer_pos``
    on; a 32-bit draw takes a whole word and keeps its other half for the
    next one, a half no double reads.  So after any draws the next double
    is word 4 (counter - 1) + buffer_pos, and word 0 before the first
    block.
    """
    state = gen.bit_generator.state
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    return 4 * (counter - 1) + state["buffer_pos"] if counter else 0


def derive_seed(seed: int, domain: int, index: int) -> int:
    """A fresh 64-bit seed for a child consumer (e.g. one trial of many).

    It is word 0 of ``stream_key``, since ``generate_state(1, uint64)``
    is the first word of ``generate_state(2, uint64)``.
    """
    seed = _checked_seed(seed)
    lib = _kernel(seed, domain, index)
    if lib is None:
        return int(_address(seed, domain, index).generate_state(1, np.uint64)[0])
    return lib.qw_seed_key(seed, domain, index)


_SOURCE = Path(__file__).with_name("_philox.c")
_FLAGS = ["-O2", "-pthread"]
_lib = None  # the loaded kernel; False once loading it failed


def _build(source: bytes, flags, path: Path) -> None:
    """Compile the kernel ``source`` with gcc and ``flags`` into the shared
    object ``path``, through a file of this process renamed into place, so
    a concurrent build or a reader never sees a partial file.  Raises
    OSError or subprocess.SubprocessError when gcc cannot run or fails."""
    import subprocess

    tmp = path.with_name(f"{path.name}.{os.getpid()}")
    try:
        subprocess.run(["gcc", *flags, "-shared", "-fPIC", "-x", "c", "-", "-o", str(tmp)],
                       input=source, capture_output=True, check=True, timeout=300)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _sha256_hex(data: bytes) -> str:
    """The hex sha256 of ``data`` from CPython's built-in module, ``_sha256``
    up to 3.11 and ``_sha2`` from 3.12, as the stdlib's ``random`` takes
    its sha512, so that no OpenSSL library is loaded; ``hashlib``, whose
    digest is the same, where neither is built in."""
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _load():
    """Build the kernel once per hash of its flags and source, load it;
    None on any failure.  The shared object is compiled from the bytes
    that were hashed into the cache directory; ``subprocess`` is imported
    only to build it."""
    import ctypes

    try:
        source = _SOURCE.read_bytes()
        digest = _sha256_hex(" ".join(_FLAGS).encode() + b"\n" + source)
        path = Path.home() / ".cache" / "qwalk" / f"philox-{digest}.so"
        if not path.exists():
            import subprocess

            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                _build(source, _FLAGS, path)
            except subprocess.SubprocessError:
                return None
        lib = ctypes.CDLL(str(path))
    except (OSError, RuntimeError):
        return None
    return _declare(lib)


def _declare(lib):
    """``lib``, a loaded build of the kernel, with the argument and result
    types of each of its entry points set."""
    import ctypes

    u64, u32, i64, ptr = ctypes.c_uint64, ctypes.c_uint32, ctypes.c_int64, ctypes.c_void_p
    lib.qw_seed_key.argtypes = [u64, u32, u32]
    lib.qw_seed_key.restype = u64
    lib.qw_words.argtypes = [u64, u32, u32, i64, i64, ptr]
    lib.qw_words.restype = None
    lib.qw_consume.argtypes = [u64, u32, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr,
                               ptr, i64, ptr]
    lib.qw_consume.restype = i64
    lib.qw_mark_pairs.argtypes = [i64, ptr, ptr, i64, ptr]
    lib.qw_mark_pairs.restype = i64
    lib.qw_gnp.argtypes = [u64, u32, i64, ctypes.c_double, ptr, i64]
    lib.qw_gnp.restype = None
    lib.qw_sampled_counts.argtypes = [u64, u32, u32, i64, i64, ptr, ptr, ptr, i64, i64, i64,
                                      ptr, ptr]
    lib.qw_sampled_counts.restype = i64
    return lib


def _kernel(seed: int = 0, domain: int = 0, index: int = 0, end: int = 0):
    """The C kernel, loaded on first call, if it can serve the stream at
    (seed, domain, index) up to word position ``end``, else None.  The
    one place that knows its limits, seeds below 2^64, domains and
    indices below 2^32 and positions below 2^63; a caller that draws no
    words asks with the defaults."""
    global _lib
    if not (0 <= seed < 2**64 and 0 <= domain < 2**32 and 0 <= index < 2**32
            and 0 <= end < 2**63):
        return None
    if _lib is None:
        _lib = _load() or False
    return _lib or None


def _cpus() -> int:
    """The CPUs this process may run on: the threads that the kernel's
    subset sampler and G(n, p) rows are split among; from 2 on, a walk of
    2^18 steps or more also runs with the kernel's helper thread, which
    fills its list chunks ahead, given 320 bytes of work a vertex and a
    64 kB ring where the host's neighbour storage is no smaller: 8.9 ns a
    step against 12.9 ns for a 2e6-step walk on G(2000, 1/2)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def backend() -> str:
    """Which code draws list words, ``uniform_words``, ``derive_seed``
    and G(n, p) hosts, marks vertex pairs in bit rows and runs the subset
    sampler: "c" for the kernel, whose sampler trials and G(n, p) rows are
    split among the CPUs the process may use, and whose walks of 2^18
    steps or more take a helper thread on a second CPU, with 320 bytes of
    work a vertex where the host's neighbour storage is no smaller (8.9 ns
    a step against 12.9 ns for a 2e6-step walk on G(2000, 1/2)), or
    "numpy", on one thread.  Both give the same words and results.
    Where the CPU has AVX-512F and AVX-512 VPOPCNTDQ, "c" draws eight or sixteen Philox blocks at a time
    and runs the sampler's and G(n, p)'s wide steps, and with AVX-512F,
    AVX-512DQ and a fast pdep it fills list chunks in 512-bit registers;
    the choice is made in the kernel at each call and shows nowhere
    else."""
    return "numpy" if _kernel() is None else "c"
