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
"""

from __future__ import annotations

import operator

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


def _checked_seed(seed) -> int:
    """``seed`` as an int; a negative or non-integral seed raises ValueError."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


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
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    bg = np.random.Philox(_address(seed, domain, index))
    if offset:
        bg.advance(offset // 4)
    gen = np.random.Generator(bg)
    if offset % 4:
        gen.random(offset % 4)
    return gen


def uniform_words(seed: int, domain: int, index: int, start: int, count: int) -> np.ndarray:
    """Doubles for words start .. start+count-1 of the addressed stream."""
    return stream(seed, domain, index, offset=start).random(count)


def derive_seed(seed: int, domain: int, index: int) -> int:
    """A fresh 64-bit seed for a child consumer (e.g. one trial of many)."""
    return int(_address(seed, domain, index).generate_state(1, np.uint64)[0])
