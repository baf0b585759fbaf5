"""The replay contract: stream words are pure functions of their address."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk.rng import (DOMAIN_GNP, DOMAIN_LIST, DOMAIN_SUBSETS, _next_word, derive_seed,
                       stream, stream_key, uniform_words)


def test_chunked_replay_matches_whole_stream():
    whole = uniform_words(42, DOMAIN_LIST, 3, 0, 100)
    parts = np.concatenate([
        uniform_words(42, DOMAIN_LIST, 3, 0, 1),
        uniform_words(42, DOMAIN_LIST, 3, 1, 6),
        uniform_words(42, DOMAIN_LIST, 3, 7, 50),
        uniform_words(42, DOMAIN_LIST, 3, 57, 43),
    ])
    assert np.array_equal(whole, parts)


def test_sequential_generator_matches_random_access():
    gen = stream(42, DOMAIN_LIST, 3)
    one_at_a_time = np.array([gen.random() for _ in range(25)])
    assert np.array_equal(one_at_a_time, uniform_words(42, DOMAIN_LIST, 3, 0, 25))


@pytest.mark.parametrize("offset", [1, 2, 3, 4, 5, 9])
def test_offsets_not_block_aligned(offset):
    whole = uniform_words(7, DOMAIN_GNP, 0, 0, 40)
    assert np.array_equal(whole[offset:], uniform_words(7, DOMAIN_GNP, 0, offset, 40 - offset))


def test_domains_and_indices_give_distinct_streams():
    a = uniform_words(5, DOMAIN_LIST, 0, 0, 8)
    assert not np.array_equal(a, uniform_words(5, DOMAIN_GNP, 0, 0, 8))
    assert not np.array_equal(a, uniform_words(5, DOMAIN_LIST, 1, 0, 8))
    assert not np.array_equal(a, uniform_words(6, DOMAIN_LIST, 0, 0, 8))


def test_keys_are_deterministic():
    assert np.array_equal(stream_key(1, 2, 3), stream_key(1, 2, 3))
    assert derive_seed(9, 4, 17) == derive_seed(9, 4, 17)
    assert derive_seed(9, 4, 17) != derive_seed(9, 4, 18)


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        stream_key(-1, 0, 0)


@pytest.mark.parametrize("call", [stream_key, derive_seed, stream])
def test_every_address_checks_its_seed(call):
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        call(-1, 0, 0)
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        call(1.5, 0, 0)


def test_negative_offset_rejected():
    with pytest.raises(ValueError, match="offset must be non-negative, got -4"):
        uniform_words(1, 0, 0, -4, 3)
    with pytest.raises(ValueError, match="offset must be non-negative"):
        stream(1, 0, 0, offset=-1)


# seeds at and beyond the 32- and 64-bit boundaries, where SeedSequence
# splits a seed into more uint32 words
SEEDS = st.one_of(st.integers(0, 2**130),
                  st.sampled_from([2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64,
                                   2**64 + 1, 2**100]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=SEEDS, domain=st.integers(0, 6), index=st.integers(0, 10_000),
       offset=st.integers(0, 9), k=st.integers(0, 12))
def test_stream_is_philox_keyed_by_stream_key(seed, domain, index, offset, k):
    keyed = np.random.Generator(np.random.Philox(key=stream_key(seed, domain, index)))
    want = keyed.random(offset + k)[offset:]
    assert np.array_equal(stream(seed, domain, index, offset).random(k), want)


@pytest.mark.parametrize("draw", [
    None,                                          # a fresh generator
    lambda gen: gen.integers(1, 5, size=7),        # 32-bit draws, odd: a half word kept
    lambda gen: gen.integers(1, 5, size=(4, 2)),   # 32-bit draws, even
    lambda gen: gen.integers(0, 2**40, size=5),    # 64-bit draws
    lambda gen: (gen.integers(0, 2**40, size=3), gen.integers(0, 9, size=1)),
    lambda gen: gen.random(6),
], ids=["fresh", "odd-32", "even-32", "64-bit", "64-then-32", "doubles"])
@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**70])
def test_next_word_is_the_stream_position(seed, draw):
    # the discrepancy sampler hands this position to the kernel
    gen = stream(seed, DOMAIN_SUBSETS, 0)
    if draw is not None:
        draw(gen)
    at = _next_word(gen)
    assert np.array_equal(stream(seed, DOMAIN_SUBSETS, 0, offset=at).random(9), gen.random(9))
    assert _next_word(gen) == at + 9
