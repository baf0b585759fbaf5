/* Philox list words computed in place, bit for bit as numpy draws them.
 *
 * A stream (seed, domain, index) of qwalk.rng is numpy's
 * Philox(SeedSequence(seed, spawn_key=(domain, index))) read one double
 * per word.  For seed < 2^64 and domain, index < 2^32 the SeedSequence
 * entropy is the six uint32 words [seed_lo, seed_hi, 0, 0, domain, index]
 * (numpy pads the run entropy to its pool size of 4 when a spawn key is
 * given), and the Philox key is generate_state(2, uint64) of its pool.
 * Philox increments its counter before each block, so word j is lane
 * j % 4 of Philox4x64-10 at counter (j / 4 + 1, 0, 0, 0) (Salmon et al.,
 * "Parallel random numbers: as easy as 1, 2, 3", SC 2011), and its double
 * is (w >> 11) * 2^-53.
 *
 * Built on first use by qwalk.rng and called through ctypes.
 */
#include <stdint.h>

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddu * x - 0x4973f715u * y;
    return r ^ (r >> 16);
}

/* numpy's SeedSequence(seed, spawn_key=(domain, index)).generate_state(2, uint64) */
static void seed_key(uint64_t seed, uint32_t domain, uint32_t index, uint64_t key[2])
{
    uint32_t entropy[6] = {(uint32_t)seed, (uint32_t)(seed >> 32), 0, 0, domain, index};
    uint32_t pool[4], words[4], h = 0x43b0d7e5u;
    int i, j;

    for (i = 0; i < 4; i++)
        pool[i] = hashmix(entropy[i], &h);
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            if (i != j)
                pool[j] = mix(pool[j], hashmix(pool[i], &h));
    for (i = 4; i < 6; i++)
        for (j = 0; j < 4; j++)
            pool[j] = mix(pool[j], hashmix(entropy[i], &h));
    h = 0x8b51f9ddu;
    for (i = 0; i < 4; i++) {
        uint32_t v = pool[i] ^ h;
        h *= 0x58f38dedu;
        v *= h;
        words[i] = v ^ (v >> 16);
    }
    key[0] = words[0] | (uint64_t)words[1] << 32;
    key[1] = words[2] | (uint64_t)words[3] << 32;
}

/* Philox4x64-10 of counter (ctr, 0, 0, 0) under key */
static void philox_block(const uint64_t key[2], uint64_t ctr, uint64_t out[4])
{
    uint64_t c0 = ctr, c1 = 0, c2 = 0, c3 = 0, k0 = key[0], k1 = key[1];
    int r;

    for (r = 0; r < 10; r++) {
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93u * c0;
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157u * c2;
        uint64_t hi0 = (uint64_t)(p0 >> 64), hi1 = (uint64_t)(p1 >> 64);
        c0 = hi1 ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = hi0 ^ c3 ^ k1;
        c3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15u;
        k1 += 0xBB67AE8584CAA73Bu;
    }
    out[0] = c0;
    out[1] = c1;
    out[2] = c2;
    out[3] = c3;
}

static double to_double(uint64_t w)
{
    return (double)(w >> 11) * (1.0 / 9007199254740992.0);
}

/* Doubles for words start .. start+count-1 of stream (seed, domain, index). */
void qw_words(uint64_t seed, uint32_t domain, uint32_t index,
              int64_t start, int64_t count, double *out)
{
    uint64_t key[2], block[4];
    int64_t i;

    seed_key(seed, domain, index, key);
    for (i = 0; i < count; i++) {
        int64_t j = start + i;
        if (i == 0 || j % 4 == 0)
            philox_block(key, (uint64_t)(j / 4 + 1), block);
        out[i] = to_double(block[j % 4]);
    }
}

/* Image of a tree on the lists of stream domain ``domain``: image[0] is
 * the root, set by the caller, and image[j+1] is the next unused entry of
 * the list of image[parents[j]]; parents == NULL reads parents[j] = j, a
 * walk.  Vertex v keeps in state[7v..7v+6] its Philox key, derived when
 * its first entry is taken, the block of the word of its next entry, and
 * that next entry itself, and in taken[v] the number of entries taken.
 *
 * The next entry is read from ``indices`` one visit ahead.  A walk's
 * step then waits only on state that is cached, while the read that
 * misses the cache overlaps with the steps that follow; reading each
 * entry when it is taken put one cache miss per step on the critical
 * path, 2.5x slower on G(2000, 1/2).
 *
 * The caller checks that parents[j] lies in 0..j.  Returns m on success,
 * or else the first position j at which the list's vertex has no
 * neighbours, after taking the entries before j.
 */
int64_t qw_consume(uint64_t seed, uint32_t domain,
                   const int64_t *indptr, const int64_t *indices,
                   uint64_t *state, int64_t *taken,
                   const int64_t *parents, int64_t m, int64_t *image)
{
    int64_t j;

    for (j = 0; j < m; j++) {
        int64_t x = image[parents ? parents[j] : j];
        int64_t lo = indptr[x], d = indptr[x + 1] - lo, t = taken[x];
        uint64_t *key = state + 7 * x, *block = key + 2, *next = key + 6;

        if (t == 0) {
            if (d == 0)
                return j;
            seed_key(seed, domain, (uint32_t)x, key);
            philox_block(key, 1, block);
            *next = (uint64_t)indices[lo + (int64_t)(to_double(block[0]) * (double)d)];
        }
        image[j + 1] = (int64_t)*next;
        taken[x] = ++t;
        if (t % 4 == 0)
            philox_block(key, (uint64_t)(t / 4 + 1), block);
        *next = (uint64_t)indices[lo + (int64_t)(to_double(block[t % 4]) * (double)d)];
    }
    return m;
}
