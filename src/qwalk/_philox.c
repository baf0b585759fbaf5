/* Philox list words computed in place, bit for bit as numpy draws them,
 * and the adjacency bit rows of dense graphs.
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
 * is (w >> 11) * 2^-53.  qw_words, qw_consume, qw_gnp and
 * qw_sampled_counts compute these words, and qw_seed_key gives
 * qwalk.rng.derive_seed the first key word.
 *
 * Vertex ids are int32, since a graph has fewer than 2^31 vertices, and
 * an edge key u * n + v, u < v, is int64, formed only after widening.
 * A dense qwalk.graph.Graph keeps its adjacency bit rows as its one edge
 * store, with its row starts indptr: n rows of w = ceil(n / 64) words, row
 * v holding neighbour u as bit u % 64 of word u / 64.  Its rows come from
 * qw_mark_pairs, which marks the vertex pairs of a walk or a tree image in
 * them and counts their distinct edges, from qw_gnp, which draws G(n, p)
 * into them, or from K_n's rows; no key is made.  qw_consume takes each
 * list entry of such a graph from its rows, as the set bit of the entry's
 * rank found by select (pdep where the CPU runs it fast), so no indices
 * are made either; qwalk.graph reads them, keys and dense matrices out of
 * the rows in numpy when they are asked for.
 *
 * qw_sampled_counts draws every subset of
 * qwalk.certify.discrepancy_sampled and counts each of its e(A, B) as
 * popcounts of the rows in one call.  Its trials run on POSIX threads,
 * each with its own scratch words, which claim them one at a time; since
 * a trial's words are Philox blocks at counters fixed by its number, any
 * thread can run any trial, and the counts are those that one thread
 * gives.  The counts have a popcnt clone on x86-64 glibc: at
 * plain -O2, __builtin_popcountll calls libgcc's table-driven
 * __popcountdi2 instead.
 *
 * Built with -O2 -pthread on first use by qwalk.rng and called through
 * ctypes, which releases the GIL for the call; the threads run C alone.
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#if defined(__x86_64__) && defined(__GLIBC__)
#include <immintrin.h>
#endif

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

/* Word 0 of seed_key, which is numpy's generate_state(1, uint64)[0] of the
 * same SeedSequence: qwalk.rng.derive_seed. */
uint64_t qw_seed_key(uint64_t seed, uint32_t domain, uint32_t index)
{
    uint64_t key[2];

    seed_key(seed, domain, index, key);
    return key[0];
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

/* The set bit of rank r (0-based) of x, which has more than r set bits,
 * by broadword select (Vigna, "Broadword implementation of rank/select
 * queries", WEA 2008): byte i of s counts the set bits of bytes 0..i, so
 * the bytes whose count is at most r are the low ones that the bit lies
 * above.  The same step, on the bits of that byte spread one to a byte,
 * finds the bit inside it, with no branch: a loop clearing the byte's
 * low bits instead made a 2e6-step walk on G(2000, 1/2) take 97-122 ms
 * in process against 74-85 ms (2-core Xeon KVM guest, six runs each).
 */
static int64_t select_broadword(uint64_t x, int64_t r)
{
    const uint64_t ones = 0x0101010101010101u, msbs = 0x8080808080808080u;
    uint64_t s = x - (x >> 1 & 0x5555555555555555u), below, byte;
    int64_t at;

    s = (s & 0x3333333333333333u) + (s >> 2 & 0x3333333333333333u);
    s = ((s + (s >> 4)) & 0x0f0f0f0f0f0f0f0fu) * ones;
    /* the counts and r are below 128, so byte i of (r | 128) - s keeps
     * its 128 iff byte i of s is at most r: below has bit 0 of those */
    below = ((((uint64_t)r * ones) | msbs) - s) >> 7 & ones;
    at = (int64_t)((below * ones) >> 56) * 8;
    r -= (int64_t)(s << 8 >> at & 0xff);
    /* byte i is bit i of the byte: its bit, at most 128, plus 127 */
    byte = (((x >> at & 0xff) * ones & 0x8040201008040201u) + 0x7f7f7f7f7f7f7f7fu) >> 7 & ones;
    below = ((((uint64_t)r * ones) | msbs) - byte * ones) >> 7 & ones;
    return at + (int64_t)((below * ones) >> 56);
}

#if defined(__x86_64__) && defined(__GLIBC__)
/* select_broadword in one instruction: pdep deposits bit r of 1 << r,
 * its one set bit, on the set bit of rank r of x.  This pays only where
 * pdep is a fast instruction, as on Intel since Haswell and AMD since
 * Zen 3.  There, on a 2-core Xeon KVM guest, it made a 2e6-step walk on
 * G(2000, 1/2) take 50-64 ms in process against 56-85 ms for
 * select_broadword, faster in 7 of 8 alternating runs, the 1,001,001
 * vertex tree image in K_2000 19-27 ms against 34-37 ms, and perfbench's
 * walk_long run_s 0.103 s against 0.127 s in the median, faster in 10 of
 * 10 pairs.  Zen 1 and Zen 2 run pdep in microcode, at a cost that grows
 * with the set bits of the mask, so they take select_broadword. */
__attribute__((target("bmi2")))
static int64_t select_pdep(uint64_t x, int64_t r)
{
    return __builtin_ctzll(_pdep_u64((uint64_t)1 << r, x));
}
#endif

/* A graph's neighbour lists as qw_consume reads them: the CSR ``indices``
 * of indptr, or the bit rows, w words a row, with ``ranks``, the set bits
 * of a row before each of its words.  Passed by value, so that its fields
 * stay in registers across the stores of a step. */
struct lists {
    const int64_t *indptr;
    const int32_t *indices;
    const uint64_t *rows;
    const int32_t *ranks;
    int64_t w;
};

/* The place of the neighbour of rank k = floor(u d) of x, d its degree:
 * its position in ``indices`` when ``select`` is NULL, or else 64 times
 * the index of the row word that holds it plus its rank in that word.
 * That word is the last of row x whose rank is at most k.  A row whose
 * bits are spread evenly, as G(n, p)'s and K_n's are, holds it at or next
 * to word floor(u w), which is tried first.  A binary search of the
 * ranks, the fallback, puts a chain of dependent loads on every entry:
 * alone, on a 2-core Xeon KVM guest, it made a 2e6-step walk on
 * G(2000, 1/2) take 63-89 ms, against 37-62 ms with the guess first. */
static inline __attribute__((always_inline))
uint64_t place(struct lists g, int64_t (*select)(uint64_t, int64_t),
               int64_t x, double u, int64_t d)
{
    int64_t k = (int64_t)(u * (double)d), i, len;
    const int32_t *r;

    if (!select)
        return (uint64_t)(g.indptr[x] + k);
    r = g.ranks + x * g.w;
    i = (int64_t)(u * (double)g.w);
    i -= i > 0 && r[i] > k;
    i += i + 1 < g.w && r[i + 1] <= k;
    if (r[i] > k || (i + 1 < g.w && r[i + 1] <= k))
        for (i = 0, len = g.w; len > 1; len -= len / 2)
            i = r[i + len / 2] <= k ? i + len / 2 : i;  /* a select, not a branch */
    return (uint64_t)(x * g.w + i) * 64 + (uint64_t)(k - r[i]);
}

/* The neighbour of x at ``at``, a place of row x */
static inline __attribute__((always_inline))
int64_t neighbour(struct lists g, int64_t (*select)(uint64_t, int64_t),
                  int64_t x, uint64_t at)
{
    if (!select)
        return g.indices[at];
    return 64 * ((int64_t)(at / 64) - x * g.w) + select(g.rows[at / 64], (int64_t)(at % 64));
}

/* Image of a tree on the lists of stream domain ``domain``: image[0] is
 * the root, set by the caller, and image[j+1] is the next unused entry of
 * the list of image[parents[j]]; parents == NULL reads parents[j] = j, a
 * walk.  Vertex v keeps in state[8v..8v+7] its Philox key, derived when
 * its first entry is taken, the block of the word of the entry after its
 * next one, its next entry itself and the place of the entry after that,
 * and in taken[v] the number of entries taken.  Entry j of v is its
 * neighbour of rank floor(u d(v)), u the double of word j - 1 of its
 * stream, counted from 0 in ascending order.
 *
 * A step takes the stored next entry, reads the one after it from the
 * place found at the vertex's previous visit, and prefetches the
 * ``indices`` line or the row word of the entry after that.  The step
 * then waits only on state that is cached: the read hits the line that
 * the prefetch brought in, and the prefetch itself retires at once,
 * while the line it asks for arrives during the steps that follow.  A
 * plain load one visit ahead held the reorder buffer until its miss
 * returned, so few steps overlapped; reading each entry when it is taken
 * put one cache miss per step on the critical path.
 */
static inline __attribute__((always_inline))
int64_t consume(uint64_t seed, uint32_t domain, struct lists g,
                int64_t (*select)(uint64_t, int64_t), uint64_t *state, int64_t *taken,
                const int32_t *parents, int64_t m, int32_t *image)
{
    int64_t j;

    for (j = 0; j < m; j++) {
        int64_t x = image[parents ? parents[j] : j];
        int64_t d = g.indptr[x + 1] - g.indptr[x], t = taken[x];
        uint64_t *key = state + 8 * x, *block = key + 2, *next = key + 6, *at = key + 7;

        if (t == 0) {
            if (d == 0)
                return j;
            seed_key(seed, domain, (uint32_t)x, key);
            philox_block(key, 1, block);
            *next = (uint64_t)neighbour(g, select, x,
                                        place(g, select, x, to_double(block[0]), d));
            *at = place(g, select, x, to_double(block[1]), d);
        }
        image[j + 1] = (int32_t)*next;
        taken[x] = ++t;
        *next = (uint64_t)neighbour(g, select, x, *at);
        /* word t + 1 is the entry after the new next one */
        if ((t + 1) % 4 == 0)
            philox_block(key, (uint64_t)((t + 1) / 4 + 1), block);
        *at = place(g, select, x, to_double(block[(t + 1) % 4]), d);
        if (select)
            __builtin_prefetch(g.rows + *at / 64);
        else
            __builtin_prefetch(g.indices + *at);
    }
    return m;
}

#if defined(__x86_64__) && defined(__GLIBC__)
/* consume compiled for bmi2, so that select_pdep inlines; a
 * target_clones copy, as row_counts has, cannot be used, since its
 * default clone would have to compile _pdep_u64 too */
__attribute__((target("bmi2")))
static int64_t consume_pdep(uint64_t seed, uint32_t domain, struct lists g,
                            uint64_t *state, int64_t *taken, const int32_t *parents,
                            int64_t m, int32_t *image)
{
    return consume(seed, domain, g, select_pdep, state, taken, parents, m, image);
}
#endif

/* consume on the lists of the graph with row starts indptr[0..n]: its
 * ``indices`` when ``rows`` is NULL, else its bit rows and ``ranks``,
 * int32 [v * w + i] the set bits of words 0..i-1 of row v, where a
 * neighbour is taken by select, pdep where the CPU runs it fast.  The
 * caller checks that parents[j] lies in 0..j.  Returns m on success, or
 * else the first position j at which the list's vertex has no neighbours,
 * after taking the entries before j.
 */
int64_t qw_consume(uint64_t seed, uint32_t domain, int64_t n, const int64_t *indptr,
                   const int32_t *indices, const uint64_t *rows, const int32_t *ranks,
                   uint64_t *state, int64_t *taken, const int32_t *parents, int64_t m,
                   int32_t *image)
{
    struct lists g = {indptr, indices, rows, ranks, (n + 63) / 64};

    if (!rows)
        return consume(seed, domain, g, NULL, state, taken, parents, m, image);
#if defined(__x86_64__) && defined(__GLIBC__)
    if (__builtin_cpu_supports("bmi2") && !__builtin_cpu_is("znver1")
        && !__builtin_cpu_is("znver2"))
        return consume_pdep(seed, domain, g, state, taken, parents, m, image);
#endif
    return consume(seed, domain, g, select_broadword, state, taken, parents, m, image);
}

/* Marks the pairs (us[i], vs[i]) in ``rows``, n zeroed rows in the
 * header's bit row layout: pair (a, b), a < b, sets bit b of row a and bit
 * a of row b.  A first pass writes nothing: it returns -1 when an
 * endpoint lies outside 0..n-1 or a pair is a self-loop.  Returns the
 * number of distinct edges, the pairs that found bit b of row a clear.
 */
int64_t qw_mark_pairs(int64_t n, const int32_t *us, const int32_t *vs, int64_t m,
                      uint64_t *rows)
{
    int64_t i, w = (n + 63) / 64, count = 0;

    for (i = 0; i < m; i++)
        if (us[i] < 0 || us[i] >= n || vs[i] < 0 || vs[i] >= n || us[i] == vs[i])
            return -1;
    for (i = 0; i < m; i++) {
        /* selects, not branches that a walk mispredicts */
        int64_t u = us[i], v = vs[i], a = u < v ? u : v, b = u + v - a;
        uint64_t *word = rows + a * w + b / 64, bit = (uint64_t)1 << (b % 64);
        count += (int64_t)!(*word & bit);
        *word |= bit;
        rows[b * w + a / 64] |= (uint64_t)1 << (a % 64);
    }
    return count;
}

/* The edges of G(n, p) on stream domain ``domain``: pair (u, v), u < v,
 * is an edge when the double of word v - u - 1 of stream (seed, domain,
 * u) is below p, the rule of qwalk.graph.gen_gnp's reference, and each
 * edge sets bit v of row u and bit u of row v of ``rows``, n zeroed rows
 * in the header's bit row layout.  Returns the number of edges.
 */
int64_t qw_gnp(uint64_t seed, uint32_t domain, int64_t n, double p, uint64_t *rows)
{
    uint64_t key[2], block[4];
    int64_t u, j, w = (n + 63) / 64, count = 0;

    for (u = 0; u + 1 < n; u++) {
        uint64_t *row = rows + u * w;
        seed_key(seed, domain, (uint32_t)u, key);
        for (j = 0; j < n - u - 1; j++) {
            /* a 0/1 select, not a branch that p = 1/2 mispredicts half the time */
            int64_t v = u + 1 + j;
            uint64_t edge;
            if (j % 4 == 0)
                philox_block(key, (uint64_t)(j / 4 + 1), block);
            edge = to_double(block[j % 4]) < p;
            row[v / 64] |= edge << (v % 64);
            rows[v * w + u / 64] |= edge << (u % 64);
            count += (int64_t)edge;
        }
    }
    return count;
}

/* The element of rank r (0-based) of a[0..c-1], which it reorders:
 * Hoare's FIND (CACM 4(7), 1961).
 */
static uint64_t select_rank(uint64_t *a, int64_t c, int64_t r)
{
    int64_t lo = 0, hi = c - 1;

    while (lo < hi) {
        uint64_t pivot = a[lo + (hi - lo) / 2], x;
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (a[i] < pivot)
                i++;
            while (a[j] > pivot)
                j--;
            if (i <= j) {
                x = a[i];
                a[i++] = a[j];
                a[j--] = x;
            }
        }
        if (r <= j)
            hi = j;
        else if (r >= i)
            lo = i;
        else
            break;
    }
    return a[r];
}

/* One set of the subset sampler into ``mask``, its ceil(n / 64) words:
 * the vertices v whose word start + v of the stream keyed ``key`` is at
 * most the size-th smallest of the n words, ties included.  That is
 * qwalk.certify's rule u <= cut on their doubles, since the double
 * (x >> 11) * 2^-53 of word x is exact and increasing in x >> 11, which
 * is what the kernel compares.  A histogram over the top ``bits`` bits
 * of x >> 11 finds the bucket that holds the cut's rank, and a selection
 * among that bucket's words finds the cut.  ``vals`` and ``cand`` hold
 * n words each, ``hist`` 2^bits counts.
 */
static void subset_mask(const uint64_t key[2], int64_t start, int64_t n, int64_t size,
                        int bits, uint64_t *vals, uint64_t *cand, int64_t *hist,
                        uint64_t *mask)
{
    uint64_t block[4], cut;
    int64_t v, b, below = 0, c = 0, k = size - 1;
    int shift = 53 - bits;

    for (b = 0; b < (int64_t)1 << bits; b++)
        hist[b] = 0;
    for (v = 0; v < n; v++) {
        int64_t j = start + v;
        if (v == 0 || j % 4 == 0)
            philox_block(key, (uint64_t)(j / 4 + 1), block);
        vals[v] = block[j % 4] >> 11;
        hist[vals[v] >> shift]++;
    }
    for (b = 0; below + hist[b] <= k; b++)
        below += hist[b];
    for (v = 0; v < n; v++) {
        /* a store at every v, kept by the count only in bucket b */
        cand[c] = vals[v];
        c += (int64_t)(vals[v] >> shift) == b;
    }
    cut = select_rank(cand, c, k - below);
    for (v = 0; v < n; v += 64) {
        uint64_t word = 0;
        for (b = 0; b < 64 && v + b < n; b++)
            word |= (uint64_t)(vals[v + b] <= cut) << b;
        mask[v / 64] = word;
    }
}

/* Word i of the set ``s`` of 0..n-1, w words, or of its complement when
 * ``flip`` is set, which leaves the bits from n on clear.
 */
static uint64_t member_word(int64_t n, int64_t w, const uint64_t *s, int flip, int64_t i)
{
    uint64_t bits = flip ? ~s[i] : s[i];

    return i == w - 1 && n % 64 ? bits & (((uint64_t)1 << (n % 64)) - 1) : bits;
}

/* The sum over the members v of S' of |N(v) & T|, where S' is the set
 * ``s`` or, when ``flip`` is set, its complement: the popcounts of each
 * member's bit row and T's w words.
 */
#if defined(__x86_64__) && defined(__GLIBC__)
__attribute__((target_clones("popcnt", "default")))
#endif
static int64_t row_counts(int64_t n, int64_t w, const uint64_t *rows, const uint64_t *s,
                          int flip, const uint64_t *t)
{
    int64_t i, j, c = 0;
    uint64_t bits;

    for (i = 0; i < w; i++)
        for (bits = member_word(n, w, s, flip, i); bits; bits &= bits - 1) {
            const uint64_t *r = rows + (64 * i + __builtin_ctzll(bits)) * w;
            for (j = 0; j < w; j++)
                c += __builtin_popcountll(r[j] & t[j]);
        }
    return c;
}

/* vol(S), the degrees indptr[v + 1] - indptr[v] summed over the v in the
 * set ``s`` of 0..n-1, read over S or its complement, whichever is smaller:
 * vol(S) = 2m - vol(V \ S).
 */
static int64_t volume(int64_t n, int64_t w, const int64_t *indptr, const uint64_t *s)
{
    int64_t i, size = 0, vol = 0;
    int flip;
    uint64_t bits;

    for (i = 0; i < w; i++)
        size += __builtin_popcountll(s[i]);
    flip = 2 * size > n;
    for (i = 0; i < w; i++)
        for (bits = member_word(n, w, s, flip, i); bits; bits &= bits - 1) {
            int64_t v = 64 * i + __builtin_ctzll(bits);
            vol += indptr[v + 1] - indptr[v];
        }
    return flip ? indptr[n] - vol : vol;
}

#define HIST_BITS 12

/* The trials of one qw_sampled_counts call, shared by its threads, each
 * of which claims the next unclaimed trial, ``next``, until none is left. */
struct sampler {
    uint64_t key[2];
    int64_t offset, n, trials, block, next;
    int bits;
    const uint64_t *rows;
    const int64_t *indptr, *sizes;
    int64_t *e;
};

/* One thread of a qw_sampled_counts call, with its own 2 n + 2 ceil(n / 64)
 * words of ``work`` and a histogram on its own stack. */
struct part {
    struct sampler *s;
    uint64_t *work;
};

static void *claim_trials(void *arg)
{
    const struct part *p = arg;
    struct sampler *s = p->s;
    int64_t n = s->n, w = (n + 63) / 64, t;
    uint64_t *vals = p->work, *cand = vals + n, *a = cand + n, *b = a + w;
    int64_t hist[(int64_t)1 << HIST_BITS];

    /* relaxed: the claims need only be distinct; the join orders e */
    while ((t = __atomic_fetch_add(&s->next, 1, __ATOMIC_RELAXED)) < s->trials) {
        int64_t t0 = t - t % s->block;
        int64_t rows_in_block = s->trials - t0 < s->block ? s->trials - t0 : s->block;
        int64_t start = s->offset + 2 * t0 * n + (t - t0) * n;
        int64_t sa = s->sizes[2 * t], sb = s->sizes[2 * t + 1], least;
        subset_mask(s->key, start, n, sa, s->bits, vals, cand, hist, a);
        subset_mask(s->key, start + rows_in_block * n, n, sb, s->bits, vals, cand, hist, b);
        least = sa < sb ? sa : sb;
        if (n - sa < least || n - sb < least) {
            /* over the complement of the larger set, against the smaller */
            const uint64_t *big = sa > sb ? a : b, *small = sa > sb ? b : a;
            s->e[t] = volume(n, w, s->indptr, small) - row_counts(n, w, s->rows, big, 1, small);
        } else {
            s->e[t] = row_counts(n, w, s->rows, sa < sb ? a : b, 0, sa < sb ? b : a);
        }
    }
    return NULL;
}

/* Pins the thread that ``attr`` starts to the i-th CPU, from 1, that the
 * calling thread may run on, other than the one it runs on; where that
 * cannot be found, ``attr`` is left as it is.  Left to itself, the
 * scheduler of a 2-CPU KVM guest kept a new thread on its creator's CPU
 * through two 21 ms computations, one on each thread, in each of 44
 * runs, while the other CPU stood idle; pinned, the two ran apart in
 * 21-27 ms. */
static void pin_apart(pthread_attr_t *attr, int64_t i)
{
#ifdef __GLIBC__
    cpu_set_t allowed, one;
    int cpu, here = sched_getcpu();

    if (pthread_getaffinity_np(pthread_self(), sizeof allowed, &allowed) != 0)
        return;
    for (cpu = 0; cpu < CPU_SETSIZE; cpu++)
        if (cpu != here && CPU_ISSET(cpu, &allowed) && --i == 0) {
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            pthread_attr_setaffinity_np(attr, sizeof one, &one);
            return;
        }
#else
    (void)attr;
    (void)i;
#endif
}

/* e[t] = e(A_t, B_t) for the trials of qwalk.certify.discrepancy_sampled
 * on the graph with bit rows ``rows`` and CSR row starts ``indptr``.
 * Trial t of the block of ``block`` trials (fewer in the last) that
 * starts at t0 draws A_t of size sizes[2t] from words offset + 2 t0 n +
 * (t - t0) n onwards of stream (seed, domain, index), and B_t of size
 * sizes[2t + 1] from the block's own row count b further on: numpy's
 * layout of one (2b, n) draw per block.  Each e(A, B) is counted over the
 * fewest rows: over A, over B, since e(A, B) = e(B, A), or over V \ A or
 * V \ B, since the sum over every v of |N(v) & B| is vol(B), the degrees
 * summed over B.
 *
 * The trials run on ``threads`` >= 1 threads: the calling thread and
 * threads - 1 more, each pinned apart from the caller by pin_apart.  Each
 * has its own 2 n + 2 ceil(n / 64) words of ``work``, which holds
 * ``threads`` times that, and claims one trial at a time, so a thread
 * that gets less of its CPU runs fewer trials, and a thread that cannot
 * be started runs none.  The split is exact: a trial's words are Philox
 * blocks at counters fixed by t, ``offset`` and ``block`` alone, and it
 * writes only e[t], so the counts do not depend on which thread ran it.
 */
void qw_sampled_counts(uint64_t seed, uint32_t domain, uint32_t index, int64_t offset,
                       int64_t n, const uint64_t *rows, const int64_t *indptr,
                       const int64_t *sizes, int64_t trials, int64_t block, int64_t threads,
                       uint64_t *work, int64_t *e)
{
    struct sampler s = {{0, 0}, offset, n, trials, block, 0, 0, rows, indptr, sizes, e};
    struct part part[threads];
    pthread_t id[threads];
    pthread_attr_t attr;
    int started[threads];
    int64_t i;

    /* about two words a bucket */
    while (s.bits < HIST_BITS && (int64_t)2 << s.bits <= n)
        s.bits++;
    seed_key(seed, domain, index, s.key);
    for (i = 0; i < threads; i++) {
        part[i].s = &s;
        part[i].work = work + i * (2 * n + 2 * ((n + 63) / 64));
        started[i] = 0;
        if (i > 0 && pthread_attr_init(&attr) == 0) {
            pin_apart(&attr, i);
            started[i] = pthread_create(&id[i], &attr, claim_trials, &part[i]) == 0;
            pthread_attr_destroy(&attr);
        }
    }
    claim_trials(&part[0]);
    for (i = 1; i < threads; i++)
        if (started[i])
            pthread_join(id[i], NULL);
}
