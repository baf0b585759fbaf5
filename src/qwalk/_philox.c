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
 * Runs of words come from one generator, philox_run: qw_words, qw_gnp's
 * rows, the subset sampler's sets and qw_consume's chunks call it.  On
 * x86-64 CPUs with AVX-512F and AVX-512 VPOPCNTDQ, chosen at run time by
 * __builtin_cpu_supports as pdep is, it computes each whole run of 16
 * blocks as two interleaved chains of 8 in the lanes of 512-bit registers
 * (philox_16), and a last run of 8 as one chain (philox_8); qw_gnp builds
 * its row words from 8-lane compares (below_cut_wide), and the subset
 * sampler keeps the words of each set's cut bucket by vpcompressq, builds
 * its set words from 8-lane compares and counts e(A, B) by vpopcntq
 * (subset_mask_wide, row_counts_wide).  With AVX-512F and a fast pdep,
 * qw_consume finds the row words of 16 list entries at a time by a binary
 * search of the row's ranks in 512-bit registers (fill_wide, row_words).
 * philox_block, the scalar row words and sampler, and fill_pdep and
 * fill_broadword stay the portable code and the reference, against which
 * compiled tests check the wide code.  In process
 * on a 2-core Xeon KVM guest with AVX-512, the median of five alternating
 * rounds, each the best of 11 calls: a 2e6-step walk on G(2000, 1/2) took
 * 12.2 ns a step against 23.3 ns for a walk that drew one Philox block
 * every 4 steps and placed each entry on its vertex's previous visit, and
 * gen_gnp(2000, 1/2) 4.2 ms against 13.3 ms.
 *
 * Vertex ids are int32, since a graph has fewer than 2^31 vertices, and
 * an edge key u * n + v, u < v, is int64, formed only after widening.
 * A dense qwalk.graph.Graph keeps its adjacency bit rows as its one edge
 * store, with its row starts indptr: n rows of w = ceil(n / 64) words, row
 * v holding neighbour u as bit u % 64 of word u / 64.  Its rows come from
 * qw_consume, which marks the edges of a walk or a tree image in them as
 * it takes their entries, from qw_mark_pairs, which marks vertex pairs in
 * them, those of a walk's trace or the edges of a graph built from keys,
 * from qw_gnp, which draws G(n, p) into them, or from K_n's rows; no key
 * is made, and the graph counts its edges from the rows' popcounts.
 * qw_consume sets one bit of each edge, and qw_gnp the bits above the
 * diagonal; each then makes its rows symmetric once, a 64 x 64 block at a
 * time (mirror).  qw_consume takes each list
 * entry of such a graph from its rows, as the set bit of the entry's rank
 * found by select (pdep where the CPU runs it fast), so no indices are
 * made either; qwalk.graph reads them, keys and dense matrices out of the
 * rows in numpy when they are asked for.
 *
 * qw_sampled_counts draws every set size and every subset of
 * qwalk.certify.discrepancy_sampled and counts each of its e(A, B) as
 * popcounts of the rows in one call.  Its trials, and qw_gnp's rows, run
 * on POSIX threads (on_threads), which claim them one at a time; since a
 * trial's or a row's words are Philox blocks at counters fixed by its
 * number, any thread can run any of them, and the results are those that
 * one thread gives.  A long walk's chunks are filled ahead by a helper
 * thread (struct ahead), which the walker asks for a vertex's next four
 * chunks at a time and never waits on; it copies each chunk that the
 * helper has made and fills any other itself, so its outputs are those of
 * one thread.  Without the wide code, the counts have a popcnt clone on x86-64
 * glibc: at plain -O2, __builtin_popcountll calls libgcc's table-driven
 * __popcountdi2 instead.
 *
 * Built with -O2 -pthread on first use by qwalk.rng and called through
 * ctypes, which releases the GIL for the call; the threads run C alone.
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <string.h>
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

#if defined(__x86_64__) && defined(__GLIBC__)
#define WIDE __attribute__((target("avx512f,avx512vpopcntdq,popcnt")))

/* Whether the CPU runs the wide code: AVX-512 Foundation for Philox, the
 * subset sampler's compress and compares, and VPOPCNTDQ for its counts */
static int has_wide(void)
{
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vpopcntdq");
}

/* The high word of m x in each lane, m = (mh << 32) + ml, and its low word
 * in ``lo``, from four 32 x 32 -> 64 bit products (vpmuludq), since
 * AVX-512 has no 64 x 64 -> 128 bit one.  With x = (xh << 32) + xl, the
 * sums a = xh ml + (xl ml >> 32) and b = xl mh + (a mod 2^32) cannot
 * overflow, and m x = (xh mh << 64) + ((a >> 32) << 64) + (b << 32)
 * + (xl ml mod 2^32). */
WIDE static inline __m512i mul_hi_lo(__m512i x, __m512i ml, __m512i mh, __m512i *lo)
{
    const __m512i low = _mm512_set1_epi64(0xffffffff);
    __m512i xh = _mm512_srli_epi64(x, 32), ll = _mm512_mul_epu32(x, ml);
    __m512i a = _mm512_add_epi64(_mm512_mul_epu32(xh, ml), _mm512_srli_epi64(ll, 32));
    __m512i b = _mm512_add_epi64(_mm512_mul_epu32(x, mh), _mm512_and_si512(a, low));

    /* 0xf8: (b << 32) | (ll & low) */
    *lo = _mm512_ternarylogic_epi64(_mm512_slli_epi64(b, 32), ll, low, 0xf8);
    return _mm512_add_epi64(_mm512_add_epi64(_mm512_mul_epu32(xh, mh),
                                             _mm512_srli_epi64(a, 32)),
                            _mm512_srli_epi64(b, 32));
}

/* philox_block at counters ctr .. ctr + 8 chains - 1 into out[0 .. 32 chains - 1]
 * in stream order, for chains 1 or 2: each chain holds 8 blocks, one a
 * lane of c0..c3, and two vpermt2q steps interleave them into their
 * words.  One chain of 10 rounds is bound by the latency of its products,
 * so two interleaved chains draw words faster: in a C harness on a 2-core
 * Xeon KVM guest with AVX-512, a word took 2.0-2.2 ns against 2.7-2.8 ns
 * for one chain, in three alternating runs. */
WIDE static inline __attribute__((always_inline))
void philox_lanes(const uint64_t key[2], uint64_t ctr, int chains, uint64_t *out)
{
    const __m512i m0l = _mm512_set1_epi64(0xE14C6C93), m0h = _mm512_set1_epi64(0xD2E7470E);
    const __m512i m1l = _mm512_set1_epi64(0x95121157), m1h = _mm512_set1_epi64(0xCA5A8263);
    const __m512i pair_lo = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i pair_hi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    const __m512i quad_lo = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i quad_hi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    __m512i c0[2], c1[2], c2[2], c3[2], lo0, lo1, hi0, hi1, a, b, k0, k1;
    int r, h;

#pragma GCC unroll 2
    for (h = 0; h < chains; h++) {
        c0[h] = _mm512_add_epi64(_mm512_set1_epi64((int64_t)(ctr + 8 * (uint64_t)h)),
                                 _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
        c1[h] = c2[h] = c3[h] = _mm512_setzero_si512();
    }
    for (r = 0; r < 10; r++) {
        k0 = _mm512_set1_epi64((int64_t)(key[0] + (uint64_t)r * 0x9E3779B97F4A7C15u));
        k1 = _mm512_set1_epi64((int64_t)(key[1] + (uint64_t)r * 0xBB67AE8584CAA73Bu));
#pragma GCC unroll 2
        for (h = 0; h < chains; h++) {
            hi0 = mul_hi_lo(c0[h], m0l, m0h, &lo0);
            hi1 = mul_hi_lo(c2[h], m1l, m1h, &lo1);
            /* 0x96: the xor of all three */
            c0[h] = _mm512_ternarylogic_epi64(hi1, c1[h], k0, 0x96);
            c1[h] = lo1;
            c2[h] = _mm512_ternarylogic_epi64(hi0, c3[h], k1, 0x96);
            c3[h] = lo0;
        }
    }
#pragma GCC unroll 2
    for (h = 0; h < chains; h++, out += 32) {
        /* a, b: words 0, 1 and 2, 3 of blocks 0..3, then of blocks 4..7 */
        a = _mm512_permutex2var_epi64(c0[h], pair_lo, c1[h]);
        b = _mm512_permutex2var_epi64(c2[h], pair_lo, c3[h]);
        _mm512_storeu_si512(out, _mm512_permutex2var_epi64(a, quad_lo, b));
        _mm512_storeu_si512(out + 8, _mm512_permutex2var_epi64(a, quad_hi, b));
        a = _mm512_permutex2var_epi64(c0[h], pair_hi, c1[h]);
        b = _mm512_permutex2var_epi64(c2[h], pair_hi, c3[h]);
        _mm512_storeu_si512(out + 16, _mm512_permutex2var_epi64(a, quad_lo, b));
        _mm512_storeu_si512(out + 24, _mm512_permutex2var_epi64(a, quad_hi, b));
    }
}
#else
#define WIDE

static int has_wide(void)
{
    return 0;
}

/* philox_lanes where no CPU has the wide code: has_wide keeps it uncalled */
static void philox_lanes(const uint64_t key[2], uint64_t ctr, int chains, uint64_t *out)
{
    int i;

    for (i = 0; i < 8 * chains; i++)
        philox_block(key, ctr + (uint64_t)i, out + 4 * i);
}
#endif

/* 8 blocks from counter ctr, one chain, into out[0..31] */
WIDE static void philox_8(const uint64_t key[2], uint64_t ctr, uint64_t out[32])
{
    philox_lanes(key, ctr, 1, out);
}

/* 16 blocks from counter ctr, two chains, into out[0..63] */
WIDE static void philox_16(const uint64_t key[2], uint64_t ctr, uint64_t out[64])
{
    philox_lanes(key, ctr, 2, out);
}

/* Words start .. start+count-1 of the stream keyed ``key`` into out[0..count-1]:
 * each whole run of 16 blocks that they cover by philox_16 and a last
 * whole run of 8 by philox_8, where the CPU has the wide code, and every
 * other block by philox_block, the reference.  On a 2-core Xeon KVM guest
 * with AVX-512, the best of 2000 calls for 2000 words took 4.8-5.1 us this
 * way against 6.2-6.4 us by philox_8 alone, in three alternating runs;
 * philox_8 had taken 5.4-5.8 us against 9.3-12.7 us by philox_block. */
static void philox_run(const uint64_t key[2], int64_t start, int64_t count, uint64_t *out)
{
    uint64_t block[4];
    int64_t j = start, end = start + count;
    int wide = count >= 32 && has_wide();

    while (j < end) {
        if (wide && j % 4 == 0 && end - j >= 32) {
            if (end - j >= 64) {
                philox_16(key, (uint64_t)(j / 4 + 1), out + (j - start));
                j += 64;
            } else {
                philox_8(key, (uint64_t)(j / 4 + 1), out + (j - start));
                j += 32;
            }
            continue;
        }
        philox_block(key, (uint64_t)(j / 4 + 1), block);
        do
            out[j - start] = block[j % 4];
        while (++j < end && j % 4);
    }
}

static double to_double(uint64_t w)
{
    return (double)(w >> 11) * (1.0 / 9007199254740992.0);
}

/* words a stack buffer holds for philox_run */
#define STACK_WORDS 256

/* Doubles for words start .. start+count-1 of stream (seed, domain, index). */
void qw_words(uint64_t seed, uint32_t domain, uint32_t index,
              int64_t start, int64_t count, double *out)
{
    uint64_t key[2], words[STACK_WORDS];
    int64_t i, k, c;

    seed_key(seed, domain, index, key);
    for (i = 0; i < count; i += c) {
        c = count - i < STACK_WORDS ? count - i : STACK_WORDS;
        philox_run(key, start + i, c, words);
        for (k = 0; k < c; k++)
            out[i + k] = to_double(words[k]);
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
 * 10 pairs. */
__attribute__((target("bmi2")))
static int64_t select_pdep(uint64_t x, int64_t r)
{
    return __builtin_ctzll(_pdep_u64((uint64_t)1 << r, x));
}

/* Whether the CPU runs pdep fast: Zen 1 and Zen 2 run it in microcode, at
 * a cost that grows with the set bits of the mask, so they take
 * select_broadword. */
static int fast_pdep(void)
{
    return __builtin_cpu_supports("bmi2") && !__builtin_cpu_is("znver1")
           && !__builtin_cpu_is("znver2");
}
#endif

/* A graph's neighbour lists as qw_consume reads them: the CSR ``indices``
 * of indptr, or the bit rows, w words a row, with ``ranks``, the set bits
 * of a row before each of its words. */
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
 * to word floor(u w), which is tried first; a binary search of the ranks
 * is the fallback. */
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

/* A vertex's chunk: its next entries, 32 uint16 ids where the host has at
 * most 2^16 vertices (``small``), else 16 int32 ids, 64 bytes either way */
#define CHUNK_BYTES 64

/* The uint64 words of a vertex's key and chunk */
#define STATE_WORDS (2 + CHUNK_BYTES / 8)

/* Entry k of ``chunk`` set to vertex v */
static inline __attribute__((always_inline))
void put(void *chunk, int small, int64_t k, int64_t v)
{
    if (small)
        ((uint16_t *)chunk)[k] = (uint16_t)v;
    else
        ((int32_t *)chunk)[k] = (int32_t)v;
}

/* A chunk of x, d its degree, from ``words``, the c words of its stream
 * that it stands for, c the chunk's size: each entry placed and selected
 * apart from the others, so that none waits on another. */
static inline __attribute__((always_inline))
void fill(struct lists g, int64_t (*select)(uint64_t, int64_t), const uint64_t *words,
          int64_t x, int64_t d, int small, void *chunk)
{
    int64_t k, c = small ? 32 : 16;

    for (k = 0; k < c; k++)
        put(chunk, small, k, neighbour(g, select, x, place(g, select, x, to_double(words[k]), d)));
}

/* fill on the ``indices`` of a graph built from keys */
static void fill_indices(struct lists g, const uint64_t *words, int64_t x, int64_t d,
                         int small, void *chunk)
{
    fill(g, NULL, words, x, d, small, chunk);
}

/* fill on bit rows by select_broadword, the portable select */
static void fill_broadword(struct lists g, const uint64_t *words, int64_t x, int64_t d,
                           int small, void *chunk)
{
    fill(g, select_broadword, words, x, d, small, chunk);
}

#if defined(__x86_64__) && defined(__GLIBC__)
/* fill on bit rows by select_pdep, compiled for bmi2 so that it inlines */
__attribute__((target("bmi2")))
static void fill_pdep(struct lists g, const uint64_t *words, int64_t x, int64_t d,
                      int small, void *chunk)
{
    fill(g, select_pdep, words, x, d, small, chunk);
}

#define WIDE_FILL __attribute__((target("avx512f,avx512dq,bmi2,popcnt")))

/* How many of the 32 int32 in lo and hi are at most k */
WIDE_FILL static inline int64_t count_at_most(__m512i lo, __m512i hi, int64_t k)
{
    const __m512i ks = _mm512_set1_epi32((int32_t)k);

    return __builtin_popcount(_mm512_cmple_epi32_mask(lo, ks))
           + __builtin_popcount(_mm512_cmple_epi32_mask(hi, ks));
}

/* The row word of each of 16 ranks ks in the row whose w <= 32 words open
 * at ranks r[0..w-1], the last word whose first rank is at most the
 * entry's, and in ``in_word`` the entry's rank in that word.  The row's
 * ranks sit in two registers, lo and hi, the lanes past w held at
 * INT32_MAX.  Rank 0 opens word 0, so a binary search that steps 16, 8,
 * 4, 2 and 1 words on while the rank there is at most the entry's finds
 * it, each step one two-register permute and one compare for all 16
 * entries. */
WIDE_FILL static inline __m512i row_words(const int32_t *r, int64_t w, __m512i ks,
                                          __m512i *in_word)
{
    const __m512i past = _mm512_set1_epi32(INT32_MAX);
    __m512i lo = _mm512_mask_loadu_epi32(past, (__mmask16)(w >= 16 ? 0xffff : (1u << w) - 1), r);
    __m512i hi = _mm512_mask_loadu_epi32(past, (__mmask16)(w <= 16 ? 0 : (1u << (w - 16)) - 1),
                                         r + 16);
    __m512i at = _mm512_setzero_si512(), up;
    int step;

    for (step = 16; step; step >>= 1) {
        up = _mm512_add_epi32(at, _mm512_set1_epi32(step));
        at = _mm512_mask_mov_epi32(
            at, _mm512_cmple_epi32_mask(_mm512_permutex2var_epi32(lo, up, hi), ks), up);
    }
    *in_word = _mm512_sub_epi32(ks, _mm512_permutex2var_epi32(lo, at, hi));
    return at;
}

/* fill_pdep with the rank of each entry computed 16 at a time, bit for
 * bit as place does, and its row word found apart from the others.
 * Where the row has w <= 32 words, row_words finds the words of 16
 * entries at a time, and their ranks in them, for pdep to select.  A
 * wider row is counted in the 32 ranks around the guess floor(u w): the
 * word is the last of those at most the entry's rank, and an entry whose
 * word lies outside them takes place's binary search.  In a C harness on
 * a 2-core Xeon KVM guest with AVX-512, the best of five timings of 63,500
 * fills of G(2000, 1/2) took 5.3-5.7 ns an entry, in five alternating
 * runs, against 6.0-7.7 ns with each word found by its own count of the
 * row's ranks at most the entry's, of which Philox took 2.6-2.9 ns;
 * fill_pdep took 9.7-12.7 ns and fill_broadword 17.4-19.5 ns. */
WIDE_FILL static void fill_wide(struct lists g, const uint64_t *words, int64_t x, int64_t d,
                                int small, void *chunk)
{
    const int32_t *r = g.ranks + x * g.w;
    const uint64_t *row = g.rows + x * g.w;
    const __m512d scale = _mm512_set1_pd(1.0 / 9007199254740992.0);
    const __m512d degree = _mm512_set1_pd((double)d);
    int32_t ranks[32], at[32];
    int64_t k, c = small ? 32 : 16, w = g.w;

    for (k = 0; k < c; k += 16) {
        __m512d u0 = _mm512_mul_pd(
            _mm512_cvtepi64_pd(_mm512_srli_epi64(_mm512_loadu_si512(words + k), 11)), scale);
        __m512d u1 = _mm512_mul_pd(
            _mm512_cvtepi64_pd(_mm512_srli_epi64(_mm512_loadu_si512(words + k + 8), 11)), scale);
        __m512i ks = _mm512_inserti64x4(
            _mm512_castsi256_si512(_mm512_cvttpd_epi32(_mm512_mul_pd(u0, degree))),
            _mm512_cvttpd_epi32(_mm512_mul_pd(u1, degree)), 1);
        if (w <= 32)
            _mm512_storeu_si512(at + k, row_words(r, w, ks, &ks));
        _mm512_storeu_si512(ranks + k, ks);
    }
    if (w <= 32) {
        /* ranks[k] is the entry's rank in its word */
        for (k = 0; k < c; k++)
            put(chunk, small, k, 64 * at[k] + select_pdep(row[at[k]], ranks[k]));
        return;
    }
    for (k = 0; k < c; k++) {
        double u = to_double(words[k]);
        int64_t rank = ranks[k], s = (int64_t)(u * (double)w) - 16, in, i;

        s = s < 0 ? 0 : s > w - 32 ? w - 32 : s;
        in = count_at_most(_mm512_loadu_si512(r + s), _mm512_loadu_si512(r + s + 16), rank);
        if (in == 0 || (in == 32 && s + 32 < w && r[s + 32] <= rank)) {
            put(chunk, small, k, neighbour(g, select_pdep, x, place(g, select_pdep, x, u, d)));
            continue;
        }
        i = s + in - 1;
        put(chunk, small, k, 64 * i + select_pdep(row[i], rank - r[i]));
    }
}

/* Whether the CPU runs fill_wide: AVX-512F, AVX-512DQ for the rank
 * conversions, and a fast pdep */
static int has_wide_fill(void)
{
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") && fast_pdep();
}
#endif

/* The 64 x 64 bit block a[0..63], bit j of a[i] its entry (i, j),
 * transposed in place: the swap of its two off-diagonal 32 x 32 blocks,
 * then of those of each 32 x 32 block, down to single bits (Warren,
 * "Hacker's Delight", 2nd ed., 7-3). */
static void transpose64(uint64_t a[64])
{
    uint64_t m = 0x00000000ffffffffu, t;
    int j, k;

    for (j = 32; j; j >>= 1, m ^= m << j)
        for (k = 0; k < 64; k = (k + j + 1) & ~j) {
            t = (a[k] >> j ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
        }
}

/* Makes n bit rows in the header's layout symmetric: each 64 x 64 block
 * ORs in the transpose of its partner across the diagonal, a diagonal
 * block its own.  A clear block, as each below qw_gnp's diagonal is, is
 * not transposed. */
static void mirror(int64_t n, uint64_t *rows)
{
    int64_t w = (n + 63) / 64, I, J, r;
    uint64_t a[64], b[64], in_a, in_b;

    for (I = 0; I < w; I++)
        for (J = I; J < w; J++) {
            for (r = 0, in_a = in_b = 0; r < 64; r++) {
                in_a |= a[r] = 64 * I + r < n ? rows[(64 * I + r) * w + J] : 0;
                in_b |= b[r] = 64 * J + r < n ? rows[(64 * J + r) * w + I] : 0;
            }
            if (in_a)
                transpose64(a);
            if (in_b)
                transpose64(b);
            for (r = 0; r < 64 && 64 * J + r < n; r++)
                rows[(64 * J + r) * w + I] |= a[r];
            for (r = 0; r < 64 && 64 * I + r < n; r++)
                rows[(64 * I + r) * w + J] |= b[r];
        }
}

typedef void (*filler)(struct lists, const uint64_t *, int64_t, int64_t, int, void *);

/* x's chunk of entries t + 1 .. t + c, t a multiple of c, the chunk's
 * size: words t .. t + c - 1 of its stream, drawn at once by philox_run,
 * made into entries by ``fill`` */
static void draw_fill(struct lists g, filler fill, const uint64_t key[2], int64_t x, int64_t t,
                      int small, void *chunk)
{
    uint64_t words[32];

    philox_run(key, t, small ? 32 : 16, words);
    fill(g, words, x, g.indptr[x + 1] - g.indptr[x], small, chunk);
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

/* The chunks of a group, which one request to a walk's helper makes */
#define GROUP 4

/* The uint64 words of a vertex's slot in a helper's work: a line whose
 * first word, the tag, is 1 + the number of the group that the slot
 * holds, 0 for none, then the group's chunks */
#define SLOT_WORDS (8 + GROUP * CHUNK_BYTES / 8)

/* The requests that a walk's ring holds, a power of 2: enough for one
 * request of each vertex of G(4096, p), since a walk's vertices reach
 * their first groups and the ends of their next few at about the same time */
#ifndef RING
#define RING 4096
#endif

/* A walk and its helper, a second thread that fills its chunks ahead.
 * Chunk k of a vertex lies in group k / GROUP.  As the walker makes x's
 * first chunk it pushes the request (x, 0) into ``ring``, which one thread
 * writes and one reads, and as it reaches the last chunk of each group of
 * x, (x, the next group); it drops a request where the ring is full.  The helper
 * takes each request in turn, draws the group's words in one philox_run,
 * fills its chunks on its stack by the walker's ``fill``, copies them to
 * x's slot and then stores the group's tag with release order.  At each
 * chunk boundary the walker copies the chunk from x's slot where an
 * acquire load of its tag names the chunk's group, and fills it itself
 * otherwise, so it never waits.  Since a chunk is a pure function of
 * (seed, x, k), the outputs do not depend on which thread made it.  The
 * walker reads a slot only once its last request for x is done, and
 * pushes the next after its last read of the group, so the helper never
 * writes a slot that the walker reads.  The ring's indices and the tags
 * are the only handoff, in __atomic builtins alone.  Each group of fields
 * below sits on lines of its own. */
struct ahead {
    /* set before the helper starts */
    uint64_t seed __attribute__((aligned(64))), *slots;
    int64_t (*ring)[2];
    uint32_t domain;
    int small;
    struct lists g;
    filler fill;
    /* written by the walker: requests pushed, and set once the walk ends */
    int64_t head __attribute__((aligned(64))), done;
    /* written by the helper: requests taken */
    int64_t tail __attribute__((aligned(64)));
    /* the walker's own: tail as last read, and the chunks it copied and filled */
    int64_t seen __attribute__((aligned(64))), copied, filled;
};

/* The helper of a walk, on a thread of its own until the walk ends.  As
 * it takes a request it brings the next one's slot, rank row and row
 * words into its cache: on G(2000, 1/2) that cut its time a request from
 * about 2,000 to 1,600 cycles, and a 2e6-step walk from 15.8 to 15.1 ms
 * (medians of 31 alternating calls in process, 2-vCPU Xeon KVM guest). */
static void *fill_ahead(void *arg)
{
    struct ahead *a = arg;
    uint64_t key[2], words[GROUP * 32], chunks[GROUP * CHUNK_BYTES / 8], *slot;
    int64_t tail = 0, c = a->small ? 32 : 16, i, x, group;

    while (!__atomic_load_n(&a->done, __ATOMIC_ACQUIRE)) {
        if (tail == __atomic_load_n(&a->head, __ATOMIC_ACQUIRE)) {
            sched_yield();
            continue;
        }
        x = a->ring[tail % RING][0];
        group = a->ring[tail % RING][1];
        __atomic_store_n(&a->tail, ++tail, __ATOMIC_RELEASE);
        if (tail != __atomic_load_n(&a->head, __ATOMIC_ACQUIRE)) {
            int64_t next = a->ring[tail % RING][0];
            const char *line = (const char *)(a->slots + next * SLOT_WORDS);
            for (i = 0; i < SLOT_WORDS * 8; i += 64)
                __builtin_prefetch(line + i, 1);
            for (i = 0; a->g.rows && i < a->g.w * 8; i += 64)
                __builtin_prefetch((const char *)(a->g.rows + next * a->g.w) + i);
            for (i = 0; a->g.rows && i < a->g.w * 4; i += 64)
                __builtin_prefetch((const char *)(a->g.ranks + next * a->g.w) + i);
        }
        seed_key(a->seed, a->domain, (uint32_t)x, key);
        philox_run(key, GROUP * c * group, GROUP * c, words);
        for (i = 0; i < GROUP; i++)
            a->fill(a->g, words + i * c, x, a->g.indptr[x + 1] - a->g.indptr[x], a->small,
                    chunks + i * (CHUNK_BYTES / 8));
        slot = a->slots + x * SLOT_WORDS;
        memcpy(slot + 8, chunks, sizeof chunks);
        __atomic_store_n(slot, (uint64_t)group + 1, __ATOMIC_RELEASE);
    }
    return NULL;
}

/* Pushes the request (x, group) to the helper, unless the ring is full */
static void request(struct ahead *a, int64_t x, int64_t group)
{
    int64_t head = a->head;

    if (head - a->seen == RING) {
        a->seen = __atomic_load_n(&a->tail, __ATOMIC_ACQUIRE);
        if (head - a->seen == RING)
            return;
    }
    a->ring[head % RING][0] = x;
    a->ring[head % RING][1] = group;
    __atomic_store_n(&a->head, head + 1, __ATOMIC_RELEASE);
}

/* x's chunk of entries t + 1 .. t + c into ``chunk``, t a multiple of c:
 * made by draw_fill, or with a helper ``a``, copied from x's slot where
 * its tag names the chunk's group, and at x's first chunk and the last
 * chunk of each group followed by the request for the next group */
static void refill(struct lists g, filler fill, struct ahead *a, const uint64_t key[2],
                   int64_t x, int64_t t, int small, void *chunk)
{
    int64_t k = t / (small ? 32 : 16), group = k / GROUP;
    const uint64_t *slot;

    if (!a) {
        draw_fill(g, fill, key, x, t, small, chunk);
        return;
    }
    slot = a->slots + x * SLOT_WORDS;
    if (__atomic_load_n(slot, __ATOMIC_ACQUIRE) == (uint64_t)group + 1) {
        memcpy(chunk, slot + 8 + k % GROUP * (CHUNK_BYTES / 8), CHUNK_BYTES);
        a->copied++;
    } else {
        draw_fill(g, fill, key, x, t, small, chunk);
        a->filled++;
    }
    if (k == 0 || k % GROUP == GROUP - 1)
        request(a, x, k ? group + 1 : 0);
}

/* Brings x's slot tag and the line of its chunk k into the walker's
 * cache a visit of x before the boundary that reads them, so that the
 * lines come over from the helper's CPU while the walk goes on: a
 * 2e6-step walk on G(2000, 1/2) took 15.1 ms against 16.8 ms without, in
 * the medians above.  Requesting each vertex's first group took it from
 * 16.0 ms to 15.1 ms, and the helper cut it from 22.9 ms. */
static inline void prefetch_slot(const struct ahead *a, int64_t x, int64_t k)
{
    const uint64_t *slot = a->slots + x * SLOT_WORDS;

    __builtin_prefetch(slot);
    __builtin_prefetch(slot + 8 + k % GROUP * (CHUNK_BYTES / 8));
}

/* Image of a tree on the lists of stream domain ``domain``: image[0] is
 * the root, set by the caller, and image[j+1] is the next unused entry of
 * the list of image[parents[j]]; parents == NULL reads parents[j] = j, a
 * walk.  Entry j of v is its neighbour of rank floor(u d(v)), u the double
 * of word j - 1 of its stream, counted from 0 in ascending order.
 *
 * Vertex v keeps in state[10v..10v+9] its Philox key, derived when its
 * first entry is taken, and its chunk, the entries of the c words from
 * c floor(t / c) on, where t = taken[v] counts the entries taken and c is
 * the chunk's size; its next entry, that of word t, sits in next[v], an
 * int32 array of n after the n chunks.  A step takes next[x], counts it
 * and reads the entry after it from the chunk, which ``refill`` makes anew
 * whenever t reaches a multiple of c.  So a step waits on one load, from
 * next, and a run of siblings, positions of equal parents[j], reads
 * consecutive entries of one chunk, keeping x, t and the next entry in
 * registers and storing taken[x] and next[x] once, when it ends.
 *
 * With ``marks``, n clear bit rows in the header's layout, each entry y
 * taken from x's list sets bit y of row x; a walk then writes no image
 * past image[0].  ``a`` is a walk's helper, or NULL.
 */
static inline __attribute__((always_inline))
int64_t consume(uint64_t seed, uint32_t domain, struct lists g, filler fill, struct ahead *a,
                int64_t n, uint64_t *state, int64_t *taken, const int32_t *parents, int64_t m,
                int32_t *image, uint64_t *marks)
{
    int small = n <= (int64_t)1 << 16;
    int64_t j = 0, last = small ? 31 : 15, y = image[0];
    int32_t *next = (int32_t *)(state + n * STATE_WORDS);

    while (j < m) {
        int64_t p = parents ? parents[j] : 0, x = parents ? image[p] : y, t = taken[x], z;
        uint64_t *key = state + x * STATE_WORDS;
        void *chunk = key + 2;

        if (t == 0) {
            if (g.indptr[x + 1] == g.indptr[x])
                break;
            seed_key(seed, domain, (uint32_t)x, key);
            refill(g, fill, a, key, x, 0, small, chunk);
            next[x] = small ? *(uint16_t *)chunk : *(int32_t *)chunk;
        }
        z = next[x];
        do {
            y = z;
            if (marks)
                marks[x * g.w + y / 64] |= (uint64_t)1 << (y % 64);
            if (parents || !marks)
                image[j + 1] = (int32_t)y;
            if ((++t & last) == 0)
                refill(g, fill, a, key, x, t, small, chunk);
            else if (a && (t & last) == last)
                prefetch_slot(a, x, (t + 1) / (last + 1));
            z = small ? ((uint16_t *)chunk)[t & last] : ((int32_t *)chunk)[t & last];
        } while (++j < m && parents && parents[j] == p);
        taken[x] = t;
        next[x] = (int32_t)z;
    }
    return j;
}

/* consume on the lists of the graph with row starts indptr[0..n]: its
 * ``indices`` when ``rows`` is NULL, else its bit rows and ``ranks``,
 * int32 [v * w + i] the set bits of words 0..i-1 of row v, where a
 * neighbour is taken by select: fill_wide where the CPU has AVX-512F and
 * AVX-512DQ and runs pdep fast, fill_pdep where it only runs pdep fast,
 * and fill_broadword elsewhere.  ``state`` holds n (2 + CHUNK_BYTES / 8)
 * words and then n int32, zeroed before the first call.  The caller checks
 * that parents[j] lies in 0..j.  ``marks`` is NULL, or n zeroed bit rows
 * in which the tree's or the walk's edges are marked as its entries are
 * taken, and which mirror makes symmetric once the loop ends; a walk given
 * them writes no image.  Returns m on success, or else the first position
 * j at which the list's vertex has no neighbours, after taking the
 * entries before j.
 *
 * A walk (parents == NULL) given ``threads`` >= 2 runs with a helper
 * (struct ahead) on a thread pinned apart from the caller by pin_apart,
 * where one can be started; a walk whose helper does not start fills
 * every chunk itself.  ``work`` then holds 16 + 2 RING + SLOT_WORDS n
 * zeroed words: from the first 64-byte boundary past work[7] the ring and
 * then the vertices' slots, and in work[0] and work[1] the call writes
 * how many chunks the walker copied from the slots and how many it filled
 * itself, first chunks included.  A tree, or ``threads`` 1, takes no
 * helper and leaves ``work``, which may be NULL, as it is.
 * qwalk.walks passes threads = 2 for walks of 2^18 steps or more where
 * the process may use 2 CPUs and the work, 320 bytes a vertex and the
 * 64 kB ring, is no larger than the host's neighbour storage: in process
 * a 2e6-step walk on G(2000, 1/2) then took 8.9 ns a step against
 * 12.9 ns on one thread (2-vCPU Xeon KVM guest).
 */
int64_t qw_consume(uint64_t seed, uint32_t domain, int64_t n, const int64_t *indptr,
                   const int32_t *indices, const uint64_t *rows, const int32_t *ranks,
                   uint64_t *state, int64_t *taken, const int32_t *parents, int64_t m,
                   int32_t *image, uint64_t *marks, int64_t threads, uint64_t *work)
{
    struct lists g = {indptr, indices, rows, ranks, (n + 63) / 64};
    filler fill = rows ? fill_broadword : fill_indices;
    struct ahead ahead, *a = threads > 1 && !parents ? &ahead : NULL;
    pthread_attr_t attr;
    pthread_t helper;
    int started = 0;
    int64_t j;

#if defined(__x86_64__) && defined(__GLIBC__)
    if (rows && fast_pdep())
        fill = has_wide_fill() ? fill_wide : fill_pdep;
#endif
    if (a) {
        a->seed = seed;
        a->ring = (int64_t (*)[2])(((uintptr_t)(work + 8) + 63) & ~(uintptr_t)63);
        a->slots = (uint64_t *)(a->ring + RING);
        a->domain = domain;
        a->small = n <= (int64_t)1 << 16;
        a->g = g;
        a->fill = fill;
        a->head = a->done = a->tail = a->seen = a->copied = a->filled = 0;
        if (pthread_attr_init(&attr) == 0) {
            pin_apart(&attr, 1);
            started = pthread_create(&helper, &attr, fill_ahead, a) == 0;
            pthread_attr_destroy(&attr);
        }
    }
    /* consume inlined three times, so that no loop tests marks at each step */
    if (marks && !parents)
        j = consume(seed, domain, g, fill, a, n, state, taken, NULL, m, image, marks);
    else if (marks)
        j = consume(seed, domain, g, fill, NULL, n, state, taken, parents, m, image, marks);
    else
        j = consume(seed, domain, g, fill, a, n, state, taken, parents, m, image, NULL);
    if (a) {
        __atomic_store_n(&a->done, 1, __ATOMIC_RELEASE);
        if (started)
            pthread_join(helper, NULL);
        work[0] = (uint64_t)a->copied;
        work[1] = (uint64_t)a->filled;
    }
    if (marks)
        mirror(n, marks);
    return j;
}

/* Marks the pairs (us[i], vs[i]) in ``rows``, n rows in the header's bit
 * row layout: pair (u, v) sets bit v of row u and bit u of row v.  A first
 * pass writes nothing: it returns -1 when an endpoint lies outside
 * 0..n-1 or a pair is a self-loop.  Returns 0 once every pair is marked;
 * qwalk.graph counts the edges from the rows' popcounts.
 */
int64_t qw_mark_pairs(int64_t n, const int32_t *us, const int32_t *vs, int64_t m,
                      uint64_t *rows)
{
    int64_t i, w = (n + 63) / 64;

    for (i = 0; i < m; i++)
        if (us[i] < 0 || us[i] >= n || vs[i] < 0 || vs[i] >= n || us[i] == vs[i])
            return -1;
    for (i = 0; i < m; i++) {
        int64_t u = us[i], v = vs[i];
        rows[u * w + v / 64] |= (uint64_t)1 << (v % 64);
        rows[v * w + u / 64] |= (uint64_t)1 << (u % 64);
    }
    return 0;
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

/* The first step of a set of the subset sampler: words start .. start+n-1
 * of the stream keyed ``key``, each shifted right by 11, into ``vals``, and
 * the bucket of the top ``bits`` bits of those that holds the one of rank
 * k (0-based), found by a histogram into ``hist``, 2^bits counts; the words
 * in lower buckets are counted into ``below``.
 */
static int64_t cut_bucket(const uint64_t key[2], int64_t start, int64_t n, int64_t k,
                          int bits, uint64_t *vals, int64_t *hist, int64_t *below)
{
    int64_t v, b;
    int shift = 53 - bits;

    for (b = 0; b < (int64_t)1 << bits; b++)
        hist[b] = 0;
    philox_run(key, start, n, vals);
    for (v = 0; v < n; v++) {
        vals[v] >>= 11;
        hist[vals[v] >> shift]++;
    }
    for (*below = 0, b = 0; *below + hist[b] <= k; b++)
        *below += hist[b];
    return b;
}

/* One set of the subset sampler into ``mask``, its ceil(n / 64) words:
 * the vertices v whose word start + v of the stream keyed ``key`` is at
 * most the size-th smallest of the n words, ties included.  That is
 * qwalk.certify's rule u <= cut on their doubles, since the double
 * (x >> 11) * 2^-53 of word x is exact and increasing in x >> 11, which
 * is what the kernel compares.  cut_bucket finds the bucket that holds the
 * cut's rank, and a selection among that bucket's words finds the cut.
 * ``vals`` and ``cand`` hold n words each, ``hist`` 2^bits counts.
 */
static void subset_mask(const uint64_t key[2], int64_t start, int64_t n, int64_t size,
                        int bits, uint64_t *vals, uint64_t *cand, int64_t *hist,
                        uint64_t *mask)
{
    uint64_t cut;
    int64_t v, i, below, c = 0;
    int64_t b = cut_bucket(key, start, n, size - 1, bits, vals, hist, &below);

    for (v = 0; v < n; v++) {
        /* a store at every v, kept by the count only in bucket b */
        cand[c] = vals[v];
        c += (int64_t)(vals[v] >> (53 - bits)) == b;
    }
    cut = select_rank(cand, c, size - 1 - below);
    for (v = 0; v < n; v += 64) {
        uint64_t word = 0;
        for (i = 0; i < 64 && v + i < n; i++)
            word |= (uint64_t)(vals[v + i] <= cut) << i;
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

#if defined(__x86_64__) && defined(__GLIBC__)
/* subset_mask in AVX-512: vpcompressq keeps the words of the cut's bucket,
 * 8 at a time, and each set word is built from 8-lane compares with the
 * cut; a scalar tail takes the last n % 8 words, so nothing is read or
 * written past vals[n - 1] or cand[n - 1]. */
WIDE static void subset_mask_wide(const uint64_t key[2], int64_t start, int64_t n,
                                  int64_t size, int bits, uint64_t *vals, uint64_t *cand,
                                  int64_t *hist, uint64_t *mask)
{
    uint64_t cut;
    int64_t v, i, below, c = 0, whole = n - n % 8;
    int64_t b = cut_bucket(key, start, n, size - 1, bits, vals, hist, &below);
    const __m512i shift = _mm512_set1_epi64(53 - bits), bucket = _mm512_set1_epi64(b);
    __m512i cuts;

    for (v = 0; v < whole; v += 8) {
        /* all 8 lanes stored, the kept ones first: c <= v, so they fit */
        __m512i x = _mm512_loadu_si512(vals + v);
        __mmask8 in = _mm512_cmpeq_epi64_mask(_mm512_srlv_epi64(x, shift), bucket);
        _mm512_storeu_si512(cand + c, _mm512_maskz_compress_epi64(in, x));
        c += __builtin_popcount(in);
    }
    for (; v < n; v++) {
        cand[c] = vals[v];
        c += (int64_t)(vals[v] >> (53 - bits)) == b;
    }
    cut = select_rank(cand, c, size - 1 - below);
    cuts = _mm512_set1_epi64((int64_t)cut);
    for (v = 0; v < n; v += 64) {
        uint64_t word = 0;
        for (i = 0; i < 64 && v + i < whole; i += 8)
            word |= (uint64_t)_mm512_cmple_epu64_mask(_mm512_loadu_si512(vals + v + i), cuts)
                    << i;
        for (; i < 64 && v + i < n; i++)
            word |= (uint64_t)(vals[v + i] <= cut) << i;
        mask[v / 64] = word;
    }
}

/* row_counts in AVX-512: vpopcntq over each whole 8-word group of a row
 * and T, and a scalar tail over its last w % 8 words */
WIDE static int64_t row_counts_wide(int64_t n, int64_t w, const uint64_t *rows,
                                    const uint64_t *s, int flip, const uint64_t *t)
{
    int64_t i, j, c = 0, whole = w - w % 8;
    __m512i sum = _mm512_setzero_si512();
    uint64_t bits;

    for (i = 0; i < w; i++)
        for (bits = member_word(n, w, s, flip, i); bits; bits &= bits - 1) {
            const uint64_t *r = rows + (64 * i + __builtin_ctzll(bits)) * w;
            for (j = 0; j < whole; j += 8)
                sum = _mm512_add_epi64(sum, _mm512_popcnt_epi64(_mm512_and_si512(
                    _mm512_loadu_si512(r + j), _mm512_loadu_si512(t + j))));
            for (; j < w; j++)
                c += __builtin_popcountll(r[j] & t[j]);
        }
    return c + _mm512_reduce_add_epi64(sum);
}
#endif

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

/* The sampler's 2 trials set sizes into ``sizes``, as numpy's
 * Generator(Philox).integers(lo, n + 1, size=(trials, 2)) of the stream
 * keyed ``key`` draws them: for lo < n, one 32-bit draw x each, the low
 * half of the next word and then its high half, gives lo + (x r) >> 32
 * for the r = n - lo + 1 sizes, and is drawn again while the low 32 bits
 * of x r are below 2^32 mod r (Lemire, "Fast random integer generation
 * in an interval", ACM TOMACS 2019); for lo = n it takes no word.  The
 * next double starts at the next whole word, whose position this returns:
 * qwalk.rng._next_word of numpy's generator.  It takes at most 2 trials
 * words, twice what the sizes take without a repeated draw, and returns
 * -1 as it would take more.  n < 2^31, so r < 2^32 - 1. */
static int64_t draw_sizes(const uint64_t key[2], int64_t lo, int64_t n, int64_t trials,
                          int64_t *sizes)
{
    uint32_t r = (uint32_t)(n - lo + 1), low = (uint32_t)-r % r, x;
    uint64_t block[4], m;
    int64_t i, j = 0;
    int half = 0;

    if (lo == n) {
        for (i = 0; i < 2 * trials; i++)
            sizes[i] = n;
        return 0;
    }
    for (i = 0; i < 2 * trials; i++) {
        do {
            if (half) {
                x = (uint32_t)(block[(j - 1) % 4] >> 32);
            } else {
                if (j == 2 * trials)
                    return -1;
                if (j % 4 == 0)
                    philox_block(key, (uint64_t)(j / 4 + 1), block);
                x = (uint32_t)block[j++ % 4];
            }
            half = !half;
            m = (uint64_t)x * r;
        } while ((uint32_t)m < low);
        sizes[i] = lo + (int64_t)(m >> 32);
    }
    return j;
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
    void (*mask)(const uint64_t *, int64_t, int64_t, int64_t, int, uint64_t *, uint64_t *,
                 int64_t *, uint64_t *) = subset_mask;
    int64_t (*count)(int64_t, int64_t, const uint64_t *, const uint64_t *, int,
                     const uint64_t *) = row_counts;

#if defined(__x86_64__) && defined(__GLIBC__)
    if (has_wide()) {
        mask = subset_mask_wide;
        count = row_counts_wide;
    }
#endif
    /* relaxed: the claims need only be distinct; the join orders e */
    while ((t = __atomic_fetch_add(&s->next, 1, __ATOMIC_RELAXED)) < s->trials) {
        int64_t t0 = t - t % s->block;
        int64_t rows_in_block = s->trials - t0 < s->block ? s->trials - t0 : s->block;
        int64_t start = s->offset + 2 * t0 * n + (t - t0) * n;
        int64_t sa = s->sizes[2 * t], sb = s->sizes[2 * t + 1], least;
        mask(s->key, start, n, sa, s->bits, vals, cand, hist, a);
        mask(s->key, start + rows_in_block * n, n, sb, s->bits, vals, cand, hist, b);
        least = sa < sb ? sa : sb;
        if (n - sa < least || n - sb < least) {
            /* over the complement of the larger set, against the smaller */
            const uint64_t *big = sa > sb ? a : b, *small = sa > sb ? b : a;
            s->e[t] = volume(n, w, s->indptr, small) - count(n, w, s->rows, big, 1, small);
        } else {
            s->e[t] = count(n, w, s->rows, sa < sb ? a : b, 0, sa < sb ? b : a);
        }
    }
    return NULL;
}

/* run(parts + i size) for i = 0 .. threads - 1: part 0 on the calling
 * thread, and each other on a thread of its own pinned apart from the
 * caller by pin_apart, where one can be started; returns once all have
 * ended.  The parts claim their work one item at a time, so a thread that
 * gets less of its CPU does less, and a part whose thread cannot be
 * started does nothing and leaves its items to the others. */
static void on_threads(int64_t threads, void *(*run)(void *), void *parts, size_t size)
{
    pthread_t id[threads];
    pthread_attr_t attr;
    int started[threads];
    int64_t i;

    for (i = 1; i < threads; i++) {
        started[i] = 0;
        if (pthread_attr_init(&attr) == 0) {
            pin_apart(&attr, i);
            started[i] = pthread_create(&id[i], &attr, run, (char *)parts + i * size) == 0;
            pthread_attr_destroy(&attr);
        }
    }
    run(parts);
    for (i = 1; i < threads; i++)
        if (started[i])
            pthread_join(id[i], NULL);
}

/* e[t] = e(A_t, B_t) for the trials of qwalk.certify.discrepancy_sampled
 * on the graph with bit rows ``rows`` and CSR row starts ``indptr``, and
 * the offset of stream (seed, domain, index) past its sizes, which
 * draw_sizes writes into ``sizes`` first; -1, with no trial counted,
 * where they would take more than 2 trials words.
 * Trial t of the block of ``block`` trials (fewer in the last) that
 * starts at t0 draws A_t of size sizes[2t] from words offset + 2 t0 n +
 * (t - t0) n onwards of stream (seed, domain, index), and B_t of size
 * sizes[2t + 1] from the block's own row count b further on: numpy's
 * layout of one (2b, n) draw per block.  Each e(A, B) is counted over the
 * fewest rows: over A, over B, since e(A, B) = e(B, A), or over V \ A or
 * V \ B, since the sum over every v of |N(v) & B| is vol(B), the degrees
 * summed over B.
 *
 * The trials run on_threads on ``threads`` >= 1 threads, each with its
 * own 2 n + 2 ceil(n / 64) words of ``work``, which holds ``threads``
 * times that.  The split is exact: a trial's words are Philox blocks at
 * counters fixed by t, ``offset`` and ``block`` alone, and it writes only
 * e[t], so the counts do not depend on which thread ran it.
 */
int64_t qw_sampled_counts(uint64_t seed, uint32_t domain, uint32_t index, int64_t lo,
                          int64_t n, const uint64_t *rows, const int64_t *indptr,
                          int64_t *sizes, int64_t trials, int64_t block, int64_t threads,
                          uint64_t *work, int64_t *e)
{
    struct sampler s = {{0, 0}, 0, n, trials, block, 0, 0, rows, indptr, sizes, e};
    struct part part[threads];
    int64_t i;

    seed_key(seed, domain, index, s.key);
    s.offset = draw_sizes(s.key, lo, n, trials, sizes);
    if (s.offset < 0)
        return -1;
    /* about two words a bucket */
    while (s.bits < HIST_BITS && (int64_t)2 << s.bits <= n)
        s.bits++;
    for (i = 0; i < threads; i++) {
        part[i].s = &s;
        part[i].work = work + i * (2 * n + 2 * ((n + 63) / 64));
    }
    on_threads(threads, claim_trials, part, sizeof *part);
    return s.offset;
}

/* Bit i set where word i of words[0..count-1], count <= 64, shifted right
 * by 11, is below ``cut``: where its double is below p, for cut =
 * ceil(p 2^53) */
static uint64_t below_cut(const uint64_t *words, int64_t count, uint64_t cut)
{
    uint64_t bits = 0;
    int64_t i;

    for (i = 0; i < count; i++)
        bits |= (uint64_t)(words[i] >> 11 < cut) << i;
    return bits;
}

#if defined(__x86_64__) && defined(__GLIBC__)
/* below_cut on 8 words at a time, the last group's loads masked so that
 * nothing past words[count - 1] is read */
WIDE static uint64_t below_cut_wide(const uint64_t *words, int64_t count, uint64_t cut)
{
    const __m512i cuts = _mm512_set1_epi64((int64_t)cut);
    uint64_t bits = 0;
    int64_t i;

    for (i = 0; i < count; i += 8) {
        __mmask8 in = (__mmask8)(count - i >= 8 ? 0xff : (1u << (count - i)) - 1);
        __m512i x = _mm512_srli_epi64(_mm512_maskz_loadu_epi64(in, words + i), 11);
        bits |= (uint64_t)_mm512_mask_cmplt_epu64_mask(in, x, cuts) << i;
    }
    return bits;
}
#endif

/* The rows of one qw_gnp call, shared by its threads, each of which claims
 * the next unbuilt row, ``next``, until none is left */
struct gnp {
    uint64_t seed, cut, *rows;
    uint32_t domain;
    int64_t n, next;
};

/* row words drawn at a time: 1024 words of a thread's stack */
#define ROW_WORDS 16

/* Builds the words of each claimed row u above the diagonal, the pairs
 * (u, v), u < v: word i, which holds v = 64 i .. 64 i + 63, is built from
 * their words v - u - 1 in a register by below_cut and stored once. */
static void *claim_rows(void *arg)
{
    struct gnp *s = arg;
    uint64_t key[2], words[64 * ROW_WORDS];
    int64_t u, i, k, n = s->n, w = (n + 63) / 64;
    uint64_t (*below)(const uint64_t *, int64_t, uint64_t) = below_cut;

#if defined(__x86_64__) && defined(__GLIBC__)
    if (has_wide())
        below = below_cut_wide;
#endif
    /* relaxed: the claims need only be distinct; the join orders the rows */
    while ((u = __atomic_fetch_add(&s->next, 1, __ATOMIC_RELAXED)) < n - 1) {
        uint64_t *row = s->rows + u * w;
        seed_key(s->seed, s->domain, (uint32_t)u, key);
        for (i = (u + 1) / 64; i < w; i += ROW_WORDS) {
            int64_t v0 = 64 * i > u + 1 ? 64 * i : u + 1, v1 = 64 * (i + ROW_WORDS);
            v1 = v1 < n ? v1 : n;
            philox_run(key, v0 - u - 1, v1 - v0, words);
            for (k = i; k < i + ROW_WORDS && k < w; k++) {
                int64_t lo = 64 * k > v0 ? 64 * k : v0, hi = 64 * k + 64 < v1 ? 64 * k + 64 : v1;
                row[k] = below(words + (lo - v0), hi - lo, s->cut) << (lo - 64 * k);
            }
        }
    }
    return NULL;
}

/* The edges of G(n, p) on stream domain ``domain``: pair (u, v), u < v,
 * is an edge when the double (x >> 11) 2^-53 of word v - u - 1 of stream
 * (seed, domain, u) is below p, the rule of qwalk.graph.gen_gnp's
 * reference, and each edge sets bit v of row u and bit u of row v of
 * ``rows``, n zeroed rows in the header's bit row layout.  That double is
 * below p exactly where x >> 11 is below ceil(p 2^53), which is 2^53 for
 * p = 1, so each row word is built from integer compares.
 *
 * The rows above the diagonal are built on_threads on ``threads`` >= 1
 * threads, which claim them one at a time; a row's words are fixed by its
 * stream, so the rows do not depend on which thread built them.  Then
 * mirror makes them symmetric.  On a 2-core Xeon KVM guest with
 * AVX-512, the best of 11 calls for G(2000, 1/2) took a median 3.5 ms in
 * process on two threads and 5.8 ms on one, over five alternating rounds,
 * against 11.7 ms for two read-modify-writes a pair.
 */
void qw_gnp(uint64_t seed, uint32_t domain, int64_t n, double p, uint64_t *rows,
            int64_t threads)
{
    double scaled = p * 9007199254740992.0;
    struct gnp s = {seed, 0, rows, domain, n, 0};

    if (p >= 1) {
        s.cut = (uint64_t)1 << 53;
    } else if (p > 0) {
        s.cut = (uint64_t)scaled;
        s.cut += (double)s.cut < scaled;
    }
    on_threads(threads, claim_rows, &s, 0);
    mirror(n, rows);
}
