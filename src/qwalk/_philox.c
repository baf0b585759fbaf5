/* Philox list words computed in place, bit for bit as numpy draws them,
 * and the CSR arrays of a graph built in one pass over its edge keys.
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
 * is (w >> 11) * 2^-53.  qw_words, qw_consume and qw_gnp compute these
 * words, and qw_seed_key gives qwalk.rng.derive_seed the first key word.
 *
 * qw_csr fills a qwalk.graph.Graph's indptr and indices from its sorted
 * edge keys u * n + v, u < v, and qw_edge_keys makes those keys from
 * vertex pairs through a bit table, both with the same bytes as the numpy
 * sorts that stay the reference.  qw_gnp sets the bits of G(n, p)'s keys
 * in such a table, and qw_table_keys, which qw_edge_keys calls too, reads
 * any such table out in ascending order.
 *
 * qw_bit_rows packs a graph's adjacency into bit rows, and
 * qw_neighbour_counts counts |N(v) & S| as the popcount of row v and S,
 * the counts behind every e(A, B) of qwalk.certify.  The count has a
 * popcnt clone on x86-64 glibc: at plain -O2, __builtin_popcountll calls
 * libgcc's table-driven __popcountdi2 instead.
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

/* Image of a tree on the lists of stream domain ``domain``: image[0] is
 * the root, set by the caller, and image[j+1] is the next unused entry of
 * the list of image[parents[j]]; parents == NULL reads parents[j] = j, a
 * walk.  Vertex v keeps in state[8v..8v+7] its Philox key, derived when
 * its first entry is taken, the block of the word of the entry after its
 * next one, its next entry itself and the ``indices`` position of the
 * entry after that, and in taken[v] the number of entries taken.
 *
 * A step takes the stored next entry, loads the one after it from the
 * position found at the vertex's previous visit, and prefetches the
 * position of the entry after that.  The step then waits only on state
 * that is cached: the load hits the line that the prefetch brought in,
 * and the prefetch itself retires at once, while the line it asks for
 * arrives during the steps that follow.  A plain load one visit ahead
 * held the reorder buffer until its miss returned, so few steps
 * overlapped; reading each entry when it is taken put one cache miss per
 * step on the critical path.
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
        uint64_t *key = state + 8 * x, *block = key + 2, *next = key + 6, *pos = key + 7;

        if (t == 0) {
            if (d == 0)
                return j;
            seed_key(seed, domain, (uint32_t)x, key);
            philox_block(key, 1, block);
            *next = (uint64_t)indices[lo + (int64_t)(to_double(block[0]) * (double)d)];
            *pos = (uint64_t)(lo + (int64_t)(to_double(block[1]) * (double)d));
        }
        image[j + 1] = (int64_t)*next;
        taken[x] = ++t;
        *next = (uint64_t)indices[*pos];
        /* word t + 1 is the entry after the new next one */
        if ((t + 1) % 4 == 0)
            philox_block(key, (uint64_t)((t + 1) / 4 + 1), block);
        *pos = (uint64_t)(lo + (int64_t)(to_double(block[(t + 1) % 4]) * (double)d));
        __builtin_prefetch(indices + *pos);
    }
    return m;
}

/* Moves (u, base = u * n) forward to the row of key k: keys arrive ascending. */
static void seek_row(int64_t k, int64_t n, int64_t *u, int64_t *base)
{
    while (k - *base >= n) {
        ++*u;
        *base += n;
    }
}

/* CSR arrays of the graph on 0..n-1 whose edges are the keys u * n + v,
 * u < v: indptr[0..n], and indices[0..2m-1] with each row ascending.
 * Every key (w, u), w < u, comes before every key (u, v), so one pass in
 * key order appends to row u its smaller neighbours and then its larger
 * ones, both in order.  This is the counting construction of a sparse
 * matrix and its transpose (Gustavson, ACM TOMS 4(3), 1978) with no sort.
 *
 * A first pass writes nothing: it returns the first position j whose key
 * is not above keys[j-1] or not of the form 0 <= u < v < n.  n * n must
 * fit in int64.  Returns m once the arrays are filled.
 */
int64_t qw_csr(int64_t n, const int64_t *keys, int64_t m,
               int64_t *indptr, int64_t *indices)
{
    int64_t j, x, u = 0, base = 0;

    for (j = 0; j < m; j++) {
        int64_t k = keys[j];
        if ((j > 0 && k <= keys[j - 1]) || k < 0 || k >= n * n)
            return j;
        seek_row(k, n, &u, &base);
        if (k - base <= u)
            return j;
    }
    /* degrees into indptr[x + 1], then row starts into indptr[x] */
    for (x = 0; x <= n; x++)
        indptr[x] = 0;
    for (j = 0, u = 0, base = 0; j < m; j++) {
        seek_row(keys[j], n, &u, &base);
        indptr[u + 1]++;
        indptr[keys[j] - base + 1]++;
    }
    for (x = 0; x < n; x++)
        indptr[x + 1] += indptr[x];
    /* indptr[x] is row x's cursor, which ends at row x + 1's start */
    for (j = 0, u = 0, base = 0; j < m; j++) {
        int64_t v;
        seek_row(keys[j], n, &u, &base);
        v = keys[j] - base;
        indices[indptr[u]++] = v;
        indices[indptr[v]++] = u;
    }
    for (x = n; x > 0; x--)
        indptr[x] = indptr[x - 1];
    indptr[0] = 0;
    return m;
}

/* The set bits of ``table``, n * n bits, in ascending order into ``keys``,
 * which must hold them all.  Returns the number of keys written.
 */
int64_t qw_table_keys(int64_t n, const uint64_t *table, int64_t *keys)
{
    int64_t w, count = 0;
    uint64_t bits;

    for (w = 0; w < (n * n + 63) / 64; w++)
        for (bits = table[w]; bits; bits &= bits - 1)
            keys[count++] = 64 * w + __builtin_ctzll(bits);
    return count;
}

/* Sorted distinct keys min * n + max of the pairs (us[i], vs[i]): each
 * key sets its bit of ``table``, n * n zeroed bits, and the set bits are
 * read out in ascending order, so no key array is sorted.  A first pass
 * writes nothing: it returns -1 when an endpoint lies outside 0..n-1 or a
 * pair is a self-loop.  n * n must fit in int64 and ``keys`` must hold
 * every distinct key.  Returns the number of keys written.
 */
int64_t qw_edge_keys(int64_t n, const int64_t *us, const int64_t *vs, int64_t m,
                     uint64_t *table, int64_t *keys)
{
    int64_t i;

    for (i = 0; i < m; i++)
        if (us[i] < 0 || us[i] >= n || vs[i] < 0 || vs[i] >= n || us[i] == vs[i])
            return -1;
    for (i = 0; i < m; i++) {
        /* min * n + max with a select, not a branch that a walk mispredicts */
        int64_t u = us[i], v = vs[i], a = u < v ? u : v;
        uint64_t k = (uint64_t)(a * n + (u + v - a));
        table[k / 64] |= (uint64_t)1 << (k % 64);
    }
    return qw_table_keys(n, table, keys);
}

/* The keys u * n + v of G(n, p) on stream domain ``domain``: pair (u, v),
 * u < v, is an edge when the double of word v - u - 1 of stream (seed,
 * domain, u) is below p, the rule of qwalk.graph.gen_gnp's reference, and
 * each edge sets its bit of ``table``, n * n zeroed bits.  n * n must fit
 * in int64.  Returns the number of edges; qw_table_keys reads them out.
 */
int64_t qw_gnp(uint64_t seed, uint32_t domain, int64_t n, double p, uint64_t *table)
{
    uint64_t key[2], block[4];
    int64_t u, j, count = 0;

    for (u = 0; u + 1 < n; u++) {
        uint64_t base = (uint64_t)(u * n + u + 1);
        seed_key(seed, domain, (uint32_t)u, key);
        for (j = 0; j < n - u - 1; j++) {
            /* a 0/1 select, not a branch that p = 1/2 mispredicts half the time */
            uint64_t k = base + (uint64_t)j, edge;
            if (j % 4 == 0)
                philox_block(key, (uint64_t)(j / 4 + 1), block);
            edge = to_double(block[j % 4]) < p;
            table[k / 64] |= edge << (k % 64);
            count += (int64_t)edge;
        }
    }
    return count;
}

/* Bit rows of the graph with CSR arrays indptr and indices: row v is
 * rows[v * w .. v * w + w - 1], zeroed by the caller, and neighbour u of v
 * sets bit u % 64 of its word u / 64.
 */
void qw_bit_rows(int64_t n, int64_t w, const int64_t *indptr,
                 const int64_t *indices, uint64_t *rows)
{
    int64_t v, p;

    for (v = 0; v < n; v++)
        for (p = indptr[v]; p < indptr[v + 1]; p++)
            rows[v * w + indices[p] / 64] |= (uint64_t)1 << (indices[p] % 64);
}

/* out[t * n + v] = popcount(row v & sets[t]) = |N(v) & S_t| for each of
 * the k sets, w words each, and each v with among[t * n + v] set, or every
 * v when among is NULL; 0 for the other v.
 */
#if defined(__x86_64__) && defined(__GLIBC__)
__attribute__((target_clones("popcnt", "default")))
#endif
void qw_neighbour_counts(int64_t n, int64_t w, const uint64_t *rows,
                         const uint64_t *sets, const uint8_t *among, int64_t k,
                         int64_t *out)
{
    int64_t t, v, i;

    for (t = 0; t < k; t++) {
        const uint64_t *s = sets + t * w;
        for (v = 0; v < n; v++) {
            const uint64_t *r = rows + v * w;
            int64_t c = 0;
            if (!among || among[t * n + v])
                for (i = 0; i < w; i++)
                    c += __builtin_popcountll(r[i] & s[i]);
            out[t * n + v] = c;
        }
    }
}
