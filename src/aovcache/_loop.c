/* Compiled event loop of aovcache.simulator.run: every policy (Whittle,
 * myopic, static top-M, infinite capacity) in both ageing modes.
 *
 * simulator._compiled_loop calls event_loop once up to the warmup point
 * and once more to the horizon; all state lives in numpy arrays.  The
 * loop seeds the run's three random streams itself (struct stream below)
 * and draws inter-arrival times and content uniforms from them in blocks
 * of BLOCK, with numpy's own samplers, so the draws are those the
 * reference loop (simulator._reference_loop, which steps
 * model.CacheSystemState through the decision rules of policies.py) takes
 * from Generator.exponential and Generator.random.  Every float operation
 * keeps the order of the reference loop, and the build turns off FMA
 * contraction, so the two loops give bit-identical metrics
 * (tests/test_simulator.py runs them in lockstep).
 *
 * Realized-mode version ages are drawn one at a time with numpy's own
 * random_poisson (linked from numpy's libnpyrandom.a) on the bitgen_t of
 * the run's version-age stream, so they are the draws Generator.poisson
 * makes.
 */
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* numpy/random/distributions.h declares these too, but includes Python.h */
extern int64_t random_poisson(bitgen_t *bitgen_state, double lam);
extern void random_standard_exponential_fill(bitgen_t *bitgen_state, intptr_t cnt,
                                             double *out);

/* Generator.poisson rejects lam above this (numpy/random/_common.pyx) */
#define POISSON_LAM_MAX ((double)LONG_MAX - sqrt((double)LONG_MAX) * 10.0)

/* policy codes, as simulator._POLICY_CODE */
enum { WHITTLE, MYOPIC, STATIC_TOP_M, INFINITE_CAPACITY };
/* return values of event_loop */
enum { STOPPED = 0, OCCUPANCY_ERROR = -1, POISSON_DOMAIN_ERROR = -2 };

/* columns of the per-content tables, one row per content */
enum { TAU_STAR, CEILING, INV_STEP, C_ALAM, C_F, C_W, P, P_CF, LAM, C_A, N_CDBL };
enum { Q_STAR, Q_HAT, BP_OFF, N_CINT };
/* running totals; the first six doubles and the first two counts, in
 * this order, form the warmup snapshot */
enum { T, GRAND, Q_INTEGRAL, WAIT_COST, FETCH_COST, AGEING_COST, WQ_RATE, N_ACC };
/* BUFFERED counts the drawn events not yet run */
enum { FETCHES, EVENTS, VIOLATIONS, TOTAL_Q, BUFFERED, N_CNT };

/* Draws per block.  An event-horizon run draws no event beyond its stop;
 * a time-horizon run draws up to BLOCK - 1 events ahead of its last.
 * Blocks of 64 and 1024 ran within the host's noise of 256 (Whittle and
 * static top-M, 20 runs of 30k events on paper.json's costs at N=100). */
#define BLOCK 256

/* Content pick: the inverse CDF of the popularity by a guide table (Chen &
 * Asau 1974, "On generating random variates from an empirical
 * distribution", AIIE Trans. 6(2)).  For every u in [0, 1) it returns
 * np.searchsorted(cum_p, u, side="right"), the id the reference loop picks:
 * - guide has K entries, K a power of two, and guide[k] is
 *   searchsorted(cum_p, k/K, side="right").  Scaling a double by a power
 *   of two moves only its exponent, so u*K and k/K are exact (u from
 *   next_double is a multiple of 2^-53, but any u in [0, 1) will do), and
 *   k = (int64_t)(u*K) is floor(u*K): k < K and k/K <= u.
 * - cum_p is nondecreasing up to its last entry, which simulator clamps
 *   to 1.0; that clamp may fall below an overshooting cum_p[N-2].  Every
 *   entry >= 1.0 exceeds u < 1, so the predicate cum_p[i] <= u holds on a
 *   prefix of the ids and on none after it, and searchsorted's binary
 *   search returns the length of that prefix, for u as for k/K.
 * - k/K <= u, so guide[k] is at most the prefix length for u, and the
 *   scan steps over the rest of the prefix.
 * - cum_p[N-1] = 1.0 > u, so the scan stops at N-1 at the latest.
 * With K >= N the scan takes at most 1 + N/K <= 2 comparisons on average. */
static inline int64_t pick(const double *cum_p, const int64_t *guide, int64_t k, double u)
{
    int64_t r = guide[(int64_t)(u * (double)k)];
    while (cum_p[r] <= u)
        r++;
    return r;
}

/* pick, exported so that a test can compare it with np.searchsorted */
int64_t content_pick(const double *cum_p, const int64_t *guide, int64_t k, double u)
{
    return pick(cum_p, guide, k, u);
}

/* Python's min(a, b): b only when strictly smaller */
static inline double pymin(double a, double b)
{
    return b < a ? b : a;
}

/* The cell of a w_of_tau row (stride cells) that a copy at x = tau * inv
 * reads: cell (int64_t)x, or the last cell once x reaches it.  This is
 * ContentTables.cached_idle's rule. */
static inline int64_t row_cell(double x, int64_t stride)
{
    return x < (double)(stride - 1) ? (int64_t)x : stride - 1;
}

/* The Whittle admission test needs the cheapest cached index, lowest id on
 * ties.  The reference loop scans all m slots; this loop visits them in
 * ascending order of a lower bound of their key and stops at the first
 * bound above the best key so far, which gives the same victim.
 *
 * Why the bounds hold.  A copy's key at time t is row[cell(t)], with
 *     x = (t - f) * inv,  cell(t) = row_cell(x, stride),
 * or 0.0 while requests for it are queued.  IEEE subtraction and
 * multiplication round monotonically (inv > 0), and both branches of
 * row_cell are nondecreasing in x, so cell(t) never decreases as t grows.
 * Let low be the row's prefix minimum (low[i] = min row[0..i], the row
 * itself when it is nonincreasing, as every row the solvers build is).
 * A copy's bound lb is low[cell(T)] at a common horizon T, computed with
 * the same expression; then row[cell(t)] >= low[cell(t)] >= low[cell(T)]
 * for every t <= T, bit for bit.  The bound stays valid through:
 * - a refresh, which raises f to f' <= t <= T: fl(t - f') <= fl(T - f),
 *   so the new cells are at most the old cell(T);
 * - requests queueing for the copy, key 0.0: lb is lowered to at most 0,
 *   which also bounds the key once the queue is served;
 * - an admission, which writes the newcomer's own lb at T.
 * Once t passes T every lb is recomputed at a new horizon.  The scan
 * visits slots in ascending lb and stops at the first lb > w_min:
 * every slot not visited has key >= lb > w_min, so it neither beats nor
 * ties the minimum.  The test is strict so that ties are still
 * evaluated.  Nothing here decides; the visited keys are computed with
 * the reference loop's expression, so the victim is the full scan's.
 * The scan also stops at the first lb >= w_req, the requester's index,
 * while no key below w_req has been seen (!(w_min < w_req)): every slot
 * not visited has key >= lb >= w_req, so the minimum over all slots is
 * >= w_req, w_req > w_min fails as it would after the full scan, and the
 * requester is not admitted; the victim is then never read. */

/* one slot's state for the scan, rebuilt from slots, fetch_time and queue
 * at each entry to event_loop */
struct slot {
    double f;         /* fetch time of the copy */
    double inv;       /* its INV_STEP */
    int64_t off;      /* offset of its row in w_of_tau and w_low */
    int64_t id;
    int64_t queued;   /* requests for it are queued */
};
/* an entry of the scan order: a slot and its lb */
struct rank {
    double lb;
    int64_t s;
};
/* scratch words per slot: a struct slot and a struct rank */
#define SCRATCH_WORDS 7
_Static_assert(sizeof(struct slot) + sizeof(struct rank) == SCRATCH_WORDS * sizeof(double),
               "a slot takes SCRATCH_WORDS words of scratch");

/* the layout of the arrays simulator._compiled_loop allocates: scratch
 * holds 2 * block_draws doubles of draws, then scratch_words per slot;
 * the running totals are n_acc doubles and n_cnt counts */
const int64_t block_draws = BLOCK;
const int64_t scratch_words = SCRATCH_WORDS;
const int64_t n_acc = N_ACC;
const int64_t n_cnt = N_CNT;

/* The horizon is this many mean inter-arrival times ahead.  A longer one
 * loosens the bounds, so more keys are evaluated per scan, but recomputes
 * and re-sorts the m bounds less often.  Evaluations per scan grew about
 * linearly with the horizon at every m measured, and recomputing costs m
 * per horizon, so the total is least near a horizon proportional to
 * sqrt(m).  On paper.json's costs with Zipf popularity this evaluated
 * 3.3 of 25, 7.4 of 250 and 20 of 2500 keys per scan, and ran within the
 * host's noise of the fastest horizon tried at each m (32 to 4096 mean
 * inter-arrival times). */
static inline double horizon_events(int64_t m)
{
    return 16.0 * sqrt((double)m);
}

/* lb of slot sl at horizon h */
static inline double lower_bound(const struct slot *sl, const double *w_low,
                                 double h, int64_t stride)
{
    double lb = w_low[sl->off + row_cell((h - sl->f) * sl->inv, stride)];
    return sl->queued && lb > 0.0 ? 0.0 : lb;
}

/* moves order[k] to its place by lb, the rest of the order being sorted:
 * a binary search, then one memmove of the entries in between */
static inline void reposition(struct rank *order, int64_t m, int64_t k)
{
    struct rank e = order[k];
    if (k > 0 && order[k - 1].lb > e.lb) {
        int64_t lo = 0, hi = k - 1;
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (order[mid].lb > e.lb)
                hi = mid;
            else
                lo = mid + 1;
        }
        memmove(order + lo + 1, order + lo, (size_t)(k - lo) * sizeof *order);
        order[lo] = e;
    } else if (k < m - 1 && order[k + 1].lb < e.lb) {
        int64_t lo = k + 1, hi = m - 1;
        while (lo < hi) {
            int64_t mid = (lo + hi + 1) / 2;
            if (order[mid].lb < e.lb)
                lo = mid;
            else
                hi = mid - 1;
        }
        memmove(order + k, order + k + 1, (size_t)(lo - k) * sizeof *order);
        order[lo] = e;
    }
}

/* sorts the order by lb; fast when it is nearly sorted already */
static inline void sort_order(struct rank *order, int64_t m)
{
    for (int64_t i = 1; i < m; i++) {
        struct rank e = order[i];
        int64_t k = i;
        for (; k > 0 && order[k - 1].lb > e.lb; k--)
            order[k] = order[k - 1];
        order[k] = e;
    }
}

/* position of slot s in the order, searched from k */
static inline int64_t position(const struct rank *order, int64_t s, int64_t k)
{
    if (order[k].s != s)
        for (k = 0; order[k].s != s; k++)
            ;
    return k;
}

/* The run's random streams.  Stream i is numpy's PCG64 (O'Neill 2014,
 * "PCG: A Family of Simple Fast Space-Efficient Statistically Good
 * Algorithms for Random Number Generation", HMC-CS-2014-0905: a 128-bit
 * LCG with the XSL-RR output) seeded from SeedSequence(seed).spawn(3)[i],
 * restated from numpy/random/bit_generator.pyx and src/pcg64 so that a run
 * makes no numpy.random object: importing numpy.random cost every command
 * 10-20 ms, and SeedSequence.spawn and three default_rng more than half of
 * a 10-event run's ~80 us.
 * numpy's samplers take the stream's bitgen_t, whose state points back at
 * the stream.  The 128-bit state and increment are kept as 64-bit words,
 * high word first: the block is a slice of an int64 array, aligned to 8
 * bytes, and at -O3 the compiler moves a __uint128_t member with aligned
 * 16-byte instructions. */
struct stream {
    uint64_t state_hi, state_lo, inc_hi, inc_lo;
    uint64_t has_uint32, uinteger;  /* next_uint32's buffered high half */
    bitgen_t bitgen;
};
enum { ARRIVALS, PICKS, AGES, N_STREAMS };
#define STREAM_WORDS 11
_Static_assert(sizeof(struct stream) == STREAM_WORDS * sizeof(int64_t),
               "a stream takes STREAM_WORDS words");
const int64_t stream_words = STREAM_WORDS;  /* exported with the layout sizes above */

/* PCG's default 128-bit multiplier */
#define PCG_MULT (((__uint128_t)2549297995355413924ULL << 64) | 4865540595714422341ULL)

static inline __uint128_t u128(uint64_t hi, uint64_t lo)
{
    return ((__uint128_t)hi << 64) | lo;
}

/* the state after s */
static inline __uint128_t pcg_step(__uint128_t s, __uint128_t inc)
{
    return s * PCG_MULT + inc;
}

/* XSL-RR: the two halves xored, rotated right by the top 6 bits */
static inline uint64_t xsl_rr(__uint128_t s)
{
    uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

/* the 53 high bits of x as a double in [0, 1), as numpy's next_double */
static inline double unit_double(uint64_t x)
{
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* numpy's PCG64 steps the state, then outputs the new one */
static uint64_t next_uint64(void *p)
{
    struct stream *st = p;
    __uint128_t s = pcg_step(u128(st->state_hi, st->state_lo), u128(st->inc_hi, st->inc_lo));
    st->state_hi = (uint64_t)(s >> 64);
    st->state_lo = (uint64_t)s;
    return xsl_rr(s);
}

/* the low half of a new 64-bit draw, or the high half of the last one
 * that gave its low half; a 64-bit draw or a double between the two
 * leaves the buffered half, as in numpy */
static uint32_t next_uint32(void *p)
{
    struct stream *st = p;
    if (st->has_uint32) {
        st->has_uint32 = 0;
        return (uint32_t)st->uinteger;
    }
    uint64_t x = next_uint64(st);
    st->has_uint32 = 1;
    st->uinteger = x >> 32;
    return (uint32_t)x;
}

static double next_double(void *p)
{
    return unit_double(next_uint64(p));
}

/* SeedSequence's constants (numpy/random/bit_generator.pyx) */
#define POOL_SIZE 4
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u
#define XSHIFT 16

static inline uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    return value ^ (value >> XSHIFT);
}

static inline uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = MIX_MULT_L * x - MIX_MULT_R * y;
    return r ^ (r >> XSHIFT);
}

/* word j of the entropy of len words of stream i's SeedSequence: the
 * seed's n_seed words, zeros, then the spawn key i */
static inline uint32_t entropy(const int64_t *seed, int64_t n_seed, int64_t len, int64_t i,
                               int64_t j)
{
    return j < n_seed ? (uint32_t)seed[j] : j < len - 1 ? 0u : (uint32_t)i;
}

/* Seeds the run's streams from the seed's n_seed (>= 1) 32-bit words,
 * least significant first, as numpy's PCG64 seeds itself from
 * SeedSequence(seed).spawn(3)[i]:
 * - the child's entropy is the seed's words, padded with zeros to
 *   POOL_SIZE words, then its spawn key i;
 * - mix_entropy hashes that into a pool of POOL_SIZE words;
 * - generate_state(4, uint64) hashes the pool, cycled, into 8 words,
 *   paired little-endian into 4 64-bit words;
 * - pcg64_set_seed takes words 0:1 as the initial state and 2:3 as the
 *   sequence, high word first, and srandom starts from state 0 with
 *   inc = 2 * sequence + 1, steps, adds the initial state and steps. */
static void seed_streams(const int64_t *seed, int64_t n_seed, struct stream *streams)
{
    int64_t len = (n_seed < POOL_SIZE ? POOL_SIZE : n_seed) + 1;
    for (int64_t i = 0; i < N_STREAMS; i++) {
        uint32_t pool[POOL_SIZE], hash_const = INIT_A;
        for (int d = 0; d < POOL_SIZE; d++)
            pool[d] = hashmix(entropy(seed, n_seed, len, i, d), &hash_const);
        for (int src = 0; src < POOL_SIZE; src++)
            for (int d = 0; d < POOL_SIZE; d++)
                if (src != d)
                    pool[d] = mix(pool[d], hashmix(pool[src], &hash_const));
        for (int64_t src = POOL_SIZE; src < len; src++) {
            uint32_t e = entropy(seed, n_seed, len, i, src);
            for (int d = 0; d < POOL_SIZE; d++)
                pool[d] = mix(pool[d], hashmix(e, &hash_const));
        }
        uint64_t words[4] = {0};
        hash_const = INIT_B;
        for (int k = 0; k < 8; k++) {
            uint32_t v = pool[k % POOL_SIZE] ^ hash_const;
            hash_const *= MULT_B;
            v *= hash_const;
            v ^= v >> XSHIFT;
            words[k / 2] |= (uint64_t)v << (32 * (k % 2));
        }
        __uint128_t inc = (u128(words[2], words[3]) << 1) | 1u;
        __uint128_t s = pcg_step(pcg_step(0, inc) + u128(words[0], words[1]), inc);
        struct stream *st = streams + i;
        *st = (struct stream){(uint64_t)(s >> 64), (uint64_t)s, (uint64_t)(inc >> 64),
                              (uint64_t)inc, 0, 0,
                              {st, next_uint64, next_uint32, next_double, next_uint64}};
    }
}

/* kinds of draw for stream_draws */
enum { DRAW_UINT64, DRAW_UINT32, DRAW_DOUBLE };

/* Seeds the streams as a run does and makes n draws from each through
 * its bitgen_t, the way numpy's samplers call it: draw j is a 64-bit
 * word, a 32-bit word or a double (its bits) as kinds[j] is DRAW_UINT64,
 * DRAW_UINT32 or DRAW_DOUBLE; stream i's go to out[i * n ...].  Exported
 * so that a test and aovcache verify can compare the streams with numpy's. */
void stream_draws(const int64_t *seed, int64_t n_seed, const int64_t *kinds, int64_t n,
                  uint64_t *out)
{
    struct stream streams[N_STREAMS];
    seed_streams(seed, n_seed, streams);
    for (int64_t i = 0; i < N_STREAMS; i++) {
        bitgen_t *g = &streams[i].bitgen;
        for (int64_t j = 0; j < n; j++) {
            double d;
            switch (kinds[j]) {
            case DRAW_UINT64:
                out[i * n + j] = g->next_uint64(g->state);
                break;
            case DRAW_UINT32:
                out[i * n + j] = g->next_uint32(g->state);
                break;
            default:
                d = g->next_double(g->state);
                memcpy(out + i * n + j, &d, sizeof d);
            }
        }
    }
}

/* Fills dts and us with n draws: inter-arrival times, each the standard
 * exponential times invb (the product random_exponential forms, so that
 * Generator.exponential(invb) makes the same), and the content picks'
 * uniforms (Generator.random's, next_double stepped here in line). */
static void draw_block(struct stream *arrivals, struct stream *picks, double invb,
                       double *dts, double *us, int64_t n)
{
    random_standard_exponential_fill(&arrivals->bitgen, n, dts);
    __uint128_t s = u128(picks->state_hi, picks->state_lo);
    const __uint128_t inc = u128(picks->inc_hi, picks->inc_lo);
    for (int64_t i = 0; i < n; i++) {
        dts[i] *= invb;
        s = pcg_step(s, inc);
        us[i] = unit_double(xsl_rr(s));
    }
    picks->state_hi = (uint64_t)(s >> 64);
    picks->state_lo = (uint64_t)s;
}

/* One loop body, specialised by the constant policy and ageing mode that
 * event_loop passes in, so each combination compiles to its own loop. */
static inline __attribute__((always_inline)) int64_t
run_events(const int policy, const int realized, int64_t stop_events, double stop_time,
           const double *cum_p, const int64_t *guide, int64_t k,
           const double *cdbl, const int64_t *cint, const double *bps,
           const double *w_of_tau, const double *w_low, int64_t stride, double beta,
           int64_t *queue, int64_t *aov, int64_t *slot_of, int64_t *slots, int64_t *cnt,
           struct stream *streams, double *fetch_time, double *aov_time, double *acc,
           double *scratch, uint8_t *waited, int64_t m)
{
    double t = acc[T], grand = acc[GRAND], q_integral = acc[Q_INTEGRAL];
    double wait_cost = acc[WAIT_COST], fetch_cost = acc[FETCH_COST];
    double ageing_cost = acc[AGEING_COST], wq_rate = acc[WQ_RATE];
    int64_t fetches = cnt[FETCHES], events = cnt[EVENTS];
    int64_t violations = cnt[VIOLATIONS], total_q = cnt[TOTAL_Q];
    int64_t buffered = cnt[BUFFERED];
    const double invb = 1.0 / beta;  /* the mean inter-arrival time */
    int64_t status = STOPPED;
    double *dts = scratch, *us = scratch + BLOCK;
    /* the Whittle scan's state: m slots, then their order by lb */
    struct slot *rec = (struct slot *)(scratch + 2 * BLOCK);
    struct rank *order = (struct rank *)(rec + m);
    double horizon = -INFINITY;  /* every lb is stale until the first scan */
    if (policy == WHITTLE) {
        for (int64_t s = 0; s < m; s++) {
            int64_t id = slots[s];
            rec[s] = (struct slot){fetch_time[id], cdbl[id * N_CDBL + INV_STEP],
                                   id * stride, id, queue[id] > 0};
            order[s] = (struct rank){0.0, s};
        }
    }

    while (events < stop_events && t < stop_time) {
        if (!buffered) {
            buffered = stop_events - events < BLOCK ? stop_events - events : BLOCK;
            draw_block(streams + ARRIVALS, streams + PICKS, invb, dts + BLOCK - buffered,
                       us + BLOCK - buffered, buffered);
        }
        double dt = dts[BLOCK - buffered];
        int64_t r = pick(cum_p, guide, k, us[BLOCK - buffered]);
        buffered--;
        const double *cd = cdbl + r * N_CDBL;
        const int64_t *ci = cint + r * N_CINT;
        if (total_q) {
            q_integral += (double)total_q * dt;
            double winc = wq_rate * dt;
            wait_cost += winc;
            grand += winc;
        }
        t += dt;
        events++;

        /* decide: 0 serve, 1 fetch+cache, 2 wait, 3 fetch+discard */
        int kind;
        int64_t victim = -1;
        int64_t at = 0;  /* the Whittle victim's position in the order */
        int cached = policy == INFINITE_CAPACITY || slot_of[r] >= 0;
        int64_t q = queue[r];
        double tau_r = 0.0;
        if (cached)
            tau_r = t - fetch_time[r];
        if (policy == MYOPIC && cached) {
            /* policies.myopic_decide's cached branch */
            double p_r = cd[P], cf_r = cd[C_F], cal_r = cd[C_ALAM];
            double ahead = tau_r + invb;  /* tau one epoch ahead */
            double c_serve = cal_r * tau_r * (double)(q + 1)
                             + p_r * pymin(cf_r, cal_r * ahead);
            double c_fetch = cf_r + p_r * pymin(cf_r, cal_r / beta);
            double c_wait = cd[C_W] * (double)(q + 1) / beta
                            + p_r * pymin(cf_r, (double)(q + 2) * cal_r * ahead)
                            + (1.0 - p_r) * pymin(cf_r, (double)(q + 1) * cal_r * ahead);
            if (c_serve <= c_fetch && c_serve <= c_wait)
                kind = 0;
            else
                kind = c_fetch <= c_wait ? 1 : 2;
        } else if (policy == MYOPIC) {
            /* myopic_decide's uncached branch: the eviction gain p*c_f - tv
             * of a copy with lookahead tv is least at the victim, lowest id
             * on ties, so the slot order does not matter; the lookaheads'
             * sum is common to every action and left out */
            double g_min = INFINITY;
            for (int64_t s = 0; s < m; s++) {
                int64_t id = slots[s];
                const double *cs = cdbl + id * N_CDBL;
                double tv = (t - fetch_time[id]) + invb;
                tv *= ((double)queue[id] + 1.0) * cs[C_ALAM];
                if (cs[C_F] < tv)
                    tv = cs[C_F];
                tv *= cs[P];
                double g = cs[P_CF] - tv;
                if (g < g_min || (g == g_min && id < victim)) {
                    g_min = g;
                    victim = id;
                }
            }
            double p_r = cd[P], cf_r = cd[C_F];
            double c_cache = cf_r + p_r * pymin(cf_r, cd[C_ALAM] / beta) + g_min;
            double c_wait = cd[C_W] * (double)(q + 1) / beta;
            double c_disc = cf_r + p_r * cf_r;
            if (c_cache <= c_wait && c_cache <= c_disc)
                kind = 1;
            else
                kind = c_wait <= c_disc ? 2 : 3;
        } else if (policy == STATIC_TOP_M) {
            if (cached)
                kind = tau_r <= cd[TAU_STAR] ? 0 : 1;  /* or refresh in place */
            else
                kind = 3;
        } else if (cached) {  /* Whittle, or every copy under infinite capacity */
            if (tau_r <= cd[TAU_STAR])
                kind = 0;
            else
                kind = q < ci[Q_STAR] ? 2 : 1;  /* wait, or refresh in place */
        } else if (q < ci[Q_STAR]) {
            kind = 2;
        } else {
            double w_req = q >= ci[Q_HAT] ? cd[CEILING] : bps[ci[BP_OFF] + q - ci[Q_STAR]];
            /* cheapest cached index, lowest id on ties; a copy with requests
             * queued has index 0.  Slots are visited in ascending lb (see
             * the proof above struct slot).  With m == 0 w_min stays
             * infinite and nothing is admitted. */
            if (t > horizon) {
                horizon = t + horizon_events(m) * invb;
                for (int64_t i = 0; i < m; i++)
                    order[i].lb = lower_bound(rec + order[i].s, w_low, horizon, stride);
                sort_order(order, m);
            }
            double w_min = INFINITY;
            for (int64_t i = 0; i < m; i++) {
                if (order[i].lb > w_min || (!(w_min < w_req) && order[i].lb >= w_req))
                    break;
                const struct slot *sl = rec + order[i].s;
                double w = 0.0;
                if (!sl->queued)
                    w = w_of_tau[sl->off + row_cell((t - sl->f) * sl->inv, stride)];
                if (w < w_min || (w == w_min && sl->id < victim)) {
                    w_min = w;
                    victim = sl->id;
                    at = i;
                }
            }
            if (w_req > w_min)
                kind = 1;
            else
                kind = q < ci[Q_HAT] ? 2 : 3;
        }

        /* apply and charge */
        if (kind == 2) {
            queue[r] = q + 1;
            total_q += 1;
            wq_rate += cd[C_W];
            waited[r] = 1;
            if (policy == WHITTLE && !q && slot_of[r] >= 0) {  /* the copy's key is 0 */
                int64_t s = slot_of[r], i = position(order, s, 0);
                rec[s].queued = 1;
                if (order[i].lb > 0.0) {
                    order[i].lb = 0.0;
                    reposition(order, m, i);
                }
            }
            continue;
        }
        if (q) {
            queue[r] = 0;
            total_q -= q;
            wq_rate -= cd[C_W] * (double)q;
            if (policy == WHITTLE && slot_of[r] >= 0)
                rec[slot_of[r]].queued = 0;
        }
        if (kind == 0) {
            double age;
            if (realized) {
                double dtv = t - aov_time[r];
                if (dtv > 0.0) {
                    double lam = cd[LAM] * dtv;
                    if (lam > POISSON_LAM_MAX) {
                        status = POISSON_DOMAIN_ERROR;
                        break;
                    }
                    aov[r] += random_poisson(&streams[AGES].bitgen, lam);
                    aov_time[r] = t;
                }
                age = cd[C_A] * (double)aov[r] * (double)(q + 1);
            } else {
                age = cd[C_ALAM] * tau_r * (double)(q + 1);
            }
            ageing_cost += age;
            grand += age;
            violations += waited[r];
            continue;
        }
        if (kind == 1) {
            if (!cached) {
                if (victim < 0 || slot_of[victim] < 0 || slot_of[r] >= 0) {
                    status = OCCUPANCY_ERROR;
                    break;
                }
                int64_t s = slot_of[victim];
                slot_of[victim] = -1;
                slot_of[r] = s;
                slots[s] = r;
                if (policy == WHITTLE) {
                    rec[s] = (struct slot){t, cd[INV_STEP], r * stride, r, 0};
                    at = position(order, s, at);
                    order[at].lb = lower_bound(rec + s, w_low, horizon, stride);
                    reposition(order, m, at);
                }
            } else if (policy == WHITTLE) {
                rec[slot_of[r]].f = t;
            }
            fetch_time[r] = t;
            if (realized) {
                aov[r] = 0;
                aov_time[r] = t;
            }
        }
        fetch_cost += cd[C_F];
        grand += cd[C_F];
        fetches += 1;
        waited[r] = 0;
    }

    acc[T] = t;
    acc[GRAND] = grand;
    acc[Q_INTEGRAL] = q_integral;
    acc[WAIT_COST] = wait_cost;
    acc[FETCH_COST] = fetch_cost;
    acc[AGEING_COST] = ageing_cost;
    acc[WQ_RATE] = wq_rate;
    cnt[FETCHES] = fetches;
    cnt[EVENTS] = events;
    cnt[VIOLATIONS] = violations;
    cnt[TOTAL_Q] = total_q;
    cnt[BUFFERED] = buffered;
    return status;
}

#define RUN(policy, realized) \
    run_events(policy, realized, stop_events, stop_time, cum_p, guide, k, cdbl, cint, bps, \
               w_of_tau, w_low, stride, beta, queue, aov, slot_of, slots, cnt, streams, \
               fetch_time, aov_time, acc, scratch, waited, m)
#define RUN_MODES(policy) (realized ? RUN(policy, 1) : RUN(policy, 0))

/* Runs events until events >= stop_events or t >= stop_time.  Returns
 * STOPPED, OCCUPANCY_ERROR if an admission found the cache inconsistent
 * (a victim not cached, or a requester already cached), or
 * POISSON_DOMAIN_ERROR if a version-age draw had lam above what
 * Generator.poisson accepts.  cum_p and guide (k entries) are the content
 * pick's tables.  The cache is slots[0..m-1]; slot_of[id] is id's slot,
 * or -1.  The ages stream is read only in realized mode.
 *
 * streams holds the run's N_STREAMS streams; the first call of a run
 * finds them zeroed and seeds them from the seed's n_seed words.
 * Events are drawn from the arrival and pick streams in blocks of at most
 * BLOCK and at most stop_events - events, into the first 2 * BLOCK
 * doubles of scratch.  A block is written to the end of its buffer, and
 * cnt[BUFFERED] counts its events not yet run, so a block drawn before
 * a stop is run after it by the next call of the same run. */
int64_t event_loop(int64_t policy, int64_t realized, int64_t stop_events, double stop_time,
                   const double *cum_p, const int64_t *guide, int64_t k,
                   const double *cdbl, const int64_t *cint, const double *bps,
                   const double *w_of_tau, const double *w_low, int64_t stride,
                   double beta, int64_t *queue, int64_t *aov, int64_t *slot_of,
                   int64_t *slots, int64_t *cnt, struct stream *streams,
                   const int64_t *seed, int64_t n_seed, double *fetch_time,
                   double *aov_time, double *acc, double *scratch, uint8_t *waited,
                   int64_t m)
{
    if (!streams[ARRIVALS].bitgen.state)
        seed_streams(seed, n_seed, streams);
    switch (policy) {
    case WHITTLE:
        return RUN_MODES(WHITTLE);
    case MYOPIC:
        return RUN_MODES(MYOPIC);
    case STATIC_TOP_M:
        return RUN_MODES(STATIC_TOP_M);
    default:
        return RUN_MODES(INFINITE_CAPACITY);
    }
}
