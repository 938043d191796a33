/*
 * Native stepper of repro.simulation (see native.py, which builds this file
 * with the host C compiler and calls it through ctypes).
 *
 * One loop runs both scheduler kinds over the tables of a CompiledNet:
 * uniform-scheduler weights are products of binomials C(count, multiplicity),
 * transition-scheduler weights are 0/1 enabledness, and either way a step
 * draws pick = randbelow(total) and fires the transition whose cumulative
 * weight first exceeds pick.  The compiled engine's generated loop draws the
 * same way (randrange(total)), and so do the reference schedulers, whose
 * randrange(total) and choice(enabled) each consume one _randbelow of the
 * same bound.  The generator is CPython's MT19937 with its seeding,
 * getrandbits and _randbelow, so a run fires the same transitions as the
 * compiled and reference engines and leaves the generator in the same state.
 *
 * Weights sit in blocks of 2^shift with a maintained sum per block, so a
 * pick scans the block sums, then one block: O(sqrt |T|) per step.  Firing a
 * transition reweighs only its `affected` list.
 *
 * Every buffer belongs to the caller; this file allocates nothing.  All run
 * state lives in those buffers, so a call can stop when the recording chunk
 * is full and the next call resumes the run where it stopped.  Any uint64
 * weight or int64 count overflow stops the call with REPRO_OVERFLOW, and the
 * caller redoes that run on the compiled engine.
 */

#include <stdint.h>
#include <string.h>

enum { MT_N = 624, MT_M = 397 };

/* Header of the net table (an int64 array built by native.py). */
enum {
    H_STATES, H_TRANSITIONS, H_UNIFORM, H_SHIFT, H_BLOCKS,
    H_PRE, H_DELTA, H_AFFECTED, H_CONSENSUS
};

/* Slots of the control array, shared with native.py. */
enum {
    C_MAX_STEPS, C_WINDOW, C_ONE0, C_ZERO0, C_UNDEF0, C_RUNS, C_RUN, C_PHASE,
    C_STEP, C_VALUE, C_SINCE, C_TERMINATED, C_ONE, C_ZERO, C_UNDEF, C_TOTAL,
    C_REC_CAP, C_REC_LEN, C_REC_RUN
};

enum { REPRO_DONE = 0, REPRO_YIELD = 1, REPRO_OVERFLOW = 2 };

/* ---------------------------------------------------------------------- */
/* MT19937 exactly as CPython's _randommodule.c; mt[MT_N] is the index.    */
/* ---------------------------------------------------------------------- */
static uint32_t genrand(uint32_t *mt)
{
    uint32_t y;
    if (mt[MT_N] >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ ((y & 1U) ? 0x9908b0dfU : 0U);
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.Random(seed) for an int seed: key = |seed| in 32-bit words,
 * least significant first (one zero word for seed 0). */
static void seed_by_array(uint32_t *mt, const uint32_t *key, int64_t length)
{
    int64_t i = 1, j = 0, k;
    mt[0] = 19650218U;
    for (k = 1; k < MT_N; k++)
        mt[k] = 1812433253U * (mt[k - 1] ^ (mt[k - 1] >> 30)) + (uint32_t)k;
    for (k = MT_N > length ? MT_N : length; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U))
                + key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= MT_N) { mt[0] = mt[MT_N - 1]; i = 1; }
        if (j >= length) j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        i++;
        if (i >= MT_N) { mt[0] = mt[MT_N - 1]; i = 1; }
    }
    mt[0] = 0x80000000U;
    mt[MT_N] = MT_N;
}

/* getrandbits(k) for 1 <= k <= 64: 32-bit words, least significant first. */
static uint64_t getrandbits(uint32_t *mt, int k)
{
    uint64_t low;
    if (k <= 32)
        return genrand(mt) >> (32 - k);
    low = genrand(mt);
    return low | ((uint64_t)(genrand(mt) >> (64 - k)) << 32);
}

/* Random._randbelow_with_getrandbits(n) for n >= 1. */
static uint64_t randbelow(uint32_t *mt, uint64_t n)
{
    int k = 64 - __builtin_clzll(n);
    uint64_t r = getrandbits(mt, k);
    while (r >= n)
        r = getrandbits(mt, k);
    return r;
}

/* ---------------------------------------------------------------------- */
/* Weights                                                                 */
/* ---------------------------------------------------------------------- */

/* The scheduler weight of transition t; returns 0 on uint64 overflow. */
static int weight(const int64_t *net, const int64_t *counts, int64_t t, uint64_t *out)
{
    const int64_t *starts = net + net[H_PRE];
    int64_t p;
    uint64_t w = 1;
    for (p = starts[t]; p < starts[t + 1]; p += 2) {
        uint64_t c = (uint64_t)counts[net[p]], k = (uint64_t)net[p + 1], b, i;
        if (c < k) { *out = 0; return 1; }
        if (!net[H_UNIFORM])
            continue;
        /* C(c, k) = prod_{i=1..k} (c - k + i) / i, exact after each division. */
        for (b = c - k + 1, i = 2; i <= k; i++) {
            if (__builtin_mul_overflow(b, c - k + i, &b))
                return 0;
            b /= i;
        }
        if (__builtin_mul_overflow(w, b, &w))
            return 0;
    }
    *out = w;
    return 1;
}

/* Store transition t's new weight, keeping block sums and the total. */
static int reweigh(const int64_t *net, const int64_t *counts, uint64_t *weights,
                   uint64_t *blocks, uint64_t *total, int64_t t)
{
    uint64_t w;
    if (!weight(net, counts, t, &w))
        return 0;
    *total -= weights[t];
    if (__builtin_add_overflow(*total, w, total))
        return 0;
    blocks[t >> net[H_SHIFT]] += w - weights[t];
    weights[t] = w;
    return 1;
}

/* ---------------------------------------------------------------------- */
/* Runs                                                                    */
/* ---------------------------------------------------------------------- */

static int64_t consensus(int64_t one, int64_t zero, int64_t undef)
{
    if (undef)
        return -1;
    return one == 0 ? 0 : (zero == 0 ? 1 : -1);
}

/* Set up a run from the counts already in place. */
static int start(const int64_t *net, int64_t *ctl, const int64_t *counts,
                 uint64_t *weights, uint64_t *blocks)
{
    int64_t t, transitions = net[H_TRANSITIONS];
    uint64_t total = 0;
    memset(blocks, 0, (size_t)net[H_BLOCKS] * sizeof *blocks);
    for (t = 0; t < transitions; t++) {
        if (!weight(net, counts, t, &weights[t]))
            return 0;
        if (__builtin_add_overflow(total, weights[t], &total))
            return 0;
        blocks[t >> net[H_SHIFT]] += weights[t];
    }
    ctl[C_ONE] = ctl[C_ONE0];
    ctl[C_ZERO] = ctl[C_ZERO0];
    ctl[C_UNDEF] = ctl[C_UNDEF0];
    ctl[C_VALUE] = consensus(ctl[C_ONE], ctl[C_ZERO], ctl[C_UNDEF]);
    ctl[C_SINCE] = ctl[C_VALUE] >= 0 ? 0 : -1;
    ctl[C_STEP] = 0;
    ctl[C_TERMINATED] = 0;
    ctl[C_TOTAL] = (int64_t)total;
    return 1;
}

/* Advance the current run until it ends, the recording chunk fills
 * (REPRO_YIELD) or a value overflows (REPRO_OVERFLOW). */
static int advance(const int64_t *net, int64_t *ctl, int64_t *counts,
                   uint64_t *weights, uint64_t *blocks, uint32_t *mt, int32_t *rec)
{
    const int64_t *delta = net + net[H_DELTA];
    const int64_t *affected = net + net[H_AFFECTED];
    const int64_t *cons = net + net[H_CONSENSUS];
    const int64_t shift = net[H_SHIFT];
    const int64_t max_steps = ctl[C_MAX_STEPS], window = ctl[C_WINDOW];
    const int64_t rec_cap = ctl[C_REC_CAP];
    int64_t step = ctl[C_STEP], value = ctl[C_VALUE], since = ctl[C_SINCE];
    int64_t one = ctl[C_ONE], zero = ctl[C_ZERO], undef = ctl[C_UNDEF];
    int64_t rec_len = ctl[C_REC_LEN];
    uint64_t total = (uint64_t)ctl[C_TOTAL];
    int status = REPRO_DONE;

    while (step < max_steps) {
        uint64_t pick, rest;
        int64_t t, b, p;
        if (total == 0) {
            ctl[C_TERMINATED] = 1;
            break;
        }
        if (rec_cap && rec_len == rec_cap) {
            status = REPRO_YIELD;
            break;
        }
        pick = randbelow(mt, total);
        step++;
        for (b = 0, rest = pick; rest >= blocks[b]; b++)
            rest -= blocks[b];
        for (t = b << shift; rest >= weights[t]; t++)
            rest -= weights[t];
        if (rec_cap)
            rec[rec_len++] = (int32_t)t;
        for (p = delta[t]; p < delta[t + 1]; p += 2) {
            if (__builtin_add_overflow(counts[net[p]], net[p + 1], &counts[net[p]])) {
                status = REPRO_OVERFLOW;
                goto out;
            }
        }
        for (p = affected[t]; p < affected[t + 1]; p++) {
            if (!reweigh(net, counts, weights, blocks, &total, net[p])) {
                status = REPRO_OVERFLOW;
                goto out;
            }
        }
        if (cons[3 * t] | cons[3 * t + 1] | cons[3 * t + 2]) {
            int64_t now;
            if (__builtin_add_overflow(one, cons[3 * t], &one)
                || __builtin_add_overflow(zero, cons[3 * t + 1], &zero)
                || __builtin_add_overflow(undef, cons[3 * t + 2], &undef)) {
                status = REPRO_OVERFLOW;
                goto out;
            }
            now = consensus(one, zero, undef);
            if (now != value) {
                value = now;
                since = now >= 0 ? step : -1;
            }
        }
        if (value >= 0 && step - since >= window)
            break;
    }
out:
    ctl[C_STEP] = step;
    ctl[C_VALUE] = value;
    ctl[C_SINCE] = since;
    ctl[C_ONE] = one;
    ctl[C_ZERO] = zero;
    ctl[C_UNDEF] = undef;
    ctl[C_TOTAL] = (int64_t)total;
    ctl[C_REC_LEN] = rec_len;
    return status;
}

/*
 * Run ctl[C_RUNS] runs from the counts `base`, starting at run ctl[C_RUN].
 * With `keys`, run i seeds `mt` from keys[key_starts[i] .. key_starts[i+1]);
 * without, the single run uses `mt` as given.  Run i's outcome
 * (steps, consensus value, consensus step, terminated) goes to out[4i..] and
 * its final counts to finals[i * states ..].  `work` holds the counts, the
 * weights and the block sums of the current run.
 *
 * With ctl[C_REC_CAP] > 0 every fired transition index is appended to `rec`;
 * the call returns REPRO_YIELD when the chunk is full and before it starts
 * a run while the chunk still holds the previous run's tail.  ctl[C_REC_RUN]
 * names the run the chunk belongs to; the caller empties it (C_REC_LEN = 0)
 * and calls again.  REPRO_OVERFLOW leaves ctl[C_RUN] at the failed run.
 */
int repro_run(const int64_t *net, int64_t *ctl, int64_t *work, uint32_t *mt,
              const int64_t *base, const uint32_t *keys, const int64_t *key_starts,
              int64_t *out, int64_t *finals, int32_t *rec)
{
    const int64_t states = net[H_STATES];
    int64_t *counts = work;
    uint64_t *weights = (uint64_t *)(work + states);
    uint64_t *blocks = weights + net[H_TRANSITIONS];

    for (;;) {
        int64_t i = ctl[C_RUN];
        int status;
        if (!ctl[C_PHASE]) {
            if (ctl[C_REC_CAP] && ctl[C_REC_LEN])
                return REPRO_YIELD;
            if (i >= ctl[C_RUNS])
                return REPRO_DONE;
            ctl[C_REC_RUN] = i;
            if (keys)
                seed_by_array(mt, keys + key_starts[i], key_starts[i + 1] - key_starts[i]);
            memcpy(counts, base, (size_t)states * sizeof *counts);
            if (!start(net, ctl, counts, weights, blocks))
                return REPRO_OVERFLOW;
            ctl[C_PHASE] = 1;
        }
        status = advance(net, ctl, counts, weights, blocks, mt, rec);
        if (status != REPRO_DONE)
            return status;
        out[4 * i] = ctl[C_STEP];
        out[4 * i + 1] = ctl[C_VALUE];
        out[4 * i + 2] = ctl[C_SINCE];
        out[4 * i + 3] = ctl[C_TERMINATED];
        memcpy(finals + i * states, counts, (size_t)states * sizeof *counts);
        ctl[C_PHASE] = 0;
        ctl[C_RUN] = i + 1;
    }
}

/* Seed `mt` from `key` (when length > 0), then draw randbelow(moduli[i])
 * into out[i]: the generator check of the test suite. */
void repro_randbelow(uint32_t *mt, const uint32_t *key, int64_t length,
                     const uint64_t *moduli, int64_t n, uint64_t *out)
{
    int64_t i;
    if (length > 0)
        seed_by_array(mt, key, length);
    for (i = 0; i < n; i++)
        out[i] = randbelow(mt, moduli[i]);
}
