/*
 * Native library of repro (see native.py, which builds this file with the
 * host C compiler and calls it through ctypes).  It holds the simulation
 * stepper and, at the end of the file, the batch of exhaustive searches
 * that repro.core.semantics.stable_values runs over the initial
 * configurations of a protocol's inputs (repro_verify).
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

/* ---------------------------------------------------------------------- */
/* Exhaustive exploration                                                  */
/* ---------------------------------------------------------------------- */
/*
 * The graph of repro.core.semantics.DenseReachabilityGraph (the Python
 * explorer) on 64-bit codes, built in the same node and predecessor order:
 * state i owns the bit field of `width` bits at shift i * width, its count
 * below a guard bit that a configuration keeps clear.  A step is a pair
 * (key, delta): it is enabled in `code` iff ((code + key) & guards) ==
 * guards, and firing it gives code + delta, a negative delta travelling in
 * two's complement.  The guard bits keep every true sum inside the word, so
 * the unsigned sums are exact.
 *
 * Nodes are numbered in breadth-first discovery order.  An open-addressing
 * table (linear probing, load at most 1/2) maps codes to node ids; a slot
 * holds id + 1, 0 when empty, so the code 0 of an empty population is a
 * key like any other.  Every buffer belongs to the caller.  Before it
 * expands a node the search checks that the node's steps fit the buffers,
 * and stops with EXPLORE_FULL when they might not; the caller grows them
 * and calls again, and the search resumes at that node, first indexing the
 * codes a fresh table lacks.  Once a root's search is done, its stable
 * value is decided by backward searches over the predecessor lists.
 */

/* Slots of the exploration control array, shared with native.py. */
enum {
    X_STEPS, X_MAX_NODES, X_HEAD, X_NODES, X_INDEXED, X_EDGES, X_NODE_CAP, X_EDGE_CAP,
    X_ROOT, X_ROOTS
};

enum { EXPLORE_DONE = 0, EXPLORE_FULL = 1, EXPLORE_WIDEN = 2, EXPLORE_LIMIT = 3 };

/* MurmurHash3's 64-bit finalizer: packed counts differ in few bits. */
static uint64_t mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

/* The slot of `code` in the table, or the empty slot where it belongs. */
static uint64_t slot_of(const uint64_t *codes, const int32_t *table, uint64_t mask,
                        uint64_t code)
{
    uint64_t slot = mix(code) & mask;
    while (table[slot] && codes[table[slot] - 1] != code)
        slot = (slot + 1) & mask;
    return slot;
}

/*
 * The predecessor lists in CSR form from the edges of the search: node i's
 * predecessors are sources[offsets[i] .. offsets[i + 1]), ordered by source
 * id and then by step order, the order the search found them.  A stable
 * counting sort of the edges by target gives that order.
 */
static void transpose(int64_t nodes, const int32_t *starts, const int32_t *targets,
                      int32_t *offsets, int32_t *sources)
{
    int64_t i, e;
    memset(offsets, 0, (size_t)(nodes + 1) * sizeof *offsets);
    for (e = 0; e < starts[nodes]; e++)
        offsets[targets[e] + 1]++;
    for (i = 0; i < nodes; i++)
        offsets[i + 1] += offsets[i];
    /* Filling advances offsets[t] to the end of row t; shift it back. */
    for (i = 0; i < nodes; i++)
        for (e = starts[i]; e < starts[i + 1]; e++)
            sources[offsets[targets[e]]++] = (int32_t)i;
    for (i = nodes; i > 0; i--)
        offsets[i] = offsets[i - 1];
    offsets[0] = 0;
}

/*
 * Breadth-first search over steps[0] = guards and the ctl[X_STEPS] pairs
 * (key, delta) after it, from the ctl[X_NODES] codes found so far, the
 * first ctl[X_HEAD] of them expanded.  codes has room for ctl[X_NODE_CAP]
 * codes (a power of two), table for twice as many slots and starts for one
 * more entry; targets has room for ctl[X_EDGE_CAP] node ids.  Node i's
 * edges go to targets[starts[i] .. starts[i + 1]), in step order.
 *
 * Returns EXPLORE_FULL (grow a buffer and call again), EXPLORE_WIDEN when a
 * new code sets a guard bit (a count outgrew its field), EXPLORE_LIMIT when
 * a new node would get an id of ctl[X_MAX_NODES] or more (checked in that
 * order), or EXPLORE_DONE once every node is expanded.  Every code found is
 * in the table, whatever the outcome.
 */
static int search(const uint64_t *steps, int64_t *ctl, uint64_t *codes, int32_t *table,
                  int32_t *starts, int32_t *targets)
{
    const uint64_t guards = steps[0];
    const int64_t count = ctl[X_STEPS], max_nodes = ctl[X_MAX_NODES];
    const int64_t node_cap = ctl[X_NODE_CAP], edge_cap = ctl[X_EDGE_CAP];
    const uint64_t mask = 2 * (uint64_t)node_cap - 1;
    int64_t head = ctl[X_HEAD], nodes = ctl[X_NODES], edges = ctl[X_EDGES], s;
    int status = EXPLORE_DONE;

    for (s = ctl[X_INDEXED]; s < nodes; s++)
        table[slot_of(codes, table, mask, codes[s])] = (int32_t)(s + 1);
    for (; head < nodes; head++) {
        const uint64_t code = codes[head];
        if (nodes + count > node_cap || edges + count > edge_cap) {
            status = EXPLORE_FULL;
            break;
        }
        starts[head] = (int32_t)edges;
        for (s = 0; s < count; s++) {
            uint64_t target, slot;
            if (((code + steps[1 + 2 * s]) & guards) != guards)
                continue;
            target = code + steps[2 + 2 * s];
            slot = slot_of(codes, table, mask, target);
            if (!table[slot]) {
                if (target & guards) {
                    status = EXPLORE_WIDEN;
                    goto out;
                }
                if (nodes >= max_nodes) {
                    status = EXPLORE_LIMIT;
                    goto out;
                }
                codes[nodes++] = target;
                table[slot] = (int32_t)nodes;
            }
            targets[edges++] = table[slot] - 1;
        }
    }
    if (status == EXPLORE_DONE)
        starts[nodes] = (int32_t)edges;
out:
    ctl[X_HEAD] = head;
    ctl[X_NODES] = nodes;
    ctl[X_INDEXED] = nodes;
    ctl[X_EDGES] = edges;
    return status;
}

/* Set `bit` on every node that reaches one of the `top` nodes on the stack
 * (which carry it already), walking the predecessor lists. */
static void reach_back(const int32_t *offsets, const int32_t *sources, int32_t *marks,
                       int32_t bit, int32_t *stack, int64_t top)
{
    while (top) {
        int32_t node = stack[--top], e;
        for (e = offsets[node]; e < offsets[node + 1]; e++) {
            int32_t source = sources[e];
            if (!(marks[source] & bit)) {
                marks[source] |= bit;
                stack[top++] = source;
            }
        }
    }
}

/*
 * Whether every node can reach a `value`-output-stable node: one that
 * reaches no node without consensus `value`.  ones, zeros and undefined
 * hold the fields of the states of each output class.  work has room for
 * two entries per node: a mark and a stack slot.
 */
static int eventually_stable(const uint64_t *codes, int64_t nodes, uint64_t ones,
                             uint64_t zeros, uint64_t undefined, int64_t value,
                             const int32_t *offsets, const int32_t *sources, int32_t *work)
{
    const uint64_t blocking = undefined | (value ? zeros : ones);
    int32_t *marks = work, *stack = work + nodes;
    int64_t i, top = 0;
    memset(marks, 0, (size_t)nodes * sizeof *marks);
    /* Bit 1: the node reaches a node without consensus `value`. */
    for (i = 0; i < nodes; i++) {
        if ((codes[i] & blocking) || (value && !(codes[i] & ones))) {
            marks[i] = 1;
            stack[top++] = (int32_t)i;
        }
    }
    reach_back(offsets, sources, marks, 1, stack, top);
    /* Bit 2: the node reaches an output-stable node. */
    for (top = 0, i = 0; i < nodes; i++) {
        if (!marks[i]) {
            marks[i] = 2;
            stack[top++] = (int32_t)i;
        }
    }
    reach_back(offsets, sources, marks, 2, stack, top);
    for (i = 0; i < nodes; i++)
        if (!(marks[i] & 2))
            return 0;
    return 1;
}

/*
 * The verdict of every root code roots[r] for r from ctl[X_ROOT] up to
 * ctl[X_ROOTS], in order: the search above, then the stable value of
 * eventually_stable (output 1 tried first).  out[2r] takes the node count
 * and out[2r + 1] the stable value, -1 for none; nothing is decoded.  masks
 * holds the fields of each output class (ones, zeros, undefined).  Beside
 * the buffers of the search, offsets has room for ctl[X_NODE_CAP] + 1
 * entries, sources as many as targets and work two per node.
 *
 * One set of buffers serves every root.  ctl[X_NODES] is 0 between roots;
 * after each root the call empties the table slots its codes took, latest
 * first, so the probe of every code still left runs over codes that are
 * still in place.  The call stops at root ctl[X_ROOT] with EXPLORE_FULL
 * (grow a buffer and call again: the search resumes), or with
 * EXPLORE_WIDEN or EXPLORE_LIMIT once that root is forgotten (the caller
 * deals with it; on WIDEN it may step ctl[X_ROOT] past it and call again).
 * Returns EXPLORE_DONE after the last root.
 */
int repro_verify(const uint64_t *steps, const uint64_t *masks, const uint64_t *roots,
                 int64_t *ctl, int64_t *out, uint64_t *codes, int32_t *table,
                 int32_t *starts, int32_t *targets, int32_t *offsets, int32_t *sources,
                 int32_t *work)
{
    const uint64_t mask = 2 * (uint64_t)ctl[X_NODE_CAP] - 1;
    for (; ctl[X_ROOT] < ctl[X_ROOTS]; ctl[X_ROOT]++) {
        const int64_t root = ctl[X_ROOT];
        int64_t nodes, value, i;
        int status;
        if (!ctl[X_NODES]) {
            codes[0] = roots[root];
            ctl[X_HEAD] = ctl[X_INDEXED] = ctl[X_EDGES] = 0;
            ctl[X_NODES] = 1;
        }
        status = search(steps, ctl, codes, table, starts, targets);
        if (status == EXPLORE_FULL)
            return status;
        nodes = ctl[X_NODES];
        ctl[X_NODES] = 0;
        for (i = nodes; i--;)
            table[slot_of(codes, table, mask, codes[i])] = 0;
        if (status != EXPLORE_DONE)
            return status;
        transpose(nodes, starts, targets, offsets, sources);
        for (value = 1; value >= 0; value--)
            if (eventually_stable(codes, nodes, masks[0], masks[1], masks[2], value,
                                  offsets, sources, work))
                break;
        out[2 * root] = nodes;
        out[2 * root + 1] = value;
    }
    return EXPLORE_DONE;
}
