/* The native tier of repro.kernels: the paper's Alg. 1-4, the
 * Split-SGD step, the dot interaction (twin in repro.kernels.interaction),
 * the Criteo generator's two data kernels (twins in repro.kernels.synth)
 * and the tables' uniform draw (twin: NumPy's PCG64 Generator.uniform)
 * as plain C loops, loaded through ctypes.
 *
 * Every function here promises the bits of its NumPy twin; the row
 * operators' twins in turn promise the bits of repro.kernels.reference
 * (np.add.at).  The rules that make that hold:
 *
 *   - one FP32 add per contribution, in the input order np.add.at
 *     applies them: no reassociation, so never -ffast-math or -Ofast.
 *     Vector lanes run across a row's independent elements, never along
 *     a sum, so each element keeps its adds and their order;
 *   - no FMA contraction (-ffp-contract=off): lr*g, and the scatter's
 *     scale*dY, round to FP32 before the add, where np.multiply rounds;
 *   - the FMAs are the dot interaction's, whose twin is a BLAS GEMM: its
 *     microkernel computes each output element as one FMA chain over K
 *     from +0.0, in K order, while K fits one of its K blocks (OpenBLAS
 *     0.3.31 on an AVX-512 Xeon: K = 448 held, 512 split).  So each dot
 *     and each gradient element is such a chain, the wrapper caps E at
 *     256, and it checks the host's BLAS against these loops before it
 *     trusts them.  The backward spells them __builtin_fmaf; the
 *     forward's tile is the one site compiled with fp-contract=fast,
 *     where a vector a * b + c is the only expression to fuse;
 *   - a sum starts from +0.0 wherever NumPy's does (the pooled forward,
 *     the Split-BF16 aggregate, a teacher bag), and from the stored row
 *     for the in-place scatter;
 *   - the Split-BF16 path aggregates a row's deltas first and adds the
 *     aggregate to hi||lo once;
 *   - hash and scramble arithmetic is uint64, wrapping as NumPy's; the
 *     Zipf draws' power stays in NumPy (libm's pow promises other bits);
 *   - storage rows arrive line-aligned from workspace.aligned_empty (a
 *     256-byte row then spans 4 lines, not 5), but no loop relies on
 *     it: an array off a line runs the same adds, and the row prefetch
 *     covers every line a row touches wherever it starts.
 *
 * No function checks its arguments: repro/kernels/native/__init__.py
 * owns every check (dtype, contiguity, writeability, shapes, ids in
 * range) before it passes a pointer.  No Python.h, no OpenMP; GCC vector
 * types, no target intrinsics, so the vector width is the source's, not
 * the compiler's tuning for the host.  Threads come from the caller, who
 * gives each a disjoint range of rows, bags or segments.
 */

#include <stdint.h>
#include <string.h>

/* Look-ups ahead of the current one whose row is requested from memory:
 * a table is far larger than the caches and its rows are read at random,
 * so without it every row costs a full memory latency.  Swept on
 * train_emb's line-aligned slab (400,000 x 64 rows), a fresh batch of
 * 131,072 Zipf look-ups per call, 5 rounds on a 2-vCPU Xeon: median
 * pool / scatter 8.9 / 12.4 ns/row at 8, 7.3 / 9.8 at 16, 6.7 / 9.1 at
 * 32, 6.3 / 9.1 at 64, 6.5 / 8.9 at 96, 7.5 / 10.0 at 128 (scalar loops:
 * 10.8 / 10.1 at 16).  Seven more rounds: 32 beat 16 in all, 32 and 64
 * split them.  A call's first AHEAD look-ups go unprefetched, so of the
 * two the shorter stays. */
#define AHEAD 32
/* Bytes of a cache line, the unit a prefetch requests. */
#define LINE 64

/* 16 and 8 FP32 lanes as GCC vector types, lowered to whatever the
 * target has (16 lanes: one zmm, two ymm, four xmm, or scalars);
 * aligned(4): a load or store may start at any float. */
typedef float f32x16 __attribute__((vector_size(64), aligned(4)));
typedef float f32x8 __attribute__((vector_size(32), aligned(4)));

#define KNUTH UINT64_C(2654435761) /* synth.KNUTH: Zipf scramble and teacher hash */
#define SCRAMBLE_SHIFT 12345

/* Bumped whenever a signature below changes; the loader refuses a
 * library that answers anything else. */
int64_t repro_abi(void) { return 6; }

static inline float bits_to_f32(uint32_t bits) { float f; memcpy(&f, &bits, 4); return f; }
static inline uint32_t f32_to_bits(float f) { uint32_t bits; memcpy(&bits, &f, 4); return bits; }

/* Every line a row of `bytes` bytes touches, from the line holding its
 * first byte to the line holding its last: one more than bytes / LINE
 * when the row starts off a line, and that one is a miss if skipped. */
static inline void prefetch_row(const char *row, int64_t bytes, int write)
{
    uintptr_t end = (uintptr_t)row + (uintptr_t)bytes;
    for (uintptr_t at = (uintptr_t)row & ~(uintptr_t)(LINE - 1); at < end; at += LINE)
        write ? __builtin_prefetch((const char *)at, 1, 3) : __builtin_prefetch((const char *)at, 0, 3);
}

/* 1 when every ids[i] lies in [0, bound), else 0: the one pass the
 * wrapper runs over an id vector before any kernel may index with it. */
int repro_ids_in_range(const int64_t *ids, int64_t n, int64_t bound)
{
    int ok = 1;
    for (int64_t i = 0; i < n; i++)
        ok &= (uint64_t)ids[i] < (uint64_t)bound;
    return ok;
}

/* Alg. 2-4 in one pass: look-up s of bag b (s in [offsets[b], offsets[b+1]),
 * or look-up b alone when offsets is NULL) adds fl32(scale * deltas[b]) to
 * w[ids[s]] if that row is in [lo, hi), in input order: np.add.at's order
 * over the scaled, expanded deltas.  Threads take Alg. 4's disjoint row
 * ranges over the same look-ups: each row has one owner, who meets its
 * contributions in the same order whatever the number of threads. */
void repro_scatter_add_f32(float *restrict w, int64_t dim, const int64_t *restrict ids,
                           const int64_t *restrict offsets, int64_t bags,
                           const float *restrict deltas, float scale, int64_t lo, int64_t hi)
{
    const int64_t n = offsets ? offsets[bags] : bags;
    for (int64_t b = 0, s = 0; b < bags; b++) {
        const float *restrict d = deltas + b * dim;
        for (const int64_t end = offsets ? offsets[b + 1] : b + 1; s < end; s++) {
            if (s + AHEAD < n) {
                int64_t ahead = ids[s + AHEAD];
                if (ahead >= lo && ahead < hi)
                    prefetch_row((const char *)(w + ahead * dim), dim * 4, 1);
            }
            int64_t r = ids[s];
            if (r < lo || r >= hi)
                continue;
            float *restrict row = w + r * dim;
            int64_t e = 0;
            for (; e + 16 <= dim; e += 16)
                *(f32x16 *)(row + e) += scale * *(const f32x16 *)(d + e);
            for (; e < dim; e++)
                row[e] += scale * d[e];
        }
    }
}

/* Lanes [e, e + 16 * q) of a bag's sum over look-ups [s0, s1), held in q
 * 16-lane registers across the bag and stored once at y + e; the pass at
 * e == 0 requests the rows AHEAD look-ups on. */
static inline __attribute__((always_inline)) void pool_lanes(
    const float *restrict w, int64_t dim, const int64_t *restrict ids, int64_t s0, int64_t s1,
    int64_t end, int64_t e, const int q, float *restrict y)
{
    f32x16 a[4] = {{0}};
    for (int64_t s = s0; s < s1; s++) {
        if (e == 0 && s + AHEAD < end)
            prefetch_row((const char *)(w + ids[s + AHEAD] * dim), dim * 4, 0);
        for (int j = 0; j < q; j++)
            a[j] += *(const f32x16 *)(w + ids[s] * dim + e + 16 * j);
    }
    for (int j = 0; j < q; j++)
        *(f32x16 *)(y + e + 16 * j) = a[j];
}

/* Alg. 1 over FP32 rows: out[b] = ((+0.0 + w[ids[s0]]) + w[ids[s0+1]]) + ...
 * over bag b's look-ups [offsets[b], offsets[b+1]), for b in
 * [bag_lo, bag_hi).  An empty bag is a +0.0 row.  A row's 64-float
 * blocks, then 16-float blocks, then single elements, each summed
 * across the bag in registers. */
void repro_pool_f32(const float *restrict w, int64_t dim, const int64_t *restrict ids,
                    const int64_t *restrict offsets, int64_t bag_lo, int64_t bag_hi,
                    float *restrict out)
{
    const int64_t end = offsets[bag_hi];
    for (int64_t b = bag_lo; b < bag_hi; b++) {
        const int64_t s0 = offsets[b], s1 = offsets[b + 1];
        float *restrict y = out + b * dim;
        int64_t e = 0;
        for (; e + 64 <= dim; e += 64)
            pool_lanes(w, dim, ids, s0, s1, end, e, 4, y);
        for (; e + 16 <= dim; e += 16)
            pool_lanes(w, dim, ids, s0, s1, end, e, 1, y);
        for (; e < dim; e++) {
            float a = 0.0f;
            for (int64_t s = s0; s < s1; s++) {
                if (e == 0 && s + AHEAD < end)
                    prefetch_row((const char *)(w + ids[s + AHEAD] * dim), dim * 4, 0);
                a += w[ids[s] * dim + e];
            }
            y[e] = a;
        }
    }
}

/* Alg. 1 over Split-BF16 rows: the same fold over hi[ids[s]] widened to
 * FP32 on the fly (the 16 MSBs of the master weight; lo is never read). */
void repro_pool_bf16(const uint16_t *restrict hi, int64_t dim, const int64_t *restrict ids,
                     const int64_t *restrict offsets, int64_t bag_lo, int64_t bag_hi,
                     float *restrict out)
{
    int64_t end = offsets[bag_hi];
    for (int64_t b = bag_lo; b < bag_hi; b++) {
        float *restrict y = out + b * dim;
        for (int64_t e = 0; e < dim; e++)
            y[e] = 0.0f;
        for (int64_t s = offsets[b]; s < offsets[b + 1]; s++) {
            if (s + AHEAD < end)
                prefetch_row((const char *)(hi + ids[s + AHEAD] * dim), dim * 2, 0);
            const uint16_t *restrict row = hi + ids[s] * dim;
            for (int64_t e = 0; e < dim; e++)
                y[e] += bits_to_f32((uint32_t)row[e] << 16);
        }
    }
}

/* The Split-BF16 row update, one pass over the touched rows.  Segment j
 * of a stable sort of the look-ups (sorted positions [starts[j],
 * starts[j] + lengths[j])) holds every contribution to row uniq[j] in
 * input order; contribution p is deltas[delta_rows ? delta_rows[order[p]]
 * : order[p]].  Per segment in [seg_lo, seg_hi): aggregate from +0.0
 * into acc (dim floats of caller scratch), rejoin hi||lo into the FP32
 * master, add the aggregate once, split again; lo keeps the bits of
 * lo_mask (0xFFFF, or fewer for the FP24 ablation). */
void repro_split_scatter_add(uint16_t *restrict hi, uint16_t *restrict lo, int64_t dim,
                             uint16_t lo_mask, const int64_t *restrict uniq,
                             const int64_t *restrict starts, const int64_t *restrict lengths,
                             int64_t seg_lo, int64_t seg_hi, const int64_t *restrict order,
                             const int64_t *restrict delta_rows,
                             const float *restrict deltas, float *restrict acc)
{
    for (int64_t j = seg_lo; j < seg_hi; j++) {
        if (j + AHEAD < seg_hi) {
            prefetch_row((const char *)(hi + uniq[j + AHEAD] * dim), dim * 2, 1);
            prefetch_row((const char *)(lo + uniq[j + AHEAD] * dim), dim * 2, 1);
        }
        for (int64_t e = 0; e < dim; e++)
            acc[e] = 0.0f;
        for (int64_t p = starts[j]; p < starts[j] + lengths[j]; p++) {
            int64_t src = delta_rows ? delta_rows[order[p]] : order[p];
            const float *restrict d = deltas + src * dim;
            for (int64_t e = 0; e < dim; e++)
                acc[e] += d[e];
        }
        uint16_t *restrict h = hi + uniq[j] * dim;
        uint16_t *restrict l = lo + uniq[j] * dim;
        for (int64_t e = 0; e < dim; e++) {
            float master = bits_to_f32((uint32_t)h[e] << 16 | l[e]);
            uint32_t bits = f32_to_bits(master + acc[e]);
            h[e] = (uint16_t)(bits >> 16);
            l[e] = (uint16_t)bits & lo_mask;
        }
    }
}

/* SGD on a span of a dense slab: values[i] -= fl32(lr * grads[i]). */
void repro_sgd_step(float *restrict values, const float *restrict grads, int64_t n, float lr)
{
    for (int64_t i = 0; i < n; i++) {
        float scaled = grads[i] * lr;
        values[i] = values[i] - scaled;
    }
}

/* Split-SGD on a span: values hold BF16 numbers widened to FP32 (their
 * 16 LSBs zero), lo the other halves.  Rejoin, step at full FP32
 * accuracy, split again. */
void repro_split_sgd_step(uint32_t *restrict values, uint16_t *restrict lo,
                          const float *restrict grads, int64_t n, float lr,
                          uint16_t lo_mask)
{
    for (int64_t i = 0; i < n; i++) {
        float scaled = grads[i] * lr;
        uint32_t bits = f32_to_bits(bits_to_f32(values[i] | lo[i]) - scaled);
        lo[i] = (uint16_t)bits & lo_mask;
        values[i] = bits & 0xFFFF0000u;
    }
}

/* bounded_zipf's integer tail: r = min(trunc(x) - 1, items - 1) clipped
 * at 0 (NaN gives items - 1), then, if scramble, ((r + 12345) * KNUTH) mod
 * items.  The wrapper admits items <= synth.MAX_SCRAMBLE_ITEMS: the product
 * stays below 2^63 and its quotient below 2^45, so a double reciprocal's
 * estimate is off by at most one and one correction each way is exact:
 * 1.1 ns a look-up, where a hardware divide by the runtime divisor took 3.8. */
void repro_zipf_ids(const double *restrict x, int64_t n, int64_t items, int scramble,
                    int64_t *restrict ids)
{
    const double top = (double)items, inv = 1.0 / top;
    for (int64_t i = 0; i < n; i++) {
        double v = x[i];
        int64_t r = !(v < top) ? items - 1 : v < 1.0 ? 0 : (int64_t)v - 1;
        if (scramble) {
            uint64_t p = (uint64_t)(r + SCRAMBLE_SHIFT) * KNUTH;
            int64_t m = (int64_t)(p - (uint64_t)(int64_t)((double)p * inv) * (uint64_t)items);
            m += m < 0 ? items : 0;
            r = m >= items ? m - items : m;
        }
        ids[i] = r;
    }
}

/* The dot interaction's forward (Sect. II: Z Z^T per sample, the strict
 * lower triangle kept).  Sample s stacks v vectors of e floats, vector i
 * at vecs[i] + s * e (vecs[0] the bottom MLP's output, then the tables');
 * out[s] = [vecs[0][s] | p(1,0), p(2,0), p(2,1), p(3,0), ...] in
 * np.tril_indices(v, -1) order, p(i,j) = fma chain over k of
 * z_i[k] * z_j[k] from +0.0, stored as p + 0.0f (BLAS adds its result
 * to a zeroed C: a chain that underflowed to -0.0 lands as +0.0).  z,
 * unless NULL, receives the stacked [n][v][e] the backward reads.  The
 * sample is copied into zr[i][k] (vp >= v + 7 rows, zero past v) and
 * the vectors a column needs (j < v - 1), eight at a time, transposed
 * into zt[b][k][u] (vector 8b + u: a power-of-two group the compiler
 * interleaves with shuffles).  p then fills in 8 x 8 tiles of rows
 * [i0, i0 + 8) by columns [j0, j0 + 8), j0 < i0, as eight 8-lane
 * accumulators: per k, one vector of zt times a broadcast from zr per
 * row, fused -- the file's one contracted expression, so the chains are
 * packed FMAs whatever the compiler's cost model.  scratch holds
 * (2 * e + vp) * vp floats; given fewer (scratch_len), the function
 * writes nothing and returns how many it needs, else 0. */
__attribute__((optimize("fp-contract=fast")))
int64_t repro_dot_fwd(const float *const *vecs, int64_t n, int64_t v, int64_t e,
                      float *restrict z, float *restrict out, float *restrict scratch,
                      int64_t scratch_len)
{
    const int64_t vp = (v + 14) & ~(int64_t)7, width = e + v * (v - 1) / 2;
    if (scratch_len < (2 * e + vp) * vp)
        return (2 * e + vp) * vp;
    float *restrict zt = scratch, *restrict zr = zt + e * vp, *restrict p = zr + e * vp;
    memset(scratch, 0, (size_t)(2 * e * vp) * sizeof *scratch);
    for (int64_t s = 0; s < n; s++) {
        for (int64_t i = 0; i < v; i++)
            memcpy(zr + i * e, vecs[i] + s * e, (size_t)e * sizeof *zr);
        if (z)
            memcpy(z + s * v * e, zr, (size_t)(v * e) * sizeof *z);
        for (int64_t b = 0; b < v - 1; b += 8) {
            float *restrict dst = zt + b * e;
            const float *restrict src = zr + b * e;
            for (int64_t k = 0; k < e; k++)
                for (int u = 0; u < 8; u++)
                    dst[k * 8 + u] = src[u * e + k];
        }
        for (int64_t i0 = 1; i0 < v; i0 += 8)
            for (int64_t j0 = 0; j0 < i0; j0 += 8) {
                f32x8 acc[8] = {{0}};
                for (int64_t k = 0; k < e; k++) {
                    const f32x8 cj = *(const f32x8 *)(zt + j0 * e + k * 8);
                    const float *ci = zr + i0 * e + k;
#pragma GCC unroll 8
                    for (int r = 0; r < 8; r++)
                        acc[r] = ci[r * e] * cj + acc[r];
                }
                for (int r = 0; r < 8; r++)
                    *(f32x8 *)(p + (i0 + r) * vp + j0) = acc[r];
            }
        float *restrict o = out + s * width;
        memcpy(o, zr, (size_t)e * sizeof *o);
        for (int64_t i = 1, at = e; i < v; i++)
            for (int64_t j = 0; j < i; j++)
                o[at++] = p[i * vp + j] + 0.0f;
    }
    return 0;
}

/* The dot interaction's backward over the forward's stacked z.  Per
 * sample: sym[i][j] = dout's entry for pair (max(i,j), min(i,j)) + 0.0f
 * (NumPy's dP + dP^T), sym[i][i] = +0.0; dZ[i] = fma chain over j =
 * 0..v-1 of sym[i][j] * z_j from +0.0 -- the diagonal stays in the chain,
 * so NaN and inf spread as they do through BLAS; then ddense[s] = dZ[0] +
 * dout[s][:e], one add, and dembs[i-1][s] = dZ[i]: every table's
 * gradient in one (v-1, n, e) block.  sym: v * v floats. */
void repro_dot_bwd(const float *restrict z, const float *restrict dout, int64_t n, int64_t v,
                   int64_t e, float *restrict ddense, float *restrict dembs, float *restrict sym)
{
    const int64_t width = e + v * (v - 1) / 2;
    for (int64_t s = 0; s < n; s++) {
        const float *restrict d = dout + s * width, *restrict zs = z + s * v * e;
        for (int64_t i = 0, at = e; i < v; i++) {
            sym[i * v + i] = 0.0f;
            for (int64_t j = 0; j < i; j++)
                sym[i * v + j] = sym[j * v + i] = d[at++] + 0.0f;
        }
        for (int64_t i = 0; i < v; i++) {
            float *restrict g = i ? dembs + ((i - 1) * n + s) * e : ddense + s * e;
            for (int64_t k = 0; k < e; k++)
                g[k] = 0.0f;
            for (int64_t j = 0; j < v; j++) {
                const float c = sym[i * v + j], *restrict zj = zs + j * e;
                for (int64_t k = 0; k < e; k++)
                    g[k] = __builtin_fmaf(c, zj[k], g[k]);
            }
        }
        for (int64_t k = 0; k < e; k++)
            ddense[s * e + k] = ddense[s * e + k] + d[k];
    }
}

/* The teacher's term for one table: per bag b, fold the ids' effects
 * (synth.hashed_effect) from +0.0 in input order into acc, then
 * score[b] += weight * acc / max(len, 1). */
void repro_teacher_bags(const int64_t *restrict ids, const int64_t *restrict offsets,
                        int64_t bags, uint64_t mix, uint64_t seed_mult, double weight,
                        double *restrict score)
{
    for (int64_t b = 0; b < bags; b++) {
        double acc = 0.0;
        for (int64_t s = offsets[b]; s < offsets[b + 1]; s++) {
            uint64_t h = ((uint64_t)ids[s] + mix) * KNUTH;
            h ^= h >> 29;
            h *= seed_mult;
            h ^= h >> 32;
            acc += (double)(uint32_t)h / 4294967296.0 - 0.5;
        }
        int64_t len = offsets[b + 1] - offsets[b];
        score[b] += weight * acc / (double)(len > 1 ? len : 1);
    }
}

/* Generator.uniform(low, low + range, n).astype(float32) for a NumPy
 * PCG64 state (its 128-bit state, then increment, low words first), left
 * where NumPy leaves it.  Draw i steps s = s * M + inc and takes the
 * XSL-RR output x of the new s; out[i] = (float)(low + range * ((x >> 11)
 * * 2^-53)), unfused: NumPy's random_uniform.  Returns 0, touching
 * nothing, on a target without 128-bit integers: NumPy draws there. */
#ifdef __SIZEOF_INT128__
int64_t repro_uniform_fill(uint64_t *restrict state, int64_t n, double low, double range,
                           float *restrict out)
{
    typedef unsigned __int128 u128;
    const u128 m = (u128)UINT64_C(0x2360ED051FC65DA4) << 64 | UINT64_C(0x4385DF649FCCF645);
    const u128 inc = (u128)state[3] << 64 | state[2];
    u128 s = (u128)state[1] << 64 | state[0];
    for (int64_t i = 0; i < n; i++) {
        s = s * m + inc;
        const uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
        const unsigned rot = (unsigned)(s >> 122);
        out[i] = (float)(low + range * ((double)(((x >> rot) | (x << (-rot & 63))) >> 11) * 0x1.0p-53));
    }
    state[0] = (uint64_t)s;
    state[1] = (uint64_t)(s >> 64);
    return 1;
}
#else
int64_t repro_uniform_fill(uint64_t *state, int64_t n, double low, double range, float *out)
{
    (void)state, (void)n, (void)low, (void)range, (void)out;
    return 0;
}
#endif
