/* The native tier of repro.kernels: the paper's Alg. 1-4, the
 * Split-SGD step, the dot interaction (twin in repro.kernels.interaction)
 * and the Criteo generator's two data kernels (twins in
 * repro.kernels.synth) as plain C loops, loaded through ctypes.
 *
 * Every function here promises the bits of its NumPy twin; the row
 * operators' twins in turn promise the bits of repro.kernels.reference
 * (np.add.at).  The rules that make that hold:
 *
 *   - one FP32 add per contribution, in the input order np.add.at
 *     applies them: no reassociation, so never -ffast-math or -Ofast;
 *   - no FMA contraction (-ffp-contract=off): lr*g is rounded to FP32
 *     before it is subtracted, exactly where np.multiply rounds it;
 *   - the one FMA is explicit, __builtin_fmaf in the dot interaction,
 *     whose twin is a BLAS GEMM: its microkernel computes each output
 *     element as one FMA chain over K from +0.0, in K order, while K fits
 *     one of its K blocks (OpenBLAS 0.3.31 on an AVX-512 Xeon: K = 448
 *     held, 512 split).  So each dot and each gradient element is such a
 *     chain, the wrapper caps E at 256, and it checks the host's BLAS
 *     against these loops before it trusts them;
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
 * range) before it passes a pointer.  No Python.h, no OpenMP, no
 * intrinsics; threads come from the caller, who gives each a disjoint
 * range of rows, bags or segments.
 */

#include <stdint.h>
#include <string.h>

#if defined(__GNUC__)
#define PREFETCH_R(p) __builtin_prefetch((p), 0, 3)
#define PREFETCH_W(p) __builtin_prefetch((p), 1, 3)
#else
#define PREFETCH_R(p) ((void)0)
#define PREFETCH_W(p) ((void)0)
#endif

/* Look-ups ahead of the current one whose row is requested from memory:
 * a table is far larger than the caches and its rows are read at random,
 * so without it every row costs a full memory latency.  Swept 8..64 on
 * train_emb's line-aligned slab (400,000 x 64 rows), a fresh batch of
 * 131,072 Zipf look-ups per call, seven rounds on a 2-vCPU Xeon: median
 * pool / scatter 19.9 / 19.7 ns/row at 8, 16.8 / 16.2 at 16, 16.9 /
 * 16.0 at 32, 15.3 / 13.9 at 64, where 64 beat 16 in only 4 of 7
 * rounds.  A call's first AHEAD look-ups go unprefetched, more of a
 * short call's the longer the distance, so 16 stays. */
#define AHEAD 16
/* Bytes of a cache line, the unit a prefetch requests. */
#define LINE 64

#define KNUTH UINT64_C(2654435761) /* synth.KNUTH: Zipf scramble and teacher hash */
#define SCRAMBLE_SHIFT 12345

/* Bumped whenever a signature below changes; the loader refuses a
 * library that answers anything else. */
int64_t repro_abi(void) { return 3; }

static inline float bits_to_f32(uint32_t bits)
{
    float f;
    memcpy(&f, &bits, sizeof f);
    return f;
}

static inline uint32_t f32_to_bits(float f)
{
    uint32_t bits;
    memcpy(&bits, &f, sizeof bits);
    return bits;
}

/* Every line a row of `bytes` bytes touches, from the line holding its
 * first byte to the line holding its last: one more than bytes / LINE
 * when the row starts off a line, and that one is a miss if skipped. */
static inline void prefetch_row_r(const char *row, int64_t bytes)
{
    uintptr_t end = (uintptr_t)row + (uintptr_t)bytes;
    for (uintptr_t at = (uintptr_t)row & ~(uintptr_t)(LINE - 1); at < end; at += LINE)
        PREFETCH_R((const char *)at);
}

static inline void prefetch_row_w(const char *row, int64_t bytes)
{
    uintptr_t end = (uintptr_t)row + (uintptr_t)bytes;
    for (uintptr_t at = (uintptr_t)row & ~(uintptr_t)(LINE - 1); at < end; at += LINE)
        PREFETCH_W((const char *)at);
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

/* Alg. 3/4: w[ids[i]] += deltas[delta_rows ? delta_rows[i] : i] for the
 * look-ups whose row lies in [lo, hi), in input order -- np.add.at's
 * order, so duplicates fold as they do there.  Threads call it with
 * Alg. 4's disjoint row ranges over the same look-ups: each row has one
 * owner, who meets its contributions in the same order whatever the
 * number of threads. */
void repro_scatter_add_f32(float *restrict w, int64_t dim, const int64_t *restrict ids,
                           int64_t n, const float *restrict deltas,
                           const int64_t *restrict delta_rows, int64_t lo, int64_t hi)
{
    for (int64_t i = 0; i < n; i++) {
        if (i + AHEAD < n) {
            int64_t ahead = ids[i + AHEAD];
            if (ahead >= lo && ahead < hi)
                prefetch_row_w((const char *)(w + ahead * dim), dim * 4);
        }
        int64_t r = ids[i];
        if (r < lo || r >= hi)
            continue;
        float *restrict row = w + r * dim;
        const float *restrict d = deltas + (delta_rows ? delta_rows[i] : i) * dim;
        for (int64_t e = 0; e < dim; e++)
            row[e] += d[e];
    }
}

/* Alg. 1 over FP32 rows: out[b] = ((+0.0 + w[ids[s0]]) + w[ids[s0+1]]) + ...
 * over bag b's look-ups [offsets[b], offsets[b+1]), for b in
 * [bag_lo, bag_hi).  An empty bag is a +0.0 row. */
void repro_pool_f32(const float *restrict w, int64_t dim, const int64_t *restrict ids,
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
                prefetch_row_r((const char *)(w + ids[s + AHEAD] * dim), dim * 4);
            const float *restrict row = w + ids[s] * dim;
            for (int64_t e = 0; e < dim; e++)
                y[e] += row[e];
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
                prefetch_row_r((const char *)(hi + ids[s + AHEAD] * dim), dim * 2);
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
            prefetch_row_w((const char *)(hi + uniq[j + AHEAD] * dim), dim * 2);
            prefetch_row_w((const char *)(lo + uniq[j + AHEAD] * dim), dim * 2);
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
 * [i0, i0 + 8) by columns [j0, j0 + 8), j0 < i0: per k, eight values of
 * zt and eight broadcasts from zr feed 64 chains held in registers.
 * scratch: (2 * e + vp) * vp floats. */
void repro_dot_fwd(const float *const *vecs, int64_t n, int64_t v, int64_t e,
                   float *restrict z, float *restrict out, float *restrict scratch)
{
    const int64_t vp = (v + 14) & ~(int64_t)7, width = e + v * (v - 1) / 2;
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
                float acc[8][8] = {{0.0f}};
                for (int64_t k = 0; k < e; k++) {
                    const float *cj = zt + j0 * e + k * 8, *ci = zr + i0 * e + k;
#pragma GCC unroll 8
                    for (int r = 0; r < 8; r++) {
                        const float a = ci[r * e];
#pragma GCC unroll 8
                        for (int t = 0; t < 8; t++)
                            acc[r][t] = __builtin_fmaf(a, cj[t], acc[r][t]);
                    }
                }
                for (int r = 0; r < 8; r++)
                    memcpy(p + (i0 + r) * vp + j0, acc[r], sizeof acc[r]);
            }
        float *restrict o = out + s * width;
        memcpy(o, zr, (size_t)e * sizeof *o);
        for (int64_t i = 1, at = e; i < v; i++)
            for (int64_t j = 0; j < i; j++)
                o[at++] = p[i * vp + j] + 0.0f;
    }
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
