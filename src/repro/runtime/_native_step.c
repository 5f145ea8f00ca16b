/*
 * Fused fixed-point step of repro.runtime.batch.BatchedNetwork.
 *
 * One call advances every replica row of an exact-mode batch by one
 * 1 ms step on the raw-integer current feed: the CSR gather-sum of the
 * last step's spikes, the DCU decay of the carried Q15.16 current (or
 * its recomputation from the drive), the Q15.16 quantisation of
 * ``base * 2^16 + S_raw`` and every fixed-point Izhikevich substep, all
 * in place.  Each stage repeats, per element, the integer and float64
 * operations of its NumPy twin in batch.py, so the result is bit-for-bit
 * the NumPy step's:
 *
 *   gather    _SynapseBatch._gather_sum (integer sums, any order)
 *   decay     _decay_raw_inplace
 *   quantise  BatchedNetwork._fixed_isyn_raw + _quantize_scaled_q15_16
 *   substep   _FixedBatchKernel.substep
 *
 * That equivalence rests on the build flags chosen by _native.py:
 * -fwrapv (int64 wraps like NumPy), -ffp-contract=off (no FMA may fuse
 * ``base * 2^16 + S``) and no -ffast-math (every float operation keeps
 * its IEEE rounding).  tests/runtime/test_native_step.py checks it
 * differentially.  The element loops are branch-free over restrict
 * pointers, so -O3 vectorises them.
 */
#include <math.h>
#include <stdint.h>

/* Field order and types mirror _native._layout_type(); every field is
 * eight bytes wide, so there is no padding to keep in sync. */
typedef struct {
    int64_t batch, size;
    int64_t layout;       /* 0: no synapses, 1: shared CSC, 2: flat CSC */
    int64_t decay;        /* 1: DCU decay of the carried current, 0: recompute */
    int64_t shifts[4];    /* DCU shift selection, padded with zeros ... */
    int64_t masks[4];     /* ... whose mask is 0 (all ones when used) */
    int64_t h_shift, substeps, pin;
    int64_t coeff_004, const_140, bv_shift, v_th;
    int64_t q78_min, q78_max, q1516_min, q1516_max;
    const int64_t *indptr, *indices, *weights;
    int64_t *v, *u;
    const int64_t *a, *b, *c, *d;
    int64_t *isyn;
    int64_t *syn;         /* one row of scratch for the synaptic sum */
} repro_step_layout;

/* Keeps each stage a separate function, so its restrict parameters hold
 * and its loops vectorise (inlined into the row loop they do not). */
#define NOINLINE __attribute__((noinline))

static inline int64_t clip64(int64_t x, int64_t lo, int64_t hi)
{
    x = x < lo ? lo : x;
    return x > hi ? hi : x;
}

/* Raw Q15.16 synaptic current of one row from the last step's spikes. */
static NOINLINE void gather_row(const repro_step_layout *L, int64_t row,
                                const uint8_t *restrict fired, int64_t *restrict syn)
{
    const int64_t n = L->size;
    for (int64_t i = 0; i < n; ++i)
        syn[i] = 0;
    if (L->layout == 0)
        return;
    /* The flat layout spans (batch * size) columns whose targets carry
     * the row offset; the shared one is the same N-column CSC per row. */
    const int64_t off = L->layout == 2 ? row * n : 0;
    const int64_t *restrict indptr = L->indptr + off;
    const int64_t *restrict indices = L->indices;
    const int64_t *restrict weights = L->weights;
    for (int64_t j = 0; j < n; ++j) {
        if (!fired[j])
            continue;
        for (int64_t k = indptr[j]; k < indptr[j + 1]; ++k)
            syn[indices[k] - off] += weights[k];
    }
}

/* Round-to-nearest-away and saturate ``z`` to a raw Q15.16 integer.
 *
 * The NumPy twin computes copysign(floor(|z| + 0.5), z) and clips it to
 * [q_min, q_max].  Here the same |z| + 0.5 is capped at 2^31 first and
 * truncated to an integer (truncation is floor for |z| + 0.5 >= 0, and
 * capping commutes with floor), then signed and clipped as integers: the
 * same value for every input, but vectorisable without a floor call. */
static inline int64_t quantise(double z, int64_t q_min, int64_t q_max)
{
    double t = fabs(z) + 0.5;
    t = t < 2147483648.0 ? t : 2147483648.0;
    const int64_t m = (int64_t)t;
    return clip64(z < 0.0 ? -m : m, q_min, q_max);
}

/* Decay (or recompute) and quantise the kernel input current of one row. */
static NOINLINE void current_row(const repro_step_layout *L, const double *restrict ext,
                                 const int64_t *restrict syn, int64_t *restrict isyn)
{
    const int64_t n = L->size, qlo = L->q1516_min, qhi = L->q1516_max;
    const double scale = 65536.0, inv_scale = 1.0 / 65536.0;
    if (L->decay) {
        const int64_t s0 = L->shifts[0], s1 = L->shifts[1], s2 = L->shifts[2], s3 = L->shifts[3];
        const int64_t m0 = L->masks[0], m1 = L->masks[1], m2 = L->masks[2], m3 = L->masks[3];
        const int64_t h = L->h_shift;
        for (int64_t i = 0; i < n; ++i) {
            const int64_t x = isyn[i];
            const int64_t delta = ((x >> s0) & m0) + ((x >> s1) & m1) + ((x >> s2) & m2)
                                  + ((x >> s3) & m3);
            const int64_t decayed = clip64(x - (delta >> h), qlo, qhi);
            const double base = (double)decayed * inv_scale + ext[i];
            isyn[i] = quantise(base * scale + (double)syn[i], qlo, qhi);
        }
    } else {
        for (int64_t i = 0; i < n; ++i)
            isyn[i] = quantise(ext[i] * scale + (double)syn[i], qlo, qhi);
    }
}

/* Every fixed-point substep of one row; ORs the spikes into ``fired``. */
static NOINLINE void neuron_row(const repro_step_layout *L, int64_t *restrict v,
                                int64_t *restrict u, const int64_t *restrict a,
                                const int64_t *restrict b, const int64_t *restrict c,
                                const int64_t *restrict d, const int64_t *restrict isyn,
                                uint8_t *restrict fired)
{
    const int64_t n = L->size, h = L->h_shift, pin = L->pin;
    const int64_t coeff = L->coeff_004, c140 = L->const_140, bv_shift = L->bv_shift;
    const int64_t v_th = L->v_th, lo = L->q78_min, hi = L->q78_max;
    for (int64_t i = 0; i < n; ++i)
        fired[i] = 0;
    for (int64_t s = 0; s < L->substeps; ++s) {
        for (int64_t i = 0; i < n; ++i) {
            const int64_t vv = v[i], uu = u[i];
            const int64_t v_acc = vv * 256, u_acc = uu * 256; /* Q7.8 -> 16 frac bits */
            const int64_t dv = ((((vv * vv) * coeff) >> 11) + 5 * v_acc + c140 - u_acc + isyn[i])
                               >> h;
            const int64_t du = ((((b[i] * vv) >> bv_shift) - u_acc) * a[i]) >> (11 + h);
            int64_t v_new = clip64((v_acc + dv) >> 8, lo, hi);
            const int64_t u_new = clip64((u_acc + du) >> 8, lo, hi);
            const int64_t spike = v_new >= v_th;
            v_new = spike ? c[i] : v_new;
            v_new = pin && v_new < c[i] ? c[i] : v_new;
            v[i] = v_new;
            u[i] = spike ? clip64(u_new + d[i], lo, hi) : u_new;
            fired[i] |= (uint8_t)spike;
        }
    }
}

void repro_batch_step(const repro_step_layout *L, const double *ext,
                      const uint8_t *last_fired, uint8_t *fired)
{
    const int64_t n = L->size;
    for (int64_t row = 0; row < L->batch; ++row) {
        const int64_t off = row * n;
        gather_row(L, row, last_fired + off, L->syn);
        current_row(L, ext + off, L->syn, L->isyn + off);
        neuron_row(L, L->v + off, L->u + off, L->a + off, L->b + off, L->c + off, L->d + off,
                   L->isyn + off, fired + off);
    }
}
