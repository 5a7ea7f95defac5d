/* The per-sample loops of vrlite's optimizers, compiled once on import by
 * vrlite/_kernel.py with -O3 -ffp-contract=off (and no -march flag).
 *
 * Every function repeats, operation for operation, the Python it replaces:
 * the margin is a left-to-right sum from 0.0, the gradient is
 * coef * a[j] + lam2 * x[j], the corrected step is
 * x[j] - eta * ((g[j] - g_ref[j]) + g_mean[j]), and SAGA's update follows
 * optim.saga_step. Without fused multiply-adds each operation rounds
 * exactly as Python's float and NumPy's elementwise arithmetic do, so
 * results match the public per-sample API bit for bit.
 *
 * One step is one fused pass over j. The gradients, the update and the
 * accumulators are elementwise, so computing them in one loop changes no
 * value. The margins a step needs are summed in the pass before it: while
 * the new x[j] is written, the same pass adds a_next[j] * x[j] (the next
 * step's margin), a_next[j] * x_ref[j] (its anchor margin) and, for "post",
 * a[j] * x[j]. Each of these is its own left-to-right chain from 0.0, as
 * dot sums it; the compiler may not reassociate floating-point sums
 * (no -ffast-math), so interleaving independent chains leaves every bit
 * in place. Only "post" needs a second pass, because its gradient waits
 * for the margin of the finished iterate.
 *
 * Lanes. The epoch loop is written once, in EPOCH_LOOP, over a lane type T
 * of W doubles: each lane is one run with its own iterate, anchor,
 * accumulators and stepsize, and all lanes take the same sample order. A
 * lane's arithmetic is the one-run arithmetic, element by element (gcc's
 * vector extensions round each element as the scalar operation does, and
 * every margin stays its own chain from 0.0), so every lane equals a run
 * of its own bit for bit. Four static instantiations:
 *   epoch_one       T = double, W = 1: one run, in the caller's arrays;
 *   epoch_one_avx2  the same loop built for AVX2: gcc vectorizes its
 *                   elementwise work across j four wide instead of two;
 *                   each margin stays an in-order chain, and the avx2
 *                   target has no fused multiply-add;
 *   epoch_lanes2    two lanes of the baseline ISA (SSE2 on x86-64);
 *   epoch_lanes4    four AVX2 lanes.
 * The AVX2 builds exist on x86-64 only and carry a per-function target
 * attribute, so the file needs no -march flag. `epoch`, the one entry,
 * takes K runs as (K, d) row-major arrays and steps them in blocks of
 * lane_width(), the widest width this CPU runs. It copies each block into
 * the caller's `work` as (d, W) lanes, the lanes past the last run padded
 * with 0, and copies the iterates and sums back afterwards. A block with
 * one live run goes through the one-run loop in place instead, which is
 * faster there. The width and both loops are picked once, when the
 * library loads: the AVX2 ones wherever the CPU has AVX2.
 *
 * The caller has checked every length and index, and the arrays `epoch`
 * writes (x, acc_x, acc_g, work) overlap no other argument: the loops take
 * every array as a restrict pointer, which spares them a run-time overlap
 * check per step. Nothing here allocates or touches a Python object, so
 * the calls run without the interpreter lock.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

/* Lane vectors at the alignment of a double: the caller's arrays are only
 * that aligned. may_alias, because they read and write double arrays. */
typedef double lanes2 __attribute__((vector_size(16), aligned(8), may_alias));

/* VRLITE_BASELINE_ONLY builds the source as a gcc for another
 * architecture sees it, without the AVX2 path. */
#if defined(__x86_64__) && !defined(VRLITE_BASELINE_ONLY)
#define HAVE_LANES4 1
#define AVX2 __attribute__((target("avx2")))
typedef double lanes4 __attribute__((vector_size(32), aligned(8), may_alias));
#endif

/* model._grad_coef and model._sigmoid: the exp argument is never > 0. */
static inline double grad_coef(int logistic, double margin, double label)
{
    if (logistic) {
        double z = label * margin, s;
        if (z >= 0.0) {
            s = 1.0 / (1.0 + exp(-z));
        } else {
            double e = exp(z);
            s = e / (1.0 + e);
        }
        return label * s;
    }
    return 2.0 * (margin - label);
}

/* grad_coef lane by lane; the ridge branch is elementwise as it stands. */
#define LANE_COEF(NAME, T, W, ATTR)                                            \
    static inline __attribute__((always_inline)) ATTR T                       \
    NAME(int logistic, T margin, double label)                                 \
    {                                                                          \
        if (!logistic)                                                         \
            return 2.0 * (margin - label);                                     \
        T c;                                                                   \
        for (int w = 0; w < W; w++)                                            \
            c[w] = grad_coef(1, margin[w], label);                             \
        return c;                                                              \
    }

double dot(const double *a, const double *x, int64_t d)
{
    double s = 0.0;
    for (int64_t j = 0; j < d; j++)
        s += a[j] * x[j];
    return s;
}

/* optim._epoch for the W runs of one block: m steps over rows
 * order[0..m) of the (n, d) matrix F. Per-run arrays are (d, W): element j
 * of lane w sits at j * W + w. x_ref and g_mean are both NULL for plain
 * SGD. accum is 0 (nothing accumulated), 1 ("post": the gradient at the
 * updated iterate) or 2 ("reuse": the step gradient); acc_x and acc_g
 * receive the sums. eta holds one stepsize per lane. */
#define EPOCH_LOOP(NAME, T, COEF, ATTR)                                        \
    static ATTR void NAME(const double *restrict F,                            \
                          const double *restrict L,                            \
                          const int64_t *restrict order, int64_t m, int64_t d, \
                          double *restrict x_, const double *restrict x_ref_,  \
                          const double *restrict g_mean_, int logistic,        \
                          double lam2, const double *restrict eta_, int accum, \
                          double *restrict acc_x_, double *restrict acc_g_)    \
    {                                                                          \
        if (m == 0)                                                            \
            return;                                                            \
        int anchored = x_ref_ != NULL;                                         \
        T *x = (T *)x_, *acc_x = (T *)acc_x_, *acc_g = (T *)acc_g_;            \
        const T *x_ref = (const T *)x_ref_, *g_mean = (const T *)g_mean_;      \
        T eta = *(const T *)eta_;                                              \
        const double *a = F + order[0] * d;                                    \
        T margin = {0}, margin_ref = {0};                                      \
        for (int64_t j = 0; j < d; j++) {                                      \
            margin += a[j] * x[j];                                             \
            if (anchored)                                                      \
                margin_ref += a[j] * x_ref[j];                                 \
        }                                                                      \
        for (int64_t k = 0; k < m; k++) {                                      \
            /* The last step looks ahead at its own row; those sums go         \
             * unused. */                                                      \
            const double *a_next = F + order[k + 1 < m ? k + 1 : k] * d;       \
            double b = L[order[k]];                                            \
            T c = COEF(logistic, margin, b), c_ref = {0};                      \
            if (anchored)                                                      \
                c_ref = COEF(logistic, margin_ref, b);                         \
            T s_post = {0}, s_next = {0}, s_ref = {0};                         \
            for (int64_t j = 0; j < d; j++) {                                  \
                T g = c * a[j] + lam2 * x[j], xj;                              \
                if (!anchored) {                                               \
                    xj = x[j] - eta * g;                                       \
                } else {                                                       \
                    T h = c_ref * a[j] + lam2 * x_ref[j];                      \
                    xj = x[j] - eta * ((g - h) + g_mean[j]);                   \
                    s_ref += a_next[j] * x_ref[j];                             \
                }                                                              \
                x[j] = xj;                                                     \
                s_next += a_next[j] * xj;                                      \
                if (accum) {                                                   \
                    acc_x[j] += xj;                                            \
                    if (accum == 1)                                            \
                        s_post += a[j] * xj;                                   \
                    else                                                       \
                        acc_g[j] += g;                                         \
                }                                                              \
            }                                                                  \
            if (accum == 1) {                                                  \
                T c_post = COEF(logistic, s_post, b);                          \
                for (int64_t j = 0; j < d; j++)                                \
                    acc_g[j] += c_post * a[j] + lam2 * x[j];                   \
            }                                                                  \
            a = a_next;                                                        \
            margin = s_next;                                                   \
            margin_ref = s_ref;                                                \
        }                                                                      \
    }

EPOCH_LOOP(epoch_one, double, grad_coef, )

LANE_COEF(coef_lanes2, lanes2, 2, )
EPOCH_LOOP(epoch_lanes2, lanes2, coef_lanes2, )

#ifdef HAVE_LANES4
EPOCH_LOOP(epoch_one_avx2, double, grad_coef, AVX2)

LANE_COEF(coef_lanes4, lanes4, 4, AVX2)
EPOCH_LOOP(epoch_lanes4, lanes4, coef_lanes4, AVX2)
#endif

/* The one-run and lane paths of `epoch` and the lane width: set by the
 * loader before any call can run and only read after that, so concurrent
 * calls share no writable state. */
static int width = 2;
static __typeof__(epoch_one) *one_loop = epoch_one;
static __typeof__(epoch_lanes2) *lane_loop = epoch_lanes2;

__attribute__((constructor)) static void pick_lanes(void)
{
#ifdef HAVE_LANES4
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
        width = 4;
        one_loop = epoch_one_avx2;
        lane_loop = epoch_lanes4;
    }
#endif
}

/* The widest lane width this CPU runs. */
int lane_width(void)
{
    return width;
}

/* optim._epoch for K runs over one order: x (K, d) is updated in place,
 * x_ref and g_mean are (K, d) or both NULL, eta holds K stepsizes, and
 * acc_x and acc_g (K, d) start at zero and receive the sums. work holds
 * (5 * d + 1) * lane_width() doubles: one block's x, x_ref, g_mean, acc_x
 * and acc_g as (d, W) lanes, then its W stepsizes. */
void epoch(const double *F, const double *L, const int64_t *order, int64_t m,
           int64_t d, int64_t K, double *x, const double *x_ref,
           const double *g_mean, int logistic, double lam2, const double *eta,
           int accum, double *acc_x, double *acc_g, double *work)
{
    const int64_t W = width;
    double *lx = work, *lref = lx + d * W, *lmean = lref + d * W;
    double *lacc_x = lmean + d * W, *lacc_g = lacc_x + d * W;
    double *leta = lacc_g + d * W;
    for (int64_t k0 = 0; k0 < K; k0 += W) {
        int64_t live = K - k0 < W ? K - k0 : W, off = k0 * d;
        if (live == 1) {
            one_loop(F, L, order, m, d, x + off, x_ref ? x_ref + off : NULL,
                     x_ref ? g_mean + off : NULL, logistic, lam2, eta + k0,
                     accum, acc_x + off, acc_g + off);
            continue;
        }
        for (int64_t l = 0; l < (5 * d + 1) * W; l++)
            work[l] = 0.0;
        for (int64_t w = 0; w < live; w++) {
            leta[w] = eta[k0 + w];
            for (int64_t j = 0; j < d; j++) {
                int64_t i = off + w * d + j, l = j * W + w;
                lx[l] = x[i];
                if (x_ref) {
                    lref[l] = x_ref[i];
                    lmean[l] = g_mean[i];
                }
            }
        }
        lane_loop(F, L, order, m, d, lx, x_ref ? lref : NULL,
                  x_ref ? lmean : NULL, logistic, lam2, leta, accum, lacc_x,
                  lacc_g);
        for (int64_t w = 0; w < live; w++)
            for (int64_t j = 0; j < d; j++) {
                int64_t i = off + w * d + j, l = j * W + w;
                x[i] = lx[l];
                acc_x[i] = lacc_x[l];
                acc_g[i] = lacc_g[l];
            }
    }
}

/* optim.saga_step for i = order[0], ..., order[m-1]: table is (n, d) and
 * mean (d,), both updated in place. */
void saga_epoch(const double *F, const double *L, int64_t n, const int64_t *order,
                int64_t m, int64_t d, double *x, double *table, double *mean,
                int logistic, double lam2, double eta)
{
    if (m == 0)
        return;
    double margin = dot(F + order[0] * d, x, d);
    for (int64_t k = 0; k < m; k++) {
        int64_t i = order[k];
        const double *a = F + i * d, *a_next = F + order[k + 1 < m ? k + 1 : k] * d;
        double *t = table + i * d;
        double c = grad_coef(logistic, margin, L[i]), s_next = 0.0;
        for (int64_t j = 0; j < d; j++) {
            double g = c * a[j] + lam2 * x[j];
            double delta = g - t[j];
            double xj = x[j] - eta * (delta + mean[j]);
            x[j] = xj;
            mean[j] = mean[j] + delta / (double)n;
            t[j] = g;
            s_next += a_next[j] * xj;
        }
        margin = s_next;
    }
}
