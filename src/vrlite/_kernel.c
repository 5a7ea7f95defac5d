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
 * seq_dot sums it; the compiler may not reassociate floating-point sums
 * (no -ffast-math), so interleaving independent chains leaves every bit
 * in place. Only "post" needs a second pass, because its gradient waits
 * for the margin of the finished iterate.
 *
 * The caller has checked every length and index. Nothing here allocates or
 * touches a Python object, so the calls run without the interpreter lock.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

static double seq_dot(const double *a, const double *x, int64_t d)
{
    double s = 0.0;
    for (int64_t j = 0; j < d; j++)
        s += a[j] * x[j];
    return s;
}

/* model._grad_coef and model._sigmoid: the exp argument is never > 0. */
static double grad_coef(int logistic, double margin, double label)
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

double dot(const double *a, const double *x, int64_t d)
{
    return seq_dot(a, x, d);
}

/* optim._epoch: m steps over rows order[0..m) of the (n, d) matrix F.
 * x_ref and g_mean are both NULL for plain SGD. accum is 0 (nothing
 * accumulated), 1 ("post": the gradient at the updated iterate) or 2
 * ("reuse": the step gradient); acc_x and acc_g receive the sums. */
void epoch(const double *F, const double *L, const int64_t *order, int64_t m,
           int64_t d, double *x, const double *x_ref, const double *g_mean,
           int logistic, double lam2, double eta, int accum,
           double *acc_x, double *acc_g)
{
    if (m == 0)
        return;
    const double *a = F + order[0] * d;
    double margin = seq_dot(a, x, d);
    double margin_ref = x_ref == NULL ? 0.0 : seq_dot(a, x_ref, d);
    for (int64_t k = 0; k < m; k++) {
        /* The last step looks ahead at its own row; those sums go unused. */
        const double *a_next = F + order[k + 1 < m ? k + 1 : k] * d;
        double b = L[order[k]];
        double c = grad_coef(logistic, margin, b);
        double c_ref = x_ref == NULL ? 0.0 : grad_coef(logistic, margin_ref, b);
        double s_post = 0.0, s_next = 0.0, s_ref = 0.0;
        for (int64_t j = 0; j < d; j++) {
            double g = c * a[j] + lam2 * x[j], xj;
            if (x_ref == NULL) {
                xj = x[j] - eta * g;
            } else {
                double h = c_ref * a[j] + lam2 * x_ref[j];
                xj = x[j] - eta * ((g - h) + g_mean[j]);
                s_ref += a_next[j] * x_ref[j];
            }
            x[j] = xj;
            s_next += a_next[j] * xj;
            if (accum) {
                acc_x[j] += xj;
                if (accum == 1)
                    s_post += a[j] * xj;
                else
                    acc_g[j] += g;
            }
        }
        if (accum == 1) {
            double c_post = grad_coef(logistic, s_post, b);
            for (int64_t j = 0; j < d; j++)
                acc_g[j] += c_post * a[j] + lam2 * x[j];
        }
        a = a_next;
        margin = s_next;
        margin_ref = s_ref;
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
    double margin = seq_dot(F + order[0] * d, x, d);
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
