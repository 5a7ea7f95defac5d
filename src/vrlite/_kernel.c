/* The per-sample loops of vrlite's optimizers, compiled once on import by
 * vrlite/_kernel.py with -ffp-contract=off.
 *
 * Every function repeats, operation for operation, the Python it replaces:
 * the margin is a left-to-right sum, the gradient is coef * a[j] + lam2 * x[j],
 * the corrected step is x[j] - eta * ((g[j] - g_ref[j]) + g_mean[j]), and
 * SAGA's update follows optim.saga_step. Without fused multiply-adds each
 * operation rounds exactly as Python's float and NumPy's elementwise
 * arithmetic do, so results match the public per-sample API bit for bit.
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

/* model._row_grad: g = coef * a + lam2 * x. */
static void row_grad(double *g, const double *a, double label, const double *x,
                     int64_t d, int logistic, double lam2)
{
    double c = grad_coef(logistic, seq_dot(a, x, d), label);
    for (int64_t j = 0; j < d; j++)
        g[j] = c * a[j] + lam2 * x[j];
}

double dot(const double *a, const double *x, int64_t d)
{
    return seq_dot(a, x, d);
}

/* optim._epoch: m steps over rows order[0..m) of the (n, d) matrix F.
 * x_ref and g_mean are both NULL for plain SGD. accum is 0 (nothing
 * accumulated), 1 ("post": the gradient at the updated iterate) or 2
 * ("reuse": the step gradient); acc_x and acc_g receive the sums. work
 * holds 2 * d doubles. */
void epoch(const double *F, const double *L, const int64_t *order, int64_t m,
           int64_t d, double *x, const double *x_ref, const double *g_mean,
           int logistic, double lam2, double eta, int accum,
           double *acc_x, double *acc_g, double *work)
{
    double *g = work, *h = work + d;
    for (int64_t k = 0; k < m; k++) {
        const double *a = F + order[k] * d;
        double b = L[order[k]];
        row_grad(g, a, b, x, d, logistic, lam2);
        if (x_ref == NULL) {
            for (int64_t j = 0; j < d; j++)
                x[j] = x[j] - eta * g[j];
        } else {
            row_grad(h, a, b, x_ref, d, logistic, lam2);
            for (int64_t j = 0; j < d; j++)
                x[j] = x[j] - eta * ((g[j] - h[j]) + g_mean[j]);
        }
        if (accum) {
            for (int64_t j = 0; j < d; j++)
                acc_x[j] += x[j];
            if (accum == 1)
                row_grad(g, a, b, x, d, logistic, lam2);
            for (int64_t j = 0; j < d; j++)
                acc_g[j] += g[j];
        }
    }
}

/* optim.saga_step for i = order[0], ..., order[m-1]: table is (n, d) and
 * mean (d,), both updated in place. work holds d doubles. */
void saga_epoch(const double *F, const double *L, int64_t n, const int64_t *order,
                int64_t m, int64_t d, double *x, double *table, double *mean,
                int logistic, double lam2, double eta, double *work)
{
    double *g = work;
    for (int64_t k = 0; k < m; k++) {
        int64_t i = order[k];
        double *t = table + i * d;
        row_grad(g, F + i * d, L[i], x, d, logistic, lam2);
        for (int64_t j = 0; j < d; j++) {
            double delta = g[j] - t[j];
            x[j] = x[j] - eta * (delta + mean[j]);
            mean[j] = mean[j] + delta / (double)n;
            t[j] = g[j];
        }
    }
}
