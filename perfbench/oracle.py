"""Reference values computed apart from ``vrlite.model``.

The benchmark checks the program's outputs against these: the optimum f*
of each toy objective, solved here by Newton's method (logistic) or the
normal equations (ridge), and the virtual clock that the README's cost
model predicts for ``seq`` and ``sim`` runs.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)


def logistic_value(A, b, lam, x):
    """(1/n) sum log(1 + exp(b_i a_i.x)) + lam |x|^2, written out here."""
    m = b * (A @ x)
    data = np.where(m > 0, m + np.log1p(np.exp(-np.abs(m))), np.log1p(np.exp(m)))
    return float(data.mean() + lam * (x @ x))


def ridge_value(A, b, lam, x):
    r = A @ x - b
    return float((r @ r) / len(b) + lam * (x @ x))


def logistic_optimum(A, b, lam, tol=1e-13, max_iter=50):
    """Minimiser and minimum of the logistic objective by damped Newton."""
    n, d = A.shape
    x = np.zeros(d)
    f = logistic_value(A, b, lam, x)
    for _ in range(max_iter):
        s = 1.0 / (1.0 + np.exp(-b * (A @ x)))          # sigma(b_i a_i.x)
        g = A.T @ (b * s) / n + 2.0 * lam * x
        if np.linalg.norm(g) <= tol:
            break
        H = (A.T * (s * (1.0 - s))) @ A / n + 2.0 * lam * np.eye(d)
        step = np.linalg.solve(H, g)
        t = 1.0
        while True:
            x_new = x - t * step
            f_new = logistic_value(A, b, lam, x_new)
            if f_new <= f or t < 1e-8:
                break
            t *= 0.5
        x, f = x_new, f_new
    return x, f


def ridge_optimum(A, b, lam):
    """Minimiser and minimum of the ridge objective by the normal equations."""
    n, d = A.shape
    x = np.linalg.solve(A.T @ A / n + lam * np.eye(d), A.T @ b / n)
    return x, ridge_value(A, b, lam, x)


def optimum(kind, A, b, lam):
    if kind == "logistic":
        return logistic_optimum(A, b, lam)
    return ridge_optimum(A, b, lam)


def value(kind, A, b, lam, x):
    if kind == "logistic":
        return logistic_value(A, b, lam, x)
    return ridge_value(A, b, lam, x)
