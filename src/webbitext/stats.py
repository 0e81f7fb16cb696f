"""Correlation and significance primitives.

The decision statistic is the sample Pearson coefficient over aligned
chunk lengths, tested for significance through the Student-t transform
``t = r * sqrt((n-2) / (1 - r^2))`` with ``n - 2`` degrees of freedom.
The t distribution function is evaluated via the regularized incomplete
beta function (continued fraction, Lentz's method), so no statistics
package is required at runtime; accuracy is well inside 1e-10 over the
ranges that matter and is checked against published critical values
in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

_BETA_EPS = 3e-16
_BETA_FPMIN = 1e-300
_BETA_MAX_ITER = 400


def _beta_cont_frac(a, b, x):
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # One Lentz step for the even term, then one for the odd term.
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < _BETA_FPMIN:
                d = _BETA_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _BETA_FPMIN:
                c = _BETA_FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    return h  # converged to float precision long before this in practice


def incomplete_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1], got %r" % (x,))
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def student_t_two_tailed(t, df):
    """P(|T| >= |t|) for T Student-t distributed with ``df`` degrees."""
    if df < 1:
        raise ValueError("need df >= 1, got %r" % (df,))
    t = float(t)
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    return incomplete_beta(0.5 * df, 0.5, df / (df + t * t))


def pearson_r(pairs):
    """Sample Pearson coefficient of (x, y) pairs, clamped to [-1, 1].

    Returns nan when fewer than two points or either variable has zero
    variance; the caller maps that to its own failure handling.
    """
    xs = np.asarray([p[0] for p in pairs], dtype=np.float64)
    ys = np.asarray([p[1] for p in pairs], dtype=np.float64)
    if xs.size < 2:
        return math.nan
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx <= 0.0 or syy <= 0.0:
        return math.nan
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def p_value(r, n):
    """Two-tailed significance of a correlation of ``r`` over ``n`` points.

    Monotonically decreasing in |r| for fixed n and in n for fixed |r|>0.
    """
    if n < 3:
        raise ValueError("significance needs n >= 3, got n=%d" % n)
    if math.isnan(r):
        raise ValueError("r is undefined")
    if abs(r) >= 1.0:
        return 0.0
    df = n - 2
    t = r * math.sqrt(df / (1.0 - r * r))
    return student_t_two_tailed(t, df)
