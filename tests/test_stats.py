"""Statistical kernel tests: frozen table values plus a scipy oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special, stats as sstats

from webbitext import incomplete_beta, p_value, pearson_r, student_t_two_tailed
from webbitext.stats import (_BETA_EPS, _BETA_FPMIN, _BETA_MAX_ITER,
                             _beta_cont_frac)

# Two-tailed critical values at p = .05 from standard t tables.
T_TABLE_05 = {
    1: 12.7062, 2: 4.3027, 3: 3.1824, 4: 2.7764, 5: 2.5706,
    10: 2.2281, 20: 2.0860, 30: 2.0423, 60: 2.0003, 120: 1.9799,
}

# Frozen before implementation with an independent statistics oracle.
GOLDEN_PEARSON_PAIRS = [(12, 15), (112, 122), (40, 50), (7, 9)]
GOLDEN_PEARSON_R = 0.998701013829024


def test_exact_linear_data_gives_plus_one():
    assert pearson_r([(1, 2), (2, 4), (3, 6)]) == pytest.approx(1.0, abs=1e-12)


def test_exact_antilinear_data_gives_minus_one():
    assert pearson_r([(1, 6), (2, 4), (3, 2)]) == pytest.approx(-1.0, abs=1e-12)


def test_golden_pearson_value():
    assert pearson_r(GOLDEN_PEARSON_PAIRS) == \
        pytest.approx(GOLDEN_PEARSON_R, abs=1e-12)


def test_pearson_degenerate_inputs_return_nan():
    assert math.isnan(pearson_r([]))
    assert math.isnan(pearson_r([(3, 4)]))
    assert math.isnan(pearson_r([(5, 1), (5, 2), (5, 3)]))  # zero x variance
    assert math.isnan(pearson_r([(1, 7), (2, 7), (3, 7)]))  # zero y variance


def test_pearson_never_exceeds_one():
    rng = np.random.default_rng(42)
    for _ in range(200):
        xs = rng.integers(1, 500, size=8)
        ys = xs * 3  # perfectly collinear
        r = pearson_r(list(zip(xs.tolist(), ys.tolist())))
        assert abs(r) <= 1.0


def test_pearson_matches_scipy_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        xs = rng.integers(1, 400, size=n).astype(float)
        ys = rng.integers(1, 400, size=n).astype(float)
        if np.ptp(xs) == 0 or np.ptp(ys) == 0:
            continue
        expected = sstats.pearsonr(xs, ys)[0]
        assert pearson_r(list(zip(xs, ys))) == pytest.approx(expected, abs=1e-12)


def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = float(rng.uniform(0.5, 80))
        b = float(rng.uniform(0.5, 80))
        x = float(rng.uniform(0, 1))
        assert incomplete_beta(a, b, x) == \
            pytest.approx(float(special.betainc(a, b, x)), abs=1e-10)
    assert incomplete_beta(2.0, 3.0, 0.5) == pytest.approx(0.6875, abs=1e-12)
    assert incomplete_beta(5.0, 0.5, 0.0) == 0.0
    assert incomplete_beta(5.0, 0.5, 1.0) == 1.0


def _oracle_beta_cont_frac(a, b, x):
    """The continued fraction with its even and odd Lentz steps written out
    one after the other, as the package had it before they shared a loop."""
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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


@settings(max_examples=400, deadline=None)
@given(st.floats(0.01, 500.0), st.floats(0.01, 500.0), st.floats(0.0, 1.0))
@example(0.5, 0.5, 0.5).via("the t test at df 1")
@example(59.0, 0.5, 0.9).via("the t test at df 118")
@example(1.0, 400.0, 1.0).via("slow convergence")
def test_one_lentz_step_equals_the_two_written_out(a, b, x):
    assert _beta_cont_frac(a, b, x) == _oracle_beta_cont_frac(a, b, x)


def test_t_distribution_against_scipy():
    for t in (0.0, 0.3, 1.0, 2.5, 7.0, 19.9):
        for df in (1, 2, 5, 8, 30, 118):
            expected = 2 * sstats.t.sf(t, df)
            assert student_t_two_tailed(t, df) == \
                pytest.approx(expected, abs=1e-10)


def _critical_t(p, df, lo=0.0, hi=1000.0):
    """Invert the two-tailed t probability by bisection."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_two_tailed(mid, df) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_t_table_critical_values_to_four_decimals():
    for df, published in T_TABLE_05.items():
        assert abs(_critical_t(0.05, df) - published) < 5e-5


def test_p_value_reference_points():
    assert p_value(0.0, 5) == 1.0
    assert p_value(0.0, 100) == 1.0
    assert p_value(1.0, 10) == 0.0
    assert p_value(-1.0, 10) == 0.0
    # the three reported decision inequalities
    assert p_value(0.99, 10) < 0.001
    assert p_value(0.24, 12) > 0.4
    assert p_value(0.57, 120) < 0.0005


def test_p_value_matches_transform_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        r = float(rng.uniform(-0.999, 0.999))
        n = int(rng.integers(3, 200))
        t = r * math.sqrt((n - 2) / (1 - r * r))
        expected = 2 * sstats.t.sf(abs(t), n - 2)
        assert p_value(r, n) == pytest.approx(expected, abs=1e-10)


def test_p_value_monotone_in_r_and_n():
    rs = [round(0.1 * k, 1) for k in range(1, 10)]
    ns = range(4, 101)
    for n in ns:
        ps = [p_value(r, n) for r in rs]
        for a, b in zip(ps, ps[1:]):
            assert b <= a + 1e-12
    for r in rs:
        ps = [p_value(r, n) for n in ns]
        for a, b in zip(ps, ps[1:]):
            assert b <= a + 1e-12


def test_p_value_rejects_tiny_n():
    with pytest.raises(ValueError):
        p_value(0.5, 2)
    with pytest.raises(ValueError):
        p_value(float("nan"), 10)


@settings(max_examples=150, deadline=None)
@given(st.integers(-50, 50), st.floats(0.1, 10.0),
       st.lists(st.tuples(st.integers(1, 300), st.integers(1, 300)),
                min_size=3, max_size=20))
def test_pearson_affine_invariance(shift, scale, pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    r0 = pearson_r(pairs)
    if math.isnan(r0):
        return
    moved = [(x, y * scale + shift) for x, y in zip(xs, ys)]
    assert pearson_r(moved) == pytest.approx(r0, abs=1e-9)
