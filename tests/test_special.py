"""vsmhl.special against 200-bit mpmath, and its refusals outside the range
it was checked on.

Each bound is the largest error measured on these points (numpy 2.4.6,
x86-64), rounded up; the measured value is stated beside it.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import roots_jacobi

from vsmhl import GammaLaw, LimitLaw, density, mean, time_change
from vsmhl import special
from vsmhl.special import ETA_MAX, SHAPE_MAX, SHAPE_MIN, gamma_cdf, gamma_ppf, gauss_jacobi, log_kummer

# (k, eta): the gamma laws of the tests, README and ROADMAP probes, the
# corners of the checked range, the largest shape at eta - k = 1 (where
# log Gamma(eta) - log Gamma(k) taken plainly would lose 2e-14) and the pair
# with the largest switch
KUMMER_PAIRS = [
    (0.3, 1.1), (0.5, 2.0), (3.0, 1.001), (1.7, 2.0), (1.7, 41.0), (10.0, 41.0), (2.0, 1.5), (0.5, 1.5),
    (0.3, 1.001), (0.3, 41.0), (1.0, 41.0), (35.5, 2.0), (35.5, 41.0), (2.0, 41.5),
    (SHAPE_MIN, 1.001), (SHAPE_MIN, ETA_MAX), (SHAPE_MAX, 1.001), (SHAPE_MAX, 41.0), (SHAPE_MAX, ETA_MAX),
    (25.2, ETA_MAX),
]


def exact_log_kummer(k: float, eta: float, x: float) -> float:
    with mpmath.workprec(200):
        return float(mpmath.log(mpmath.hyp1f1(mpmath.mpf(eta) - mpmath.mpf(k), eta, -mpmath.mpf(x))))


def kummer_error(k: float, eta: float, x: np.ndarray) -> np.ndarray:
    """|error| of log M relative to max(1, |log M|): the relative error of M
    while log M is small, and of log M itself once its rounding dominates."""
    exact = np.array([exact_log_kummer(k, eta, v) for v in x.tolist()])
    return np.abs(log_kummer(k, eta, x) - exact) / np.maximum(1.0, np.abs(exact))


@pytest.mark.parametrize("k, eta", KUMMER_PAIRS)
def test_log_kummer_near_mpmath_on_both_sides_of_the_switch(k, eta):
    x_s, _ = special._kummer_switch(k, eta)
    assert x_s > 0  # eta - k is not 0 or a negative integer
    near = x_s * np.concatenate([np.linspace(0.8, 1.25, 19), [np.nextafter(1.0, 0.0)]])
    x = np.concatenate([[0.0, 1e-300, 1e-8], np.logspace(-3, 5, 25), near])
    assert np.any(x < x_s) and np.any(x >= x_s)
    # measured at most 1.5e-15 (k 1.7, eta 2, on the series side at the
    # switch); 4.3e-15 over 480 random pairs in the checked range
    assert kummer_error(k, eta, x).max() <= 5e-15


@pytest.mark.parametrize("k, eta", [(2.0, 2.0), (SHAPE_MAX, SHAPE_MAX), (3.0, 2.0), (2.5, 1.5), (SHAPE_MAX, 39.0), (SHAPE_MAX, 2.0)])
def test_log_kummer_terminating(k, eta):
    # eta - k = 0 or -1 (and -38 at the last): the series of M(eta - k, eta, -x)
    # ends, so every x takes the one exact polynomial
    assert special._kummer_switch(k, eta)[0] == 0.0
    x = np.concatenate([[0.0, 1e-300], np.logspace(-8, 5, 27)])
    if k == eta:  # M(0, eta, -x) = 1
        assert np.array_equal(log_kummer(k, eta, x), np.zeros(len(x)))
    # measured at most 2.1e-16
    assert kummer_error(k, eta, x).max() <= 5e-16


@pytest.mark.parametrize("k, eta", KUMMER_PAIRS)
def test_log_kummer_is_zero_at_zero(k, eta):
    assert log_kummer(k, eta, np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("k, eta, x", [(SHAPE_MAX * 1.01, 2.0, 1.0), (SHAPE_MIN * 0.99, 2.0, 1.0), (2.0, ETA_MAX + 0.5, 1.0), (2.0, 1.0, 1.0)])
def test_log_kummer_refuses_outside_checked_range(k, eta, x):
    with pytest.raises(ValueError, match="verified only there"):
        log_kummer(k, eta, [x])


def test_log_kummer_refuses_negative_argument():
    with pytest.raises(ValueError, match="x >= 0"):
        log_kummer(2.0, 1.5, [1.0, -1e-300])


SHAPES = [SHAPE_MIN, 0.1, 0.3, 0.5, 0.7, 0.999, 1.0, 1.3, 2.0, 2.5, 5.0, 10.0, 20.0, 35.5, SHAPE_MAX]


def exact_p(k: float, x: float):
    return mpmath.gammainc(k, 0, x, regularized=True)


def exact_q(k: float, x: float):
    return mpmath.gammainc(k, x, mpmath.inf, regularized=True)


@pytest.mark.parametrize("k", SHAPES)
def test_p_and_q_near_mpmath_on_both_tails(k):
    with mpmath.workprec(200):
        # the lower tail and the body below k + 1, where P is summed
        x_lo = np.concatenate([np.logspace(-30, 0, 16) * (k + 1.0), np.linspace(0.0, k + 1.0, 42)[1:-1]])
        p = np.array([float(exact_p(k, v)) for v in x_lo.tolist()])
        keep = p >= 1e-300
        # measured at most 7.9e-14 (k = 35.5): the rounding of k log x - x
        assert np.all(np.abs(special._p_series(k, x_lo[keep]) / p[keep] - 1.0) <= 1e-13)
        # the upper tail from k + 1, where Q is a continued fraction
        x_hi = np.concatenate([[k + 1.0, k + 1.0 + 1e-9], np.linspace(k + 1.0, 3.0 * k + 40.0, 30), [200.0, 500.0, 700.0]])
        q = np.array([float(exact_q(k, v)) for v in x_hi.tolist()])
        # measured at most 8.6e-14 (x = 700): the rounding of x in e^{-x}
        assert np.all(np.abs(special._q_fraction(k, x_hi) / q - 1.0) <= 1e-13)
        x = np.concatenate([x_lo, x_hi, [0.0, math.inf]])
        cdf = np.array([float(exact_p(k, v)) for v in x.tolist()])
    # measured at most 5.7e-15 absolutely
    assert np.all(np.abs(gamma_cdf(k, x) - cdf) <= 1e-14)
    assert gamma_cdf(k, [0.0, math.inf]).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("k", SHAPES)
def test_ppf_near_mpmath(k):
    with mpmath.workprec(200):
        for q in (1e-9, 0.5, 1.0 - 1e-12, 1.0 - 1e-15):
            x = gamma_ppf(k, q)
            qq = mpmath.mpf(q)
            if q < 0.5:  # in log x, where P rises like x^k
                exact = mpmath.exp(mpmath.findroot(lambda u: mpmath.log(exact_p(k, mpmath.exp(u)) / qq), math.log(x)))
            else:
                exact = mpmath.findroot(lambda t: mpmath.log(exact_q(k, t) / (1 - qq)), x)
            # measured at most 5.0e-14 (k = 0.05 at 1e-9: P's error over
            # d log P / d log x = k) and 5.3e-15 elsewhere
            bound = 1e-13 if q < 0.5 and k < 0.5 else 1e-14
            assert abs(x / float(exact) - 1.0) <= bound, q
    assert gamma_ppf(k, 0.0) == 0.0 and gamma_ppf(k, 1.0) == math.inf
    with pytest.raises(ValueError, match="q must lie"):
        gamma_ppf(k, 1.5)


@pytest.mark.parametrize("k", [SHAPE_MIN * 0.99, SHAPE_MAX * 1.01])
def test_incomplete_gamma_refuses_outside_checked_range(k):
    with pytest.raises(ValueError, match="verified only there"):
        gamma_cdf(k, [1.0])
    with pytest.raises(ValueError, match="verified only there"):
        gamma_ppf(k, 0.5)
    with pytest.raises(ValueError, match="verified only there"):
        GammaLaw(k, 1.0).cdf(1.0)


@pytest.mark.parametrize("beta", np.geomspace(0.002, 81.0, 12).tolist())
def test_gauss_jacobi_near_scipy(beta):
    # measured 4.4e-16 (2 ulp of 1) in the nodes and 8.9e-14 relative in the
    # weights (beta 81), where scipy's own weights are 8.5e-14 off mpmath's
    x, w = gauss_jacobi(8, beta)
    x_ref, w_ref = roots_jacobi(8, 0.0, beta)
    assert np.all(np.abs(x - x_ref) <= 2.0 * np.finfo(float).eps)
    assert np.all(np.abs(w / w_ref - 1.0) <= 9e-14)


def exact_gauss_jacobi(n: int, beta: float, guess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots of the Jacobi polynomial P_n^(0, beta) and the Gauss weights
    2^{beta+1} / ((1 - x^2) P_n'(x)^2) at them."""
    a, b = mpmath.mpf(0), mpmath.mpf(beta)
    scale = 2 ** (b + 1)
    xs, ws = [], []
    for x0 in guess.tolist():
        x = mpmath.findroot(lambda t: mpmath.jacobi(n, a, b, t), mpmath.mpf(x0))
        dp = (n + b + 1) / 2 * mpmath.jacobi(n - 1, a + 1, b + 1, x)
        xs.append(float(x))
        ws.append(float(scale / ((1 - x * x) * dp * dp)))
    return np.array(xs), np.array(ws)


@pytest.mark.parametrize("k", [SHAPE_MIN, 0.3, 0.7, 1.0, 2.0, 35.5, SHAPE_MAX])
def test_gauss_jacobi_near_mpmath_on_gamma_shapes(k):
    # the rule quadrature takes on a gamma law's first panel at t = 0: beta = k - 1
    x, w = gauss_jacobi(8, k - 1.0)
    with mpmath.workprec(200):
        x_ref, w_ref = exact_gauss_jacobi(8, k - 1.0, x)
    # measured 7.8e-16 in the nodes and 2.8e-14 relative in the weights (k = 40)
    assert np.all(np.abs(x - x_ref) <= 1e-15)
    assert np.all(np.abs(w / w_ref - 1.0) <= 4e-14)
    assert np.all(np.diff(x) > 0) and not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("eta, law", [(1.5, GammaLaw(0.5, 2.0)), (2.0, GammaLaw(1.7, 0.5)), (41.0, GammaLaw(35.5, 0.01))])
def test_gamma_mixture_density_near_mpmath(eta, law):
    # y^{eta-1} e^{-y/b} M(eta - k, eta, -y(1/a - 1/b)) / (Gamma(eta) a^{eta-k} b^k)
    ll = LimitLaw(eta, law)
    k, theta = law.shape, law.scale
    for t in (1e-4, 0.3, 2.0):
        ys = [f * mean(ll, t) for f in (0.05, 0.7, 1.3, 4.0)]
        with mpmath.workprec(200):
            a = mpmath.mpf(0.5 * time_change(ll, t))
            b = a + theta
            exact = [
                float(
                    mpmath.mpf(y) ** (eta - 1) * mpmath.exp(-y / b) * mpmath.hyp1f1(eta - k, eta, -y * (1 / a - 1 / b))
                    / (mpmath.gamma(eta) * a ** (eta - k) * b**k)
                )
                for y in ys
            ]
        # measured at most 2.4e-13 relative (eta 41 at t 2, where the
        # exponent's terms (eta - 1) log y and y / b reach 100)
        assert np.allclose(density(ll, t, ys), exact, rtol=5e-13, atol=0.0)
