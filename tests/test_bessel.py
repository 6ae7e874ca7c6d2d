import math

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from vsmhl import log_modified_bessel_i


def bessel_i(nu, z):
    """I_nu(z) from the log kernel; finite for the modest z used here."""
    return np.exp(log_modified_bessel_i(nu, z))


def bessel_i_scaled(nu, z):
    """e^{-z} I_nu(z) from the log kernel, comparable with scipy's ive."""
    return np.exp(log_modified_bessel_i(nu, z) - np.asarray(z, dtype=float))


def series_oracle(nu: float, z: float) -> float:
    """Power series sum_k (z/2)^{2k+nu} / (k! Gamma(k+nu+1)) at 40 digits."""
    if z == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    with mpmath.workdps(40):
        nu_m, z_m = mpmath.mpf(nu), mpmath.mpf(z)
        total = mpmath.mpf(0)
        k = 0
        while True:
            term = (z_m / 2) ** (2 * k + nu_m) / (mpmath.factorial(k) * mpmath.gamma(k + nu_m + 1))
            total += term
            if k > 3 and term < mpmath.mpf("1e-35") * total:
                break
            k += 1
        return float(total)


def test_series_leading_term_at_zero():
    assert log_modified_bessel_i(0.0, 0.0) == 0.0
    assert log_modified_bessel_i(1.5, 0.0) == -math.inf


def test_i1_of_1_reference_value():
    assert bessel_i(1.0, 1.0) == pytest.approx(0.5651591040, abs=5e-11)
    assert bessel_i(1.0, 1.0) == pytest.approx(series_oracle(1.0, 1.0), rel=1e-13)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.7, 2.5, 4.0, 5.0])
def test_series_oracle_over_test_box(nu):
    # correctness box: nu in [0, 5], z in [0, 30], 1e-12 relative
    for z in np.linspace(0.0, 30.0, 21):
        ours = bessel_i(nu, float(z))
        ref = series_oracle(nu, float(z))
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.0])
def test_leading_asymptotic_at_large_argument(nu):
    z = 700.0
    scaled = bessel_i_scaled(nu, z)
    assert scaled * math.sqrt(2 * math.pi * z) == pytest.approx(1.0, abs=1e-2)


def test_scaled_variant_consistent_across_switch():
    for nu in (0.0, 0.8, 2.0, 5.0):
        for z in (49.0, 50.0, 51.0, 120.0):
            direct = bessel_i_scaled(nu, z)
            assert direct == pytest.approx(float(sp.ive(nu, z)), rel=1e-12)


def test_scaled_log_keeps_digits_at_large_argument():
    # log I - z loses about 1e-16 z absolute; above the switch the scaled form
    # never adds z, below it the series' own log I bounds the loss by 1e-14
    z = np.array([0.0, 1.0, 49.0, 51.0, 1e3, 4e4, 1e6])
    for nu in (0.0, 1.0, 2.5):
        got = log_modified_bessel_i(nu, z, scaled=True)
        with np.errstate(divide="ignore"):
            want = np.log(sp.ive(nu, z))
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)


def test_log_variant_safe_where_plain_overflows():
    lg = log_modified_bessel_i(1.0, 800.0)
    assert math.isfinite(lg)
    assert lg == pytest.approx(800.0 + math.log(float(sp.ive(1.0, 800.0))), rel=1e-13)


def test_matches_scipy_broadly():
    rng = np.random.default_rng(0)
    for _ in range(200):
        nu = float(rng.uniform(0, 8))
        z = float(rng.uniform(0, 200))
        assert bessel_i_scaled(nu, z) == pytest.approx(float(sp.ive(nu, z)), rel=1e-11)


def test_vectorized_input():
    z = np.array([0.0, 1.0, 60.0])
    assert log_modified_bessel_i(0.5, z).shape == (3,)
    out = bessel_i_scaled(0.5, z)
    assert np.allclose(out, sp.ive(0.5, z), rtol=1e-12)


def test_domain_errors():
    with pytest.raises(ValueError):
        log_modified_bessel_i(-0.1, 1.0)
    with pytest.raises(ValueError):
        log_modified_bessel_i(1.0, -1.0)
    with pytest.raises(ValueError):
        log_modified_bessel_i(1.0, np.array([1.0, -2.0]))
    with pytest.raises(ValueError, match="order nu"):  # past NU_MAX = 40 the series overflows
        log_modified_bessel_i(40.5, 1.0)


@pytest.mark.parametrize("nu", [14.0, 15.0, 20.0, 30.0, 40.0])
def test_high_orders_against_mpmath(nu):
    # below z = nu^2/2 the 1/z expansion's terms grow from the first one, so the
    # series runs up to there; at nu = 20, z = 51 the expansion alone gives NaN
    switch = max(50.0, 0.5 * nu * nu)
    z = np.concatenate([np.geomspace(0.5, 3000.0, 60), [50.5, 51.0, switch, np.nextafter(switch, np.inf)]])
    with mpmath.workdps(30):
        want = np.array([float(mpmath.log(mpmath.besseli(nu, float(x)))) for x in z])
    for got, ref in ((log_modified_bessel_i(nu, z), want), (log_modified_bessel_i(nu, z, scaled=True), want - z)):
        assert np.all(np.abs(got - ref) <= 5e-14 * np.maximum(1.0, np.abs(ref)))
