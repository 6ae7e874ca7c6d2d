import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive
from scipy.stats import ncx2

import vsmhl.limit as limit
import vsmhl.pde as pde
from vsmhl import (
    DiscreteAtoms,
    GammaLaw,
    LimitLaw,
    Measure1D,
    PointMass,
    UniformLaw,
    ValidationError,
    cdf,
    density,
    density_grid,
    mean,
    moments,
    quantile,
    sample,
    split_rng,
    time_change,
    wasserstein1,
)

LL_POINT = LimitLaw(2.0, PointMass(1.0))


def ncx2_mixture_pdf(y: float, eta: float, j_clock: float, x0: float, terms: int = 200) -> float:
    """Poisson-mixture series for the scaled noncentral chi-squared density.

    Independent of the package's Bessel-based evaluation: the chi-squared
    component densities are summed directly against Poisson weights.
    """
    z = 4.0 * y / j_clock
    lam = 4.0 * x0 / j_clock
    k = 2.0 * eta
    total = 0.0
    log_pw = -lam / 2.0
    for j in range(terms):
        half = k / 2.0 + j
        log_chi2 = (half - 1.0) * math.log(z) - z / 2.0 - half * math.log(2.0) - math.lgamma(half)
        total += math.exp(log_pw + log_chi2)
        log_pw += math.log(lam / 2.0) - math.log(j + 1.0)
    return 4.0 / j_clock * total


def mpmath_mixture_pdf(ll: LimitLaw, t: float, y: float) -> float:
    """mpmath quadrature of the Bessel kernel against a gamma or uniform law.

    Integrates in u = sqrt(x), in steps of 2 sqrt(J), over the window where the
    integrand is within e^-40 of its peak; a double-precision scan with
    scipy's ive only locates that window.  mpmath's quadrature stops on an
    absolute error, so the integrand is divided by its peak value.
    """
    eta, law = ll.eta, ll.law
    J = time_change(ll, t)
    nu = eta - 1.0
    if isinstance(law, GammaLaw):
        k, th = law.shape, law.scale
        u_lo, u_hi = 0.0, math.sqrt(200.0 * (k + 1.0) * th)
        log_w = lambda u: (2.0 * k - 1.0) * np.log(u) - u * u / th
        mp_w = lambda u: 2 * u ** (2 * k - 1) * mp.exp(-u * u / th) / (mp.gamma(k) * mp.mpf(th) ** k)
    else:
        u_lo, u_hi = math.sqrt(law.a), math.sqrt(law.b)
        log_w = np.log
        mp_w = lambda u: 2 * u / (mp.mpf(law.b) - law.a)
    u = np.linspace(u_lo, u_hi, 20001)[1:]
    z = 4.0 * u * math.sqrt(y) / J
    log_f = -nu * np.log(u) - 2.0 * u * u / J + np.log(ive(nu, z)) + z + log_w(u)
    live = u[log_f > log_f.max() - 40.0]
    du = u[1] - u[0]
    lo, hi = max(u_lo, live.min() - du), min(u_hi, live.max() + du)
    n = max(2, math.ceil((hi - lo) / (2.0 * math.sqrt(J))))
    with mp.workdps(20):
        yy, jj = mp.mpf(y), mp.mpf(J)

        def f(uu):
            x = uu * uu
            kernel = (2 / jj) * (yy / x) ** (nu / 2) * mp.exp(-2 * (x + yy) / jj)
            return kernel * mp.besseli(nu, 4 * uu * mp.sqrt(yy) / jj) * mp_w(uu)

        peak = f(mp.mpf(float(u[np.argmax(log_f)])))
        # tanh-sinh copes with the u^(2k-1) end point at u = 0, Gauss-Legendre is faster
        method = "tanh-sinh" if lo == 0.0 else "gauss-legendre"
        val, err = mp.quad(lambda uu: f(uu) / peak, mp.linspace(lo, hi, n + 1), error=True, method=method)
    assert err <= 1e-14 * val
    return float(val * peak)


FOUR_LAWS = [
    PointMass(1.0),
    DiscreteAtoms(((0.5, 0.5), (1.5, 0.5))),
    GammaLaw(2.0, 0.5),
    UniformLaw(0.5, 1.5),
]


class TestLimitLawType:
    @pytest.mark.parametrize("law", FOUR_LAWS, ids=str)
    def test_mean_is_law_mean(self, law):
        assert LimitLaw(1.5, law).m_lambda == moments(law)[0]

    @pytest.mark.parametrize(
        "cls, args",
        [(PointMass, (-1.0,)), (DiscreteAtoms, (((0.5, 0.5), (1.5, 0.6)),)), (GammaLaw, (0.0, 0.5)), (UniformLaw, (1.5, 0.5))],
        ids=str,
    )
    def test_invalid_law_rejected(self, cls, args):
        # an invalid law is refused when it is built, so no LimitLaw can hold one
        with pytest.raises(ValidationError):
            LimitLaw(2.0, cls(*args))

    def test_eta_must_exceed_one(self):
        with pytest.raises(ValidationError, match="eta"):
            LimitLaw(1.0, PointMass(1.0))

    @pytest.mark.parametrize("eta", [math.inf, -math.inf, math.nan])
    def test_eta_must_be_finite(self, eta):
        # inf passes `eta > 1`, and the clock J would then be nan
        with pytest.raises(ValidationError, match="^eta must be finite"):
            LimitLaw(eta, PointMass(1.0))


class TestTimeChange:
    def test_zero_time(self):
        assert time_change(LL_POINT, 0.0) == 0.0

    def test_closed_form_vs_quadrature(self):
        got = time_change(LL_POINT, 1.0)
        ref = quad(lambda s: math.exp(2.0 * s / 2.0) * 1.0, 0.0, 1.0, epsabs=1e-13)[0]
        assert got == pytest.approx(math.e - 1.0, rel=1e-12)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_second_parameter_set(self):
        ll = LimitLaw(1.5, PointMass(2.0))
        got = time_change(ll, 2.0)
        ref = quad(lambda s: math.exp(0.75 * s) * 2.0, 0.0, 2.0, epsabs=1e-13)[0]
        assert got == pytest.approx(8.0 / 3.0 * (math.exp(1.5) - 1.0), rel=1e-12)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            time_change(LL_POINT, -0.1)


class TestMean:
    def test_at_zero(self):
        assert mean(LL_POINT, 0.0) == 1.0

    def test_closed_form(self):
        assert mean(LL_POINT, 1.0) == pytest.approx(math.e, rel=1e-15)

    def test_clock_identity(self):
        # mean = m + (eta/2) J(t), the squared-Bessel mean growth
        for t in (0.3, 0.7, 1.0):
            lhs = mean(LL_POINT, t)
            rhs = 1.0 + 0.5 * 2.0 * time_change(LL_POINT, t)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDensity:
    def test_against_poisson_mixture_oracle(self):
        j_clock = time_change(LL_POINT, 1.0)
        ours = density(LL_POINT, 1.0, 1.0)
        ref = ncx2_mixture_pdf(1.0, 2.0, j_clock, 1.0)
        assert ours == pytest.approx(ref, rel=1e-10)

    def test_against_scipy_ncx2_at_many_points(self):
        j_clock = time_change(LL_POINT, 0.5)
        ys = np.linspace(0.01, 12.0, 40)
        ours = density(LL_POINT, 0.5, ys)
        ref = 4.0 / j_clock * ncx2.pdf(4.0 * ys / j_clock, 4.0, 4.0 / j_clock)
        assert np.allclose(ours, ref, rtol=1e-11)

    @pytest.mark.parametrize("t", [1e-8, 1e-10, 1e-14, 1e-300])
    def test_point_mass_at_small_t_against_mpmath(self, t):
        # at y = x the kernel is (2/J) I_1(4/J) e^{-4/J}; the direct form
        # -2(x+y)/J + log I(z) cancels to relative errors 2.8e-8, 7.2e-6, 1.2e-2
        # and 1 - 2.5e-150 at these t
        with mp.workdps(50):
            J = mp.expm1(mp.mpf(t))  # (2 m / eta) expm1(eta t / 2) at eta = 2, m = 1
            ref = float(2 / J * mp.besseli(1, 4 / J) * mp.exp(-4 / J))
        assert density(LL_POINT, t, 1.0) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_zero_is_zero_for_eta_above_one(self):
        assert density(LL_POINT, 1.0, 0.0) == 0.0

    def test_atom_mixture_matches_weighted_kernels(self):
        law = DiscreteAtoms(((0.5, 0.25), (2.0, 0.75)))
        ll = LimitLaw(2.0, law)
        j_clock = time_change(ll, 0.5)
        y = 1.7
        ref = 0.25 * ncx2_mixture_pdf(y, 2.0, j_clock, 0.5) + 0.75 * ncx2_mixture_pdf(y, 2.0, j_clock, 2.0)
        assert density(ll, 0.5, y) == pytest.approx(ref, rel=1e-10)

    def test_normalization_one_continuous_cell(self):
        # total mass and first moment, by quad in u = sqrt(y)
        cases = [
            (1.5, UniformLaw(0.0, 2.0), 0.8),
            (2.0, UniformLaw(0.5, 1.5), 1e-3),
            (2.0, UniformLaw(0.5, 1.5), 0.5),
            (2.0, GammaLaw(0.5, 2.0), 1e-3),
            (2.0, GammaLaw(0.5, 2.0), 0.5),
        ]
        for eta, law, t in cases:
            ll = LimitLaw(eta, law)
            mu = mean(ll, t)
            edges = [math.sqrt(law.a), math.sqrt(law.b)] if isinstance(law, UniformLaw) else []
            pts = sorted(set(np.linspace(0.0, math.sqrt(mu + 60.0), 10)) | set(edges))
            kwargs = dict(points=pts, limit=300, epsabs=1e-12, epsrel=1e-12)
            u_cut = math.sqrt(mu * 1e10)
            norm = quad(lambda u: density(ll, t, u * u) * 2.0 * u, 0.0, u_cut, **kwargs)[0]
            first = quad(lambda u: u**3 * density(ll, t, u * u) * 2.0, 0.0, u_cut, **kwargs)[0]
            assert norm == pytest.approx(1.0, abs=1e-8), (law, t)
            assert first == pytest.approx(mu, rel=1e-6), (law, t)

    def test_gamma_at_eta_equal_shape_is_plain_gamma(self):
        # (1 + a s)^0 (1 + b s)^-k: Gamma(eta, scale J/2 + theta)
        ll = LimitLaw(2.0, GammaLaw(2.0, 0.5))
        scale = 0.5 * time_change(ll, 0.7) + 0.5
        ys = np.linspace(0.01, 20.0, 50)
        ref = ys * np.exp(-ys / scale) / scale**2
        assert np.allclose(density(ll, 0.7, ys), ref, rtol=1e-13, atol=0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            density(LL_POINT, 0.0, 1.0)
        with pytest.raises(ValueError):
            density(LL_POINT, 1.0, -0.5)


ORACLE_LAWS = [
    (2.0, GammaLaw(2.0, 0.5)),  # eta = k: 1F1 = 1
    (2.0, GammaLaw(3.0, 0.5)),  # eta - k = -1: 1F1 is a polynomial
    (1.5, GammaLaw(0.5, 2.0)),
    (2.0, GammaLaw(1.7, 0.5)),  # 0 < eta - k < 0.5
    (1.5, GammaLaw(2.0, 0.5)),  # eta - k = -0.5: 1F1 at large argument for small t
    (2.0, UniformLaw(0.0, 2.0)),  # central chi-squared at the lower end
    (3.0, UniformLaw(0.5, 1.5)),
]


def oracle_points(ll: LimitLaw, t: float) -> list[float]:
    law = ll.law
    if isinstance(law, GammaLaw):
        return [f * mean(ll, t) for f in (0.05, 0.7, 1.3, 4.0)]
    J = time_change(ll, t)
    sd = lambda x: math.sqrt(x * J + J * J)
    mid, half = 0.5 * (law.a + law.b), 1e-3 * (law.b - law.a)
    ys = [law.a - 4.0 * sd(law.a), law.a + 2.0 * sd(law.a), mid - half, mid + half]
    ys += [law.b + c * sd(law.b) for c in (-2.0, 4.0, 10.0)]
    return [y for y in ys if y > 0]


class TestClosedFormMixtures:
    @pytest.mark.parametrize("t", [1e-4, 1.0])
    @pytest.mark.parametrize("eta, law", ORACLE_LAWS, ids=lambda v: str(v))
    def test_against_mpmath_quadrature(self, eta, law, t):
        ll = LimitLaw(eta, law)
        checked = 0
        for y in oracle_points(ll, t):
            ref = mpmath_mixture_pdf(ll, t, y)
            if ref >= 1e-30:
                assert density(ll, t, y) == pytest.approx(ref, rel=1e-11, abs=0.0), y
                checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("law", [GammaLaw(2.0, 0.5), UniformLaw(0.5, 1.5)], ids=str)
    def test_bessel_kernel_never_called(self, law, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("Bessel kernel evaluated for a closed-form law")

        monkeypatch.setattr(limit, "log_modified_bessel_i", boom)
        limit._panel_cdf.cache_clear()
        ll = LimitLaw(2.0, law)
        density(ll, 0.3, np.linspace(0.0, 5.0, 11))
        cdf(ll, 0.3, 1.0)
        density_grid(ll, 1e-3)


class TestCdfQuantile:
    def test_cdf_at_zero(self):
        assert cdf(LL_POINT, 1.0, 0.0) == 0.0

    def test_cdf_against_scipy_ncx2(self):
        j_clock = time_change(LL_POINT, 1.0)
        ys = np.linspace(0.05, 15.0, 30)
        ref = ncx2.cdf(4.0 * ys / j_clock, 4.0, 4.0 / j_clock)
        # 4.4e-16 here; the Hermite table this CDF replaced was off by 2e-9
        assert np.abs(cdf(LL_POINT, 1.0, ys) - ref).max() <= 1e-14

    @pytest.mark.parametrize("t", [1e-8, 1e-10])
    def test_small_t_against_scipy_ncx2(self, t):
        # the kernel is sqrt(J) ~ 1e-5 wide: 1.5e-12 and 2.1e-11 here, and 5.3e-6
        # and 2.9e-2 for the Hermite table this CDF replaced
        j_clock = time_change(LL_POINT, t)
        ys = 1.0 + 8.0 * math.sqrt(j_clock) * np.linspace(-1.0, 1.0, 41)
        ref = ncx2.cdf(4.0 * ys / j_clock, 4.0, 4.0 / j_clock)
        assert np.abs(cdf(LL_POINT, t, ys) - ref).max() <= 1.4e-9

    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0])
    @pytest.mark.parametrize("law", FOUR_LAWS, ids=str)
    def test_panel_ends_equal_quadrature_sums(self, law, t):
        ll = LimitLaw(2.0, law)
        y, w = limit.quadrature(ll, t)
        sums = np.concatenate([[0.0], np.cumsum(w.reshape(-1, 8).sum(axis=1))])
        ends = limit._panel_cdf(ll, t)[0] ** 2
        assert len(ends) == len(sums) and ends[0] < y[0] and y[-1] < ends[-1]
        assert np.abs(cdf(ll, t, ends) - sums).max() <= 2e-14

    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0])
    @pytest.mark.parametrize("law", FOUR_LAWS, ids=str)
    def test_against_finer_gauss_legendre(self, law, t):
        # 16-point Gauss-Legendre in u = sqrt(y) from 0, on panels a quarter as
        # wide as the kernel's sqrt(J)/4 (and at most 0.005), split at each y
        ll = LimitLaw(2.0, law)
        y_nodes, _ = limit.quadrature(ll, t)
        ys = np.linspace(y_nodes[0], y_nodes[-1], 201)
        h = min(0.0625 * math.sqrt(time_change(ll, t)), 0.005)
        cuts = np.unique(np.concatenate([np.arange(0.0, math.sqrt(ys[-1]), h), np.sqrt(ys)]))
        x, wx = np.polynomial.legendre.leggauss(16)
        halfw = 0.5 * np.diff(cuts)
        u = 0.5 * (cuts[1:] + cuts[:-1])[:, None] + halfw[:, None] * x
        pieces = halfw * np.sum(density(ll, t, u * u) * 2.0 * u * wx, axis=1)
        ref = np.concatenate([[0.0], np.cumsum(pieces)])[np.searchsorted(cuts, np.sqrt(ys))]
        # at most 1.6e-12 (point mass at t = 1e-3); the Hermite table was off by up to 3e-9
        assert np.abs(cdf(ll, t, ys) - ref).max() <= 1e-11

    def test_cdf_monotone_and_reaches_one(self):
        ys = np.linspace(0.0, 60.0, 500)
        f = cdf(LL_POINT, 1.0, ys)
        assert np.all(np.diff(f) >= -1e-14)
        assert f[-1] == pytest.approx(1.0, abs=1e-8)

    def test_far_tail_bound(self):
        # Markov keeps only 1/10 of the mass beyond ten times the mean
        assert cdf(LL_POINT, 1.0, 10.0 * mean(LL_POINT, 1.0)) >= 0.99

    @pytest.mark.parametrize("law", FOUR_LAWS, ids=str)
    def test_quantile_round_trip(self, law):
        ll = LimitLaw(2.0, law)
        ps = np.linspace(0.02, 0.98, 49)
        qs = quantile(ll, 1.0, ps)
        assert np.max(np.abs(cdf(ll, 1.0, qs) - ps)) <= 1e-12
        y = 2.0
        assert quantile(ll, 1.0, cdf(ll, 1.0, y)) == pytest.approx(y, abs=1e-12)

    def test_quantile_monotone(self):
        q25, q50, q75 = quantile(LL_POINT, 1.0, np.array([0.25, 0.5, 0.75]))
        assert q25 < q50 < q75

    def test_median_matches_empirical(self):
        draws = np.sort(sample(LL_POINT, 1.0, 10**6, split_rng(12)))
        n = len(draws)
        half_width = int(3.3 * 0.5 * math.sqrt(n))
        lo = draws[n // 2 - half_width]
        hi = draws[n // 2 + half_width]
        assert lo <= quantile(LL_POINT, 1.0, 0.5) <= hi

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            quantile(LL_POINT, 1.0, 0.0)
        with pytest.raises(ValueError):
            quantile(LL_POINT, 1.0, 1.0)
        with pytest.raises(ValueError):
            quantile(LL_POINT, 1.0, float("nan"))
        with pytest.raises(ValueError):
            quantile(LL_POINT, 1.0, np.array([0.5, np.nan]))
        with pytest.raises(ValueError):
            cdf(LL_POINT, -1.0, 1.0)


class TestSampler:
    def test_mean_identity(self):
        draws = sample(LL_POINT, 1.0, 10**6, split_rng(21))
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - mean(LL_POINT, 1.0)) < 4 * se

    def test_ks_against_cdf(self):
        n = 10**5
        draws = np.sort(sample(LL_POINT, 1.0, n, split_rng(22)))
        f = cdf(LL_POINT, 1.0, draws)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - f), np.max(f - (i - 1) / n))
        assert ks < 1.63 / math.sqrt(n)

    def test_collapses_to_initial_law_at_tiny_time(self):
        draws = sample(LL_POINT, 1e-8, 1000, split_rng(23))
        assert np.abs(draws - 1.0).max() < 1e-3

    def test_deterministic_per_seed(self):
        a = sample(LL_POINT, 0.5, 100, split_rng(24))
        b = sample(LL_POINT, 0.5, 100, split_rng(24))
        assert np.array_equal(a, b)

    def test_gamma_mixture_mean(self):
        ll = LimitLaw(3.0, GammaLaw(2.0, 0.5))
        draws = sample(ll, 0.5, 10**6, split_rng(25))
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - mean(ll, 0.5)) < 4 * se

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            sample(LL_POINT, 0.0, 10, split_rng(0))


class TestWeakContinuityAtZero:
    def test_w1_to_initial_law_decreases(self):
        lam = Measure1D.from_atoms([1.0], [1.0])
        dist = []
        for t in (1e-1, 1e-2, 1e-3):
            y, f = density_grid(LL_POINT, t)
            dist.append(wasserstein1(Measure1D.from_grid(y, f), lam))
        assert dist[0] > dist[1] > dist[2]


class TestDensityGrid:
    @pytest.mark.parametrize("law", FOUR_LAWS, ids=str)
    def test_builds_no_cdf(self, law):
        ll = LimitLaw(2.0, law)
        limit._panel_cdf.cache_clear()
        y, f = density_grid(ll, 0.3, 64)
        assert limit._panel_cdf.cache_info().currsize == 0
        assert y[0] == 0.0 and y[-1] == limit._y_hi(ll, 0.3)
        assert np.array_equal(f, density(ll, 0.3, y))
        with pytest.raises(ValueError):
            density_grid(ll, 0.0)


class TestQuadrature:
    # the smallest time node of pde_check's analytic rule at T = 1, near 3e-6
    @pytest.mark.parametrize("t", [0.0, float(pde._analytic_time_rule(1.0)[0][1]), 1e-4, 0.5, 1.0])
    @pytest.mark.parametrize("law", FOUR_LAWS, ids=str)
    def test_mass_and_mean(self, law, t):
        ll = LimitLaw(2.0, law)
        y, w = limit.quadrature(ll, t)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert abs(w @ y - mean(ll, t)) <= 1e-10

    @pytest.mark.parametrize("shape", [0.3, 0.7, 1.0, 35.5])
    def test_gamma_start_of_any_shape(self, shape):
        # below shape 1 the gamma pdf is unbounded at 0
        ll = LimitLaw(2.0, GammaLaw(shape, 0.5))
        y, w = limit.quadrature(ll, 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert abs(w @ y - mean(ll, 0.0)) <= 1e-10

    @pytest.mark.parametrize("t", [1e-4, 0.5, 1.0])
    @pytest.mark.parametrize("law", FOUR_LAWS, ids=str)
    def test_halving_the_panel_width(self, law, t, monkeypatch):
        from vsmhl.pde import _generator, test_function_bank

        bank = test_function_bank()
        ll = LimitLaw(2.0, law)

        def pairings(funcs):
            y, w = limit.quadrature(ll, t)
            return np.array([w @ f(y) for f in funcs])

        coarse = [pairings([g.f for g in bank]), pairings([_generator(g, 2.0) for g in bank])]
        monkeypatch.setattr(limit, "_panel_width", lambda J, width=limit._panel_width: 0.5 * width(J))
        fine = [pairings([g.f for g in bank]), pairings([_generator(g, 2.0) for g in bank])]
        assert np.abs(fine[0] - coarse[0]).max() <= 1e-10
        # the bumps' generator terms are steep near the edges of their support:
        # at PANEL_WIDTH they move by up to 2.5e-7, and by 1e-11 at half of it
        assert np.abs(fine[1] - coarse[1]).max() <= 1e-6

    @pytest.mark.parametrize("t", [1e-4, 0.5, 1.0])
    @pytest.mark.parametrize("eta", [1.5, 2.0, 3.0])
    def test_tail_ends_hold_against_exact_tails(self, eta, t):
        from scipy.stats import gamma as gamma_dist

        # a point mass: (J/4) times noncentral chi-squared, 2 eta degrees of freedom
        ll = LimitLaw(eta, PointMass(1.0))
        J = time_change(ll, t)
        lo, hi = limit._tail_range(ll, J)
        assert ncx2.cdf(4.0 * lo / J, 2.0 * eta, 4.0 / J) <= limit.TAIL_EPS
        assert 1e-21 <= ncx2.sf(4.0 * hi / J, 2.0 * eta, 4.0 / J) <= limit.TAIL_EPS
        # a gamma law of shape eta: Gamma(eta, scale J/2 + theta)
        ll = LimitLaw(eta, GammaLaw(eta, 0.5))
        J = time_change(ll, t)
        lo, hi = limit._tail_range(ll, J)
        scale = 0.5 * J + 0.5
        assert gamma_dist.cdf(lo, eta, scale=scale) <= limit.TAIL_EPS
        assert 1e-21 <= gamma_dist.sf(hi, eta, scale=scale) <= limit.TAIL_EPS

    def test_panel_count_capped(self):
        # a kernel of width 1e-6 over a gamma law would ask for 1.9e6 panels
        ll = LimitLaw(2.0, GammaLaw(2.0, 0.5))
        y, w = limit.quadrature(ll, 1e-12)
        assert len(y) == 8 * limit.MAX_PANELS
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            limit.quadrature(LL_POINT, -1e-3)

    @pytest.mark.parametrize("func", [limit.quadrature, cdf, quantile], ids=["quadrature", "cdf", "quantile"])
    def test_non_finite_density_refused(self, func):
        # at t = 1e-10 scipy's ncx2.cdf does not converge at noncentrality
        # 4 a0 / J ~ 2e10: boost warns and it returns NaN at 5 of the 32,768
        # nodes; pytest turns warnings into errors, so they are caught here
        ll = LimitLaw(2.0, UniformLaw(0.5, 1.5))
        args = (ll, 1e-10) if func is limit.quadrature else (ll, 1e-10, 0.5)
        with pytest.warns(RuntimeWarning, match="^Error in function .*Series"):
            with pytest.raises(ValueError, match="^the limit density is not finite on the quadrature nodes$"):
                func(*args)

    @pytest.mark.parametrize("func", [limit.quadrature, cdf, quantile], ids=["quadrature", "cdf", "quantile"])
    @pytest.mark.parametrize(
        "law, t, total",
        [(DiscreteAtoms(((0.5, 0.3), (2.0, 0.7))), 1e-10, "0.3036"), (GammaLaw(0.3, 1.0), 1e-6, "0.99999925")],
        ids=["atoms", "gamma"],
    )
    def test_mass_off_one_refused(self, func, law, t, total):
        # MAX_PANELS panels are too wide for so narrow a kernel: the atoms keep
        # 0.30 of their mass, the gamma law's spike at 0 loses 7.5e-7
        ll = LimitLaw(2.0, law)
        args = (ll, t) if func is limit.quadrature else (ll, t, 0.5)
        with pytest.raises(ValueError, match=rf"^the quadrature at t = {t} has total weight {total}"):
            func(*args)

    def test_mass_within_tolerance_passes(self):
        # the same atoms at t = 1e-8 miss by 1.3e-10, inside MASS_TOL
        ll = LimitLaw(2.0, DiscreteAtoms(((0.5, 0.3), (2.0, 0.7))))
        _, w = limit.quadrature(ll, 1e-8)
        assert 1e-11 <= abs(w.sum() - 1.0) <= limit.MASS_TOL
        assert cdf(ll, 1e-8, 3.0) == pytest.approx(1.0, abs=limit.MASS_TOL)

    def test_uniform_at_1e_9_stays_finite(self):
        # MAX_PANELS binds under so narrow a kernel: the mass reads 1 - 4.6e-10
        y, w = limit.quadrature(LimitLaw(2.0, UniformLaw(0.5, 1.5)), 1e-9)
        assert len(w) == 8 * limit.MAX_PANELS
        assert np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) <= 1e-9

    def test_kernel_at_small_clock(self):
        # at J = 1e-4 the direct kernel's exponent -2(x+y)/J + log I(z) cancels
        # to ~1e-11 relative (9.4e-12 here); the kernel is within its rounding
        # of sqrt(y), about 2 (sqrt(y) - 1) eps / (J/4) ~ 1e-13
        J, x, y = 1e-4, 1.0, np.linspace(0.95, 1.05, 11)
        with mp.workdps(40):
            ref = [
                float(mp.log(2 / mp.mpf(J)) - 2 * (x + mp.mpf(v)) / J + mp.log(mp.besseli(1, 4 * mp.sqrt(x * mp.mpf(v)) / J)))
                + 0.5 * math.log(v / x)
                for v in y
            ]
        got = limit._log_kernel(2.0, J, x, y)
        assert np.abs(got - ref).max() <= 4e-13


NON_FINITE_T_CALLS = {
    "time_change": lambda t: time_change(LL_POINT, t),
    "mean": lambda t: mean(LL_POINT, t),
    "density": lambda t: density(LL_POINT, t, 1.0),
    "cdf": lambda t: cdf(LL_POINT, t, 1.0),
    "quantile": lambda t: quantile(LL_POINT, t, 0.5),
    "sample": lambda t: sample(LL_POINT, t, 3, split_rng(0)),
    "quadrature": lambda t: limit.quadrature(LL_POINT, t),
}


class TestNonFiniteArguments:
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(NON_FINITE_T_CALLS))
    def test_rejects_non_finite_time(self, name, t):
        with pytest.raises(ValueError, match=r"^t must be (positive|nonnegative) and finite"):
            NON_FINITE_T_CALLS[name](t)

    @pytest.mark.parametrize(
        "y", [math.nan, np.array([0.5, math.nan]), math.inf, np.array([0.5, math.inf])],
        ids=["nan", "nan-array", "inf", "inf-array"],
    )
    @pytest.mark.parametrize("func", [density, cdf], ids=["density", "cdf"])
    @pytest.mark.parametrize("law", FOUR_LAWS, ids=str)
    def test_rejects_non_finite_y(self, law, func, y):
        # past this check +inf gives nan (point mass, gamma), 0.0 (uniform) or a cdf below 1
        with pytest.raises(ValueError, match="^y must be nonnegative and finite"):
            func(LimitLaw(2.0, law), 1.0, y)


class TestKernelBlocks:
    # at J = 0.1 a start x spans z = 4 sqrt(x y) / J over 0 to 40 sqrt(x y): up to
    # 120 for x = 1 on y in [0, 9], across the Bessel series bands (z <= 10 and
    # above) and the large-argument expansion (z > 50)
    J = 0.1
    Y = np.concatenate([np.linspace(0.0, 9.0, 1201), [0.0625, 1.5625, 1.5626]])

    @pytest.mark.parametrize("budget", [limit._KERNEL_BUDGET, 999])
    @pytest.mark.parametrize("law", [PointMass(1.0), DiscreteAtoms(((0.5, 0.3), (1.0, 0.5), (2.0, 0.2)))], ids=str)
    def test_equals_one_point_per_call(self, law, budget, monkeypatch):
        z = 4.0 * np.sqrt(self.Y) / self.J
        assert np.any(z <= 10) and np.any((z > 10) & (z <= 50)) and np.any(z > 50)
        ll = LimitLaw(2.0, law)
        single = [limit._log_density(ll, self.J, self.Y[i : i + 1])[0] for i in range(len(self.Y))]
        monkeypatch.setattr(limit, "_KERNEL_BUDGET", budget)
        assert limit._log_density(ll, self.J, self.Y).tolist() == single

    @pytest.mark.parametrize(
        "law, x_max, atoms", [(PointMass(1.0), 30.0, 57), (GammaLaw(2.0, 0.5), 40.0, 580)], ids=["point", "gamma"]
    )
    def test_mollified_density_independent_of_budget(self, law, x_max, atoms, monkeypatch):
        # pde_check's l1_vs_mollified rows on the pde_point grid (point mass)
        # and on the gamma grid: the same bits at any block size
        from vsmhl import SolverGrid, mollified_start_law

        grid = SolverGrid(x_max, 1200, 800)
        ll = LimitLaw(2.0, mollified_start_law(law, grid))
        assert len(ll.law.atoms) == atoms
        got = []
        for budget in (2**16, 2**14, 2**8):
            monkeypatch.setattr(limit, "_KERNEL_BUDGET", budget)
            got.append([density(ll, t, grid.centers()).tolist() for t in (0.5, 1.0)])
        assert got[0] == got[1] == got[2]

    def test_mollified_gamma_blocks_within_budget(self, monkeypatch):
        from vsmhl import SolverGrid, mollified_start_law

        grid = SolverGrid(40.0, 1200, 800)
        ll = LimitLaw(2.0, mollified_start_law(GammaLaw(2.0, 0.5), grid))
        assert len(ll.law.atoms) == 580
        sizes = []
        kernel = limit._log_kernel_mixture

        def spy(ll, J, y):
            sizes.append(len(y))
            return kernel(ll, J, y)

        monkeypatch.setattr(limit, "_log_kernel_mixture", spy)
        density(ll, 0.5, grid.centers())
        assert sum(sizes) == grid.nx and len(sizes) > 1
        assert max(sizes) * 580 <= limit._KERNEL_BUDGET


class TestPointMassIsOneAtom:
    """PointMass(x0) is the one-atom DiscreteAtoms: every limit-law function
    gives the same bits for both spellings."""

    @staticmethod
    def pair(x0):
        return PointMass(x0), DiscreteAtoms(((x0, 1.0),))

    @pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
    def test_limit_law_functions_agree(self, x0):
        point, atom = (LimitLaw(2.0, law) for law in self.pair(x0))
        y = np.linspace(0.0, 12.0, 301)
        p = np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])
        for fn, args in (
            (density, (0.5, y)),
            (cdf, (0.5, y)),
            (quantile, (0.5, p)),
            (limit.quadrature, (0.0,)),
            (limit.quadrature, (0.5,)),
        ):
            got = [fn(ll, *args) for ll in (point, atom)]
            assert np.array_equal(got[0], got[1]), fn.__name__
        J = time_change(point, 0.5)
        assert limit._tail_range(point, J) == limit._tail_range(atom, J)
        assert moments(point.law) == moments(atom.law)

    @pytest.mark.parametrize("x0", [0.5, 1.0, 2.0])
    def test_pde_check_agrees(self, x0):
        from vsmhl import ExperimentConfig, ModelParams, SolverGrid, mollified_start_law, run_experiment

        grid = SolverGrid(30.0, 300, 100)
        point, atom = self.pair(x0)
        assert mollified_start_law(point, grid) == mollified_start_law(atom, grid)
        rows = [run_experiment(ExperimentConfig("pde_check", ModelParams(2.0, 64, 0.5), law, grid=grid)).rows
                for law in (point, atom)]
        assert rows[0] == rows[1]
