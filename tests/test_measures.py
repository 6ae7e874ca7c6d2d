import math

import numpy as np
import pytest
from scipy.stats import gamma as gamma_dist

from vsmhl import (
    ConfigurationError,
    GammaLaw,
    GridMismatchError,
    LimitLaw,
    Measure1D,
    MeasurePath,
    PointMass,
    density_grid,
    empirical,
    levy,
    quantile,
    ranked_vs_limit,
    sample,
    sup_distance,
    wasserstein1,
)
from vsmhl.measures import _completed_graph


def random_atoms(rng, max_atoms=12, scale=5.0) -> Measure1D:
    k = int(rng.integers(1, max_atoms))
    return Measure1D.from_atoms(rng.uniform(0, scale, k), rng.dirichlet(np.ones(k)))


class TestEmpirical:
    def test_merges_duplicates(self):
        m = empirical([1.0, 1.0, 3.0])
        assert np.array_equal(m.x, [1.0, 3.0])
        assert np.allclose(np.diff(m._cum, prepend=0.0), [2 / 3, 1 / 3])

    def test_cdf_value(self):
        assert empirical([1.0, 1.0, 3.0]).cdf(2.0) == pytest.approx(2 / 3)

    def test_glivenko_cantelli_against_gamma(self):
        draws = np.random.default_rng(5).gamma(2.0, 0.5, 10**5)
        x = np.linspace(0.0, float(gamma_dist.ppf(1 - 1e-12, 2.0, scale=0.5)), 4096)
        law = Measure1D.from_grid(x, gamma_dist.pdf(x, 2.0, scale=0.5))
        assert wasserstein1(empirical(draws), law) < 0.02

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical([])


class TestWasserstein:
    def test_identical_measures(self):
        # one atom against itself has one knot: W1 sums over no segment
        for m in (Measure1D.from_atoms([0.0, 2.0], [0.5, 0.5]), Measure1D.from_atoms([1.0], [1.0])):
            assert wasserstein1(m, m) == 0.0 and levy(m, m) == 0.0

    def test_two_diracs(self):
        d0 = Measure1D.from_atoms([0.0], [1.0])
        d1 = Measure1D.from_atoms([1.0], [1.0])
        assert wasserstein1(d0, d1) == 1.0

    def test_mixture_vs_dirac_cdf_area(self):
        mix = Measure1D.from_atoms([0.0, 2.0], [0.5, 0.5])
        d1 = Measure1D.from_atoms([1.0], [1.0])
        # area between the CDFs: |1/2 - 0| on [0,1) plus |1/2 - 1| on [1,2)
        assert wasserstein1(mix, d1) == pytest.approx(1.0, abs=1e-15)

    def test_duplicate_invariance(self):
        s = np.array([0.3, 1.2, 2.2])
        assert wasserstein1(empirical(s), empirical(np.concatenate([s, s]))) == 0.0

    def test_atoms_vs_grid(self):
        # uniform[0,1] against its midpoint: W1 = integral |x - 1/2 step| = 1/4
        x = np.linspace(0.0, 1.0, 2001)
        uni = Measure1D.from_grid(x, np.ones_like(x))
        mid = Measure1D.from_atoms([0.5], [1.0])
        assert wasserstein1(uni, mid) == pytest.approx(0.25, abs=1e-6)


def _corridor_holds(mu: Measure1D, nu: Measure1D, eps: float) -> bool:
    """Brute-force Levy corridor: F(x - eps) - eps <= G(x) <= F(x + eps) + eps.

    Probed at every knot and every knot +/- eps, each also 1e-11 to either
    side, which is where a corridor narrower than the metric first breaks.
    """
    knots = np.concatenate([mu.x, nu.x])
    pts = np.concatenate([knots, knots - eps, knots + eps])
    xs = np.concatenate([pts, pts - 1e-11, pts + 1e-11])
    g = nu.cdf(xs)
    return bool(np.all(mu.cdf(xs - eps) - eps <= g) and np.all(g <= mu.cdf(xs + eps) + eps))


def _assert_corridor_exact(mu: Measure1D, nu: Measure1D) -> None:
    for a, b in ((mu, nu), (nu, mu)):
        d = levy(a, b)
        assert _corridor_holds(a, b, d + 1e-12)
        assert not _corridor_holds(a, b, d - 1e-9)


DIRAC_0 = Measure1D.from_atoms([0.0], [1.0])
_UNIT = np.linspace(0.0, 1.0, 2001)


class TestLevy:
    def test_identical(self):
        m = Measure1D.from_atoms([0.0, 1.0], [0.4, 0.6])
        assert levy(m, m) == 0.0

    @pytest.mark.parametrize(
        "mu, nu, exact",
        [
            (DIRAC_0, Measure1D.from_atoms([0.25], [1.0]), 0.25),
            (DIRAC_0, Measure1D.from_atoms([0.5], [1.0]), 0.5),
            (DIRAC_0, Measure1D.from_atoms([2.0], [1.0]), 1.0),
            (Measure1D.from_grid(_UNIT, np.ones_like(_UNIT)), Measure1D.from_atoms([0.5], [1.0]), 0.25),
        ],
        ids=["dirac-0.25", "dirac-0.5", "dirac-2", "uniform-vs-midpoint"],
    )
    def test_half_shifted_diracs_brute_force(self, mu, nu, exact):
        # closed forms: levy(d0, dh) = min(h, 1); Uniform[0,1] against its
        # midpoint opens the corridor to 1/4
        got = levy(mu, nu)
        assert got == pytest.approx(exact, abs=1e-12)
        # brute-force oracle: scan candidate widths on a fine grid
        xs = np.linspace(-1.0, 3.5, 4501)
        feasible = []
        for eps in np.linspace(0.0, 1.0, 2001):
            f_lo = mu.cdf(xs - eps) - eps
            f_hi = mu.cdf(xs + eps) + eps
            g = nu.cdf(xs)
            feasible.append(np.all(f_lo <= g + 1e-12) and np.all(g <= f_hi + 1e-12))
        oracle = np.linspace(0.0, 1.0, 2001)[np.argmax(feasible)]
        assert got == pytest.approx(oracle, abs=1e-3)

    def test_corridor_oracle_random_atoms(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            _assert_corridor_exact(random_atoms(rng), random_atoms(rng))

    @pytest.mark.parametrize("t", [0.1, 1.0])
    @pytest.mark.parametrize("n", [16, 256])
    def test_corridor_oracle_empirical_vs_gamma_grid(self, n, t):
        ll = LimitLaw(2.0, GammaLaw(2.0, 0.5))
        draws = sample(ll, t, n, np.random.default_rng(n))
        _assert_corridor_exact(empirical(draws), Measure1D.from_grid(*density_grid(ll, t)))

    def test_bounded_by_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert levy(random_atoms(rng), random_atoms(rng)) <= 1.0

    @staticmethod
    def union_levy(mu, nu):
        """The height gap read at the union of both graphs' vertices."""
        (s_mu, y_mu), (s_nu, y_nu) = _completed_graph(mu), _completed_graph(nu)
        s = np.union1d(s_mu, s_nu)
        return float(np.abs(np.interp(s, s_mu, y_mu, 0.0, 1.0) - np.interp(s, s_nu, y_nu, 0.0, 1.0)).max())

    def test_equals_union_of_vertices(self):
        # reading each graph at the other's vertices takes the same gaps as
        # reading both at the union, bit for bit
        rng = np.random.default_rng(5)
        ll = LimitLaw(2.0, GammaLaw(2.0, 0.5))
        grids = [Measure1D.from_grid(*density_grid(ll, t)) for t in (0.1, 1.0)]
        shared = (  # vertices at s = 0.5 and 2.5 in both graphs
            Measure1D.from_atoms([0.5, 1.0, 2.0], [0.25, 0.25, 0.5]),
            Measure1D.from_atoms([0.5, 1.5], [0.5, 0.5]),
        )
        assert len(np.intersect1d(_completed_graph(shared[0])[0], _completed_graph(shared[1])[0])) == 2
        pairs = {
            "atoms-atoms": [shared] + [(random_atoms(rng), random_atoms(rng)) for _ in range(50)],
            "atoms-grid": [(empirical(sample(ll, t, n, rng)), g) for n in (16, 256) for t, g in zip((0.1, 1.0), grids)],
            "grid-grid": [tuple(grids), (grids[0], Measure1D.from_grid(_UNIT, np.ones_like(_UNIT)))],
        }
        for kind, cases in pairs.items():
            for mu, nu in cases:
                for a, b in ((mu, nu), (nu, mu)):
                    assert levy(a, b) == self.union_levy(a, b), kind


class TestMetricAxioms:
    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (random_atoms(rng) for _ in range(3))
            for dist in (wasserstein1, levy):
                dab, dba = dist(a, b), dist(b, a)
                assert dab >= 0.0
                assert abs(dab - dba) <= 1e-12
                assert dist(a, a) <= 1e-12
                assert dab <= dist(a, c) + dist(c, b) + 1e-12

    def test_identity_of_indiscernibles(self):
        a = Measure1D.from_atoms([0.5, 1.5], [0.3, 0.7])
        b = Measure1D.from_atoms([0.5, 1.5], [0.3, 0.7])
        assert wasserstein1(a, b) <= 1e-12
        assert levy(a, b) <= 1e-12

    def test_levy_compatible_with_w1_convergence(self):
        # shrinking perturbations: both metrics must go to zero together
        target = Measure1D.from_atoms([1.0], [1.0])
        w_prev, l_prev = math.inf, math.inf
        for shift in (0.5, 0.05, 0.005):
            approx = Measure1D.from_atoms([1.0 + shift], [1.0])
            w, lv = wasserstein1(approx, target), levy(approx, target)
            assert w < w_prev and lv < l_prev + 1e-12
            w_prev, l_prev = w, lv
        assert lv < 0.01


class TestSupDistance:
    def test_equal_paths(self):
        m = Measure1D.from_atoms([1.0], [1.0])
        p = MeasurePath(np.array([0.0, 1.0]), (m, m))
        assert sup_distance(p, p, "wasserstein1") == 0.0

    def test_single_node_equals_plain_metric(self):
        a = MeasurePath(np.array([0.0]), (Measure1D.from_atoms([0.0], [1.0]),))
        b = MeasurePath(np.array([0.0]), (Measure1D.from_atoms([1.0], [1.0]),))
        assert sup_distance(a, b, "wasserstein1") == 1.0

    def test_takes_the_max_over_nodes(self):
        d = lambda x: Measure1D.from_atoms([x], [1.0])
        p = MeasurePath(np.array([0.0, 1.0]), (d(0.0), d(0.0)))
        q = MeasurePath(np.array([0.0, 1.0]), (d(0.1), d(0.7)))
        assert sup_distance(p, q, "wasserstein1") == pytest.approx(0.7)

    def test_grid_mismatch(self):
        m = Measure1D.from_atoms([1.0], [1.0])
        p = MeasurePath(np.array([0.0, 1.0]), (m, m))
        q = MeasurePath(np.array([0.0, 2.0]), (m, m))
        with pytest.raises(GridMismatchError):
            sup_distance(p, q, "wasserstein1")

    def test_unknown_metric(self):
        m = Measure1D.from_atoms([1.0], [1.0])
        p = MeasurePath(np.array([0.0]), (m,))
        with pytest.raises(ValueError):
            sup_distance(p, p, "total_variation")


class TestRankedVsLimit:
    def test_single_particle_row(self):
        ll = LimitLaw(2.0, PointMass(1.0))
        table = ranked_vs_limit([2.0], ll, 1.0)
        assert table.shape == (1, 4)
        assert table[0, 0] == 1.0
        assert table[0, 2] == pytest.approx(quantile(ll, 1.0, 0.5))

    def test_sorted_and_gap_columns(self):
        ll = LimitLaw(2.0, PointMass(1.0))
        rng = np.random.default_rng(6)
        table = ranked_vs_limit(rng.uniform(0.1, 9.0, 64), ll, 1.0)
        assert np.all(np.diff(table[:, 1]) >= 0)
        assert np.all(np.diff(table[:, 2]) > 0)
        assert np.allclose(table[:, 3], np.abs(table[:, 1] - table[:, 2]))


class TestMeasure1DValidation:
    def test_atoms_weight_checks(self):
        with pytest.raises(ValueError):
            Measure1D.from_atoms([1.0, 2.0], [0.6, 0.6])
        with pytest.raises(ValueError, match="^atom weights must sum to 1, got 1.1$"):
            Measure1D.from_atoms([1.0], [1.1])
        with pytest.raises(ValueError):
            Measure1D.from_atoms([1.0], [-1.0])

    @pytest.mark.parametrize(
        "locations, weights, message",
        [
            ([0.5, 1.0], [np.nan, 1.0], "^atom weights must be nonnegative$"),
            ([0.5, 1.0], [0.5, np.nan], "^atom weights must be nonnegative$"),
            ([np.nan, 1.0], None, "^atom locations must be finite$"),
            ([np.inf, 1.0], None, "^atom locations must be finite$"),
            ([1.0, np.nan], [0.5, 0.5], "^atom locations must be finite$"),
        ],
        ids=repr,
    )
    def test_atoms_reject_nan(self, locations, weights, message):
        # NaN fails every comparison: each check must still refuse it, not drop
        # a NaN weight or let a NaN location read W1 = 0
        with pytest.raises(ValueError, match=message):
            Measure1D.from_atoms(locations, weights)

    def test_grid_checks(self):
        x = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            Measure1D.from_grid(x, np.full(11, 5.0))  # mass far from 1
        with pytest.raises(ValueError, match="^grid density mass inf is too far from 1$"):
            Measure1D.from_grid(x, np.r_[np.ones(10), np.inf])
        with pytest.raises(ValueError):
            Measure1D.from_grid(x[::-1], np.ones(11))

    @pytest.mark.parametrize(
        "node, value, message",
        [
            (None, 3, "^density values must be nonnegative$"),
            (None, 0, "^density values must be nonnegative$"),
            (3, None, "^grid must be strictly increasing$"),
            (10, None, "^grid must be strictly increasing$"),
        ],
        ids=repr,
    )
    def test_grid_rejects_nan(self, node, value, message):
        # one NaN node or value must be refused, not turned into a NaN CDF
        x, vals = np.linspace(0, 1, 11), np.ones(11)
        if node is not None:
            x[node] = np.nan
        if value is not None:
            vals[value] = np.nan
        with pytest.raises(ValueError, match=message):
            Measure1D.from_grid(x, vals)

    def test_grid_mass_window_and_clipping(self):
        x = np.linspace(0.0, 2.0, 41)
        with pytest.raises(ConfigurationError, match="grid density mass .* is too far from 1"):
            Measure1D.from_grid(x, np.full(41, 0.45))  # trapezoid mass 0.9
        vals = np.full(41, 0.51)  # trapezoid mass 1.02, renormalized
        vals[7] = -1e-6
        with pytest.raises(ValueError, match="nonnegative"):
            Measure1D.from_grid(x, vals)
        vals[7] = -1e-13  # roundoff, clipped
        m = Measure1D.from_grid(x, vals)
        clipped = np.maximum(vals, 0.0)
        assert np.array_equal(m._cum, Measure1D.from_grid(x, clipped)._cum)

    def test_grid_cdf_bounds(self):
        x = np.linspace(0, 2, 101)
        m = Measure1D.from_grid(x, np.full(101, 0.5))
        assert m.cdf(-1.0) == 0.0
        assert m.cdf(5.0) == 1.0
        assert m.cdf(1.0) == pytest.approx(0.5, abs=1e-12)
