import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import solve_banded

import vsmhl.experiments as exp

from vsmhl import (
    ConfigurationError,
    DensityTrajectory,
    GammaLaw,
    GridPath,
    LimitLaw,
    ModelParams,
    NodePath,
    PointMass,
    SolverGrid,
    UniformLaw,
    density,
    empirical,
    mean,
    mollified_start_law,
    solve,
    weak_residual,
)
from vsmhl import test_function_bank as function_bank
from vsmhl.pde import _advance, _generator, _operator

PARAMS = ModelParams(2.0, 1, 1.0)
LAW = PointMass(1.0)
# a midpoint rule on [0, 0.5] and [0.5, 1]: the panel ends 0, 0.5 and 1 weigh 0
MIDPOINT_TIMES = np.linspace(0.0, 1.0, 5)
MIDPOINT_WEIGHTS = [0.0, 0.5, 0.0, 0.5, 0.0]


class TestSolverGrid:
    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            SolverGrid(30.0, 8, 100)
        with pytest.raises(ValueError):
            SolverGrid(30.0, 100, 8)
        for x_max in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="x_max must be positive and finite"):
                SolverGrid(x_max, 100, 100)

    def test_centers(self):
        g = SolverGrid(2.0, 16, 16)
        assert g.dx() == 0.125
        assert g.centers()[0] == 0.0625


class TestBank:
    def test_vanishes_at_right_boundary(self):
        for g in function_bank():
            for fn in (g.f, g.df, g.d2f):
                assert abs(fn(np.array([30.0]))[0]) < 1e-12

    def test_bump_derivative_zero_at_center(self):
        for g in function_bank():
            if g.name.startswith("bump"):
                c = float(g.name.split("c=")[1].split(",")[0])
                assert g.df(np.array([c]))[0] == 0.0

    def test_second_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-5
        for g in function_bank():
            x = rng.uniform(0.05, 8.0, 100)
            fd = (g.df(x + h) - g.df(x - h)) / (2 * h)
            assert np.max(np.abs(fd - g.d2f(x))) < 1e-6


def old_closed_forms(g):
    """g, g' and g'' of a bank function as three separate closed forms, each
    with its own exp: the forms the jets must reproduce bit for bit."""
    kind, c, p = re.fullmatch(r"(\w+)\(c=([\d.]+),(?:sigma|w)=([\d.]+)\)", g.name).groups()
    c, p = float(c), float(p)
    if kind == "gaussian":
        f = lambda x: np.exp(-((x - c) ** 2) / (2.0 * p**2))
        df = lambda x: -(x - c) / p**2 * f(x)
        d2f = lambda x: (((x - c) / p**2) ** 2 - 1.0 / p**2) * f(x)
        return f, df, d2f

    def parts(x):
        s = (np.asarray(x, dtype=float) - c) / p
        inside = np.abs(s) < 1.0
        s = np.where(inside, s, 0.0)
        one = 1.0 - s * s
        return s, one, inside, -2.0 * s / (p * one**2), -2.0 * (1.0 + 3.0 * s * s) / (p**2 * one**3)

    def f(x):
        s, one, inside, _, _ = parts(x)
        return np.where(inside, np.exp(1.0 - 1.0 / one), 0.0)

    def df(x):
        s, one, inside, phi1, _ = parts(x)
        return np.where(inside, phi1 * np.exp(1.0 - 1.0 / one), 0.0)

    def d2f(x):
        s, one, inside, phi1, phi2 = parts(x)
        return np.where(inside, (phi2 + phi1 * phi1) * np.exp(1.0 - 1.0 / one), 0.0)

    return f, df, d2f


# a fine grid with each bump's edges (0, 2 and 1, 5), their neighbouring
# doubles and the centres added
EDGES = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
JET_GRID = np.sort(np.concatenate([np.linspace(0.0, 30.0, 30001), EDGES, np.nextafter(EDGES, -1.0), np.nextafter(EDGES, 9.0)]))


class TestJets:
    @pytest.mark.parametrize("k", range(5))
    def test_jet_equals_closed_forms(self, k):
        g = function_bank()[k]
        want = [fn(JET_GRID).tobytes() for fn in old_closed_forms(g)]
        for got in (g.jet(JET_GRID), (g.f(JET_GRID), g.df(JET_GRID), g.d2f(JET_GRID))):
            assert [part.tobytes() for part in got] == want
        for x in (1.0, 2.5):  # scalars too
            assert [float(part) for part in g.jet(x)] == [float(fn(x)) for fn in old_closed_forms(g)]

    @pytest.mark.parametrize("eta", [2.0, 1.5])
    def test_generator_equals_derivative_form(self, eta):
        for g in function_bank():
            want = 0.5 * eta * g.df(JET_GRID) + 0.5 * JET_GRID * g.d2f(JET_GRID)
            assert np.array_equal(_generator(g, eta)(JET_GRID), want)


def random_step(seed):
    """A random grid, masses and step: centers, dx, dt, coeff, eta, m."""
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(16, 1300))
    centers = np.sort(rng.uniform(0.0, 40.0, nx))
    dx = float(rng.uniform(0.01, 0.5))
    dt = float(rng.uniform(1e-4, 0.05))
    coeff = float(rng.uniform(0.0, 10.0)) if seed else 0.0
    eta = float(rng.uniform(1.01, 4.0))
    return centers, dx, dt, coeff, eta, rng.uniform(0.0, 1.0, nx)


class TestAdvance:
    def test_zero_coefficient_freezes_state(self):
        g = SolverGrid(10.0, 64, 16)
        m = np.exp(-g.centers())
        out = _advance(m, _operator(g.centers(), g.dx(), 2.0), 0.0)
        assert np.array_equal(out, m)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_solve_banded(self, seed):
        # gtsv is the routine solve_banded((1, 1), ...) calls, so handing it the
        # three diagonals of I + rc A directly must not change a bit
        centers, dx, dt, coeff, eta, m = random_step(seed)
        lower, diag, upper = _operator(centers, dx, eta)
        rc = coeff * dt / dx
        ab = np.zeros((3, len(m)))
        ab[0, 1:] = rc * upper
        ab[1] = 1.0 + rc * diag
        ab[2, :-1] = rc * lower
        assert np.array_equal(_advance(m, (lower, diag, upper), rc), solve_banded((1, 1), ab, m))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_step_assembly(self, seed):
        # the operator built once agrees with the flux assembled from c at each
        # step to the rounding of its different operation order
        centers, dx, dt, coeff, eta, m = random_step(seed)
        got = _advance(m, _operator(centers, dx, eta), coeff * dt / dx)
        want = banded_step(m, centers, dx, dt, coeff, eta)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(m).max()

    @pytest.mark.parametrize("eta", [1.01, 1.5, 2.0, 3.0, 3.7])
    def test_face_choice_matches_per_step_rule(self, eta):
        # a face is centered where 0.25 eta c <= (0.5 c / dx) x_{j+1}, for every
        # c > 0 alike: the operator's upper diagonal holds the advective 0.25 eta there
        # (the first face of a uniform grid ties at eta = 3; the random grid has both kinds)
        rng = np.random.default_rng(int(100 * eta))
        random_centers = np.sort(rng.uniform(0.0, 2.0, 400))
        for centers, dx in [(SolverGrid(30.0, 1200, 16).centers(), 0.025), (random_centers, 0.37)]:
            x_right = centers[1:]
            centered = _operator(centers, dx, eta)[2] != -(0.5 / dx) * x_right
            for c in np.concatenate([rng.uniform(0.0, 10.0, 200), [1e-300, 1e-12, 1.0, 10.0]]):
                if c > 0:
                    assert np.array_equal(centered, 0.5 * (0.5 * eta * c) <= (0.5 * c / dx) * x_right)
        assert centered.any() and not centered.all()


def banded_step(values, centers, dx, dt, coeff, eta):
    """The backward-Euler step assembled from the fluxes at coefficient c =
    coeff, face rule included, as a band matrix for solve_banded.

    The matrix is an M-matrix whose columns sum to 1, hence diagonally
    dominant by columns.
    """
    nx = len(values)
    a, b, r = 0.5 * eta * coeff, 0.5 * coeff, dt / dx
    x_left, x_right = centers[:-1], centers[1:]
    centered = 0.5 * a <= (b / dx) * x_right if coeff > 0 else np.ones(nx - 1, bool)
    flux_left = np.where(centered, 0.5 * a, a) + (b / dx) * x_left
    flux_right = np.where(centered, 0.5 * a, 0.0) - (b / dx) * x_right
    ab = np.zeros((3, nx))
    ab[0, 1:] = r * flux_right
    ab[1] = 1.0
    ab[1, :-1] += r * flux_left
    ab[1, 1:] -= r * flux_right
    ab[2, :-1] = -r * flux_left
    return solve_banded((1, 1), ab, values)


class TestSolve:
    def test_mass_conserved_and_positive(self):
        traj = solve(PARAMS, LAW, SolverGrid(30.0, 300, 200))
        assert np.abs(traj.mass() - 1.0).max() <= 1e-6
        assert traj.masses.min() >= -1e-12 * traj.grid.dx()

    def test_matches_analytic_density(self):
        grid = SolverGrid(30.0, 600, 400)
        traj = solve(PARAMS, LAW, grid)
        ll = LimitLaw(PARAMS.eta, LAW)
        l1 = np.abs(traj.masses[-1] / grid.dx() - density(ll, 1.0, grid.centers())).sum() * grid.dx()
        assert l1 <= 1e-2

    def test_discrete_mean_tracks_analytic_mean(self):
        grid = SolverGrid(30.0, 1200, 800)
        traj = solve(PARAMS, LAW, grid)
        ll = LimitLaw(PARAMS.eta, LAW)
        discrete_mean = float(traj.masses[-1] @ grid.centers())
        assert discrete_mean == pytest.approx(mean(ll, 1.0), rel=1e-3)

    def test_refinement_improves_l1(self):
        ll = LimitLaw(PARAMS.eta, LAW)
        l1 = {}
        for nx, nt in ((150, 100), (300, 200)):
            grid = SolverGrid(30.0, nx, nt)
            traj = solve(PARAMS, LAW, grid)
            l1[nx] = np.abs(traj.masses[-1] / grid.dx() - density(ll, 1.0, grid.centers())).sum() * grid.dx()
        assert l1[300] < l1[150]

    def test_gamma_initial_law(self):
        params = ModelParams(1.5, 1, 1.0)
        law = GammaLaw(2.0, 0.5)
        grid = SolverGrid(40.0, 800, 400)
        traj = solve(params, law, grid)
        ll = LimitLaw(params.eta, law)
        l1 = np.abs(traj.masses[-1] / grid.dx() - density(ll, 1.0, grid.centers())).sum() * grid.dx()
        assert l1 <= 1e-2
        assert np.abs(traj.mass() - 1.0).max() <= 1e-6

    def test_truncation_precondition(self):
        with pytest.raises(ConfigurationError, match="x_max"):
            solve(PARAMS, LAW, SolverGrid(5.0, 100, 100))

    def test_validation_propagates(self):
        from vsmhl import ValidationError

        with pytest.raises(ValidationError):
            solve(ModelParams(0.9, 1, 1.0), LAW, SolverGrid(30.0, 100, 100))


class TestMollifiedStartLaw:
    def test_atoms_on_centers_with_unit_mass(self):
        grid = SolverGrid(30.0, 300, 100)
        atoms = mollified_start_law(LAW, grid)
        w = atoms.weights()
        assert abs(w.sum() - 1.0) <= 1e-12
        assert set(atoms.locations()) <= set(grid.centers())
        # mollified mean stays close to the point mass location
        assert atoms.locations() @ w == pytest.approx(1.0, abs=1e-2)


def grid_expect(path, func_lists):
    """Pairing of node k of a GridPath, read from path.pairings over every
    node for each list of functions, the lists weak_residual pairs.  The
    einsum fixes no summation order that a per-node np.sum repeats bit for
    bit, so TestGridPath checks these entries against per-node cell-mass sums
    within the rounding bound instead."""
    table = {}
    for funcs in func_lists:
        for f, row in zip(funcs, path.pairings(funcs, range(len(path.times)))):
            table[f(path.x).tobytes()] = row
    return lambda k, f: float(table[f(path.x).tobytes()][k])


def node_expect(path):
    """Pairing of node set k of a NodePath, one set at a time."""

    def expect(k, f):
        lo, hi = path.starts[k], path.starts[k + 1]
        return float(np.add.reduceat(path.w[lo:hi] * f(path.x[lo:hi]), [0])[0])

    return expect


def reference_residual(times, expect, g, eta, m_lambda, t, time_weights=None):
    """The per-(g, t) formulation: one expect(k, f) call per node, then Simpson,
    or the weighted sum of a NodePath's time_weights when they are given."""
    times = np.asarray(times, dtype=float)
    idx = int(np.argmin(np.abs(times - t)))
    lhs = expect(idx, g.f) - expect(0, g.f)
    if idx == 0 or m_lambda == 0.0:
        return float(lhs)
    s = times[: idx + 1]
    pairs = [expect(k, lambda x: 0.5 * eta * g.df(x) + 0.5 * x * g.d2f(x)) for k in range(idx + 1)]
    integrand = m_lambda * np.exp(0.5 * eta * s) * np.array(pairs)
    if time_weights is not None:
        rhs = np.sum(integrand * time_weights[: idx + 1])
    elif idx == 1:
        rhs = 0.5 * (integrand[0] + integrand[1]) * (s[1] - s[0])
    else:
        rhs = simpson(integrand, x=s)
    return float(lhs - rhs)


def assert_matches_reference(path, eta, m_lambda, t_values, expect):
    """weak_residual on path equals the per-(g, t) formulation with the
    pairings expect(k, f), entry for entry."""
    bank = function_bank()
    got = weak_residual(path, bank, eta, m_lambda, t_values)
    assert got.shape == (len(bank), len(t_values))
    tw = path.time_weights if isinstance(path, NodePath) else None
    want = [[reference_residual(path.times, expect, g, eta, m_lambda, t, tw) for t in t_values] for g in bank]
    assert got.tolist() == want


class TestWeakResidual:
    def test_zero_coefficient_constant_path(self):
        path = NodePath(MIDPOINT_TIMES, [([1.0], [1.0])] * 5, MIDPOINT_WEIGHTS)
        g = function_bank()[0]
        assert weak_residual(path, [g], 2.0, 0.0, [1.0]) == 0.0

    @pytest.mark.parametrize(
        "t_values, match",
        [
            ([2.0], "horizon"),
            ([0.5, 2.0], "horizon"),
            ([0.33], "node"),
            ([1.0, 0.33, 0.5], "node"),
            ([0.5, math.nan], "finite"),
            ([0.5, 0.75], "panel end"),
        ],
    )
    def test_horizon_errors(self, t_values, match):
        path = NodePath(MIDPOINT_TIMES, [([1.0], [1.0])] * 5, MIDPOINT_WEIGHTS)
        g = function_bank()[0]
        with pytest.raises(ValueError, match=match):
            weak_residual(path, [g], 2.0, 1.0, t_values)

    def test_pde_trajectory_residual_small(self):
        grid = SolverGrid(30.0, 600, 400)
        traj = solve(PARAMS, LAW, grid)
        path = traj.measure_path()
        g = function_bank()[1]
        [[r]] = weak_residual(path, [g], PARAMS.eta, 1.0, [1.0])
        assert abs(r) < 1e-2

    def test_solver_pairings_hold_one_copy(self):
        # measure_path hands the solver's masses over without a copy, and neither
        # pairing copies them (indexing the rows by the requested nodes would)
        grid = SolverGrid(30.0, 1200, 800)
        traj = solve(PARAMS, LAW, grid)
        budget = 0.1 * traj.masses.nbytes
        tracemalloc.start()
        try:
            weak_residual(traj.measure_path(), function_bank(), PARAMS.eta, 1.0, [0.5, 1.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget

    def test_analytic_residual_peak_memory(self):
        # the consecutive node sets are paired as views of x and w, and each
        # jet shares one exp: the peak stays within 8 copies of the nodes
        ll = LimitLaw(PARAMS.eta, LAW)
        path = exp._quadrature_path(ll, 1.0)
        bank = function_bank()
        tracemalloc.start()
        try:
            weak_residual(path, bank, PARAMS.eta, ll.m_lambda, [0.5, 1.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * path.x.nbytes

    def test_table_layout_does_not_move_residuals(self):
        path = solve(PARAMS, LAW, SolverGrid(30.0, 300, 200)).measure_path()

        class FortranPath:
            times = path.times

            def pairings(self, funcs, nodes):
                return np.asfortranarray(path.pairings(funcs, nodes))

        t = [path.times[109], path.times[110], 1.0]
        want = weak_residual(path, function_bank(), PARAMS.eta, 1.0, t)
        assert weak_residual(FortranPath(), function_bank(), PARAMS.eta, 1.0, t).tolist() == want.tolist()

    def test_solver_path_matches_reference(self):
        grid = SolverGrid(30.0, 300, 200)
        traj = solve(PARAMS, LAW, grid)
        path = traj.measure_path()
        assert isinstance(path, GridPath)
        bank = function_bank()
        expect = grid_expect(path, [[g.f for g in bank], [_generator(g, PARAMS.eta) for g in bank]])
        t = path.times
        assert_matches_reference(path, PARAMS.eta, 1.0, [t[0], t[1], t[2], t[109], t[110], 1.0], expect)

    def test_analytic_path_matches_reference(self):
        ll = LimitLaw(PARAMS.eta, LAW)
        path = exp._quadrature_path(ll, 1.0)
        assert isinstance(path, NodePath)
        assert len(path.times) == 39
        assert path.starts[1] == 1 and path.x[0] == 1.0 and path.w[0] == 1.0  # the point mass at t = 0
        assert len({path.x[end - 1] for end in path.starts[2:]}) == 38  # no two node sets alike
        assert_matches_reference(path, PARAMS.eta, 1.0, [0.0, 0.5, 1.0], node_expect(path))

    @pytest.mark.parametrize("horizon", [0.5, 1.0, 2.0])
    def test_analytic_time_rule(self, horizon):
        times, weights = exp._analytic_time_rule(horizon)
        n_early = exp.TIME_NODES_SQRT
        assert len(times) == n_early + exp.TIME_NODES_LATE + 3
        ends = np.flatnonzero(weights == 0.0)
        assert ends.tolist() == [0, n_early + 1, len(times) - 1]
        assert times[ends].tolist() == [0.0, 0.5 * horizon, horizon]
        half, early = 0.5 * horizon, slice(0, n_early + 1)
        # exact for polynomials in sqrt(t) up to degree 2 n_early - 1 on the first
        # panel and in t up to degree 2 TIME_NODES_LATE - 1 on the second
        for p in (0, 1, 2 * n_early - 1):
            got = weights[early] @ times[early] ** (0.5 * p)
            assert got == pytest.approx(half ** (1.0 + 0.5 * p) / (1.0 + 0.5 * p), rel=1e-13)
        for p in (0, 1, 2 * exp.TIME_NODES_LATE - 1):
            got = weights[n_early + 2 :] @ times[n_early + 2 :] ** p
            assert got == pytest.approx((horizon ** (p + 1) - half ** (p + 1)) / (p + 1), rel=1e-13)

    @pytest.mark.parametrize("law", [PointMass(1.0), GammaLaw(2.0, 0.5), UniformLaw(0.5, 1.5)], ids=str)
    def test_doubling_the_time_rule(self, law, monkeypatch):
        # the residual left at 24 + 12 nodes is the panel quadrature's, not the
        # time rule's (DiscreteAtoms((0.5, 0.3), (2.0, 0.7)) moves by 2.4e-7)
        ll = LimitLaw(PARAMS.eta, law)
        bank = function_bank()
        coarse = weak_residual(exp._quadrature_path(ll, 1.0), bank, PARAMS.eta, ll.m_lambda, [0.5, 1.0])
        monkeypatch.setattr(exp, "TIME_NODES_SQRT", 2 * exp.TIME_NODES_SQRT)
        monkeypatch.setattr(exp, "TIME_NODES_LATE", 2 * exp.TIME_NODES_LATE)
        fine = weak_residual(exp._quadrature_path(ll, 1.0), bank, PARAMS.eta, ll.m_lambda, [0.5, 1.0])
        assert np.abs(fine - coarse).max() <= 1e-7

    def test_atom_path_matches_reference(self):
        rng = np.random.default_rng(7)
        times = np.linspace(0.0, 1.0, 9)
        measures = [empirical(rng.gamma(2.0, 0.5 + k / 8.0, 50)) for k in range(9)]
        # midpoint panels: the odd nodes weigh 0.25, the even ones end a panel
        weights = np.where(np.arange(9) % 2 == 1, 0.25, 0.0)
        path = NodePath(times, [(m.x, m.w) for m in measures], weights)
        t_values = list(times[::2]) + [times[4] + 1e-12]
        assert_matches_reference(path, 1.5, 1.0, t_values, node_expect(path))


class TestNodePath:
    SETS = [([0.5, 1.0, 2.5], [0.2, 0.5, 0.3]), ([0.25], [1.0]), (np.linspace(0.1, 4.0, 40), np.full(40, 0.025))]

    @pytest.mark.parametrize("nodes", [[2, 0, 1, 2], [0, 1, 2], [1, 2], [1], [0, 2]])
    def test_pairings_equal_per_set_sums(self, nodes):
        path = NodePath(np.array([0.0, 0.5, 1.0]), self.SETS, [0.0, 1.0, 0.0])
        funcs = [g.f for g in function_bank()] + [g.df for g in function_bank()]
        got = path.pairings(funcs, nodes)
        assert got.shape == (len(funcs), len(nodes))
        assert got.tolist() == [[node_expect(path)(k, f) for k in nodes] for f in funcs]
        for i, f in enumerate(funcs):
            for j, k in enumerate(nodes):
                x, w = map(np.asarray, self.SETS[k])
                terms = w * f(x)
                # any summation order is within n eps sum|terms| of the exact sum
                assert abs(got[i, j] - math.fsum(terms)) <= len(x) * 2.0**-52 * np.abs(terms).sum()
        assert path.pairings(funcs, []).shape == (len(funcs), 0)

    @pytest.mark.parametrize(
        "times, sets, weights, match",
        [
            ([0.0, 1.0], SETS, [0.0, 0.0], "one node set per time"),
            ([0.0, 1.0, 1.0], SETS, [0.0, 0.0, 0.0], "time grid"),
            ([0.0, 0.5, 1.0], [SETS[0], ([], []), SETS[2]], [0.0, 0.0, 0.0], "nonempty"),
            ([0.0, 0.5, 1.0], [SETS[0], ([0.25], [0.5, 0.5]), SETS[2]], [0.0, 0.0, 0.0], "matching"),
            ([0.0, 0.5, 1.0], SETS, [0.0, 1.0], "one time weight per time node"),
            ([0.0, 0.5, 1.0], SETS, [0.5, 0.5, 0.0], "0 at t = 0"),
            ([0.0, 0.5, 1.0], SETS, [0.0, -1.0, 0.0], "nonnegative"),
            ([0.0, 0.5, 1.0], SETS, [0.0, math.inf, 0.0], "finite"),
            ([0.0, 0.5, 1.0], SETS, [0.0, math.nan, 0.0], "finite"),
        ],
    )
    def test_rejects_bad_sets(self, times, sets, weights, match):
        with pytest.raises(ValueError, match=match):
            NodePath(np.array(times), sets, weights)


class TestGridPath:
    X = np.linspace(0.0, 2.0, 41)

    def rows(self, n=5):
        """Positive cell masses, each row summing to 1."""
        masses = np.random.default_rng(3).uniform(0.2, 0.8, (n, len(self.X)))
        return masses / masses.sum(axis=1, keepdims=True)

    def test_rows_are_cell_masses(self):
        grid = SolverGrid(30.0, 300, 200)
        traj = solve(PARAMS, LAW, grid)
        path = traj.measure_path()
        assert np.array_equal(path.times, traj.times) and np.array_equal(path.x, grid.centers())
        assert np.shares_memory(path.m, traj.masses) and np.array_equal(path.m, traj.masses)
        assert np.abs(path.m.sum(axis=1) - 1.0).max() <= 1e-12  # the scheme's conserved mass

    def test_rows_kept_as_given(self):
        masses = self.rows()
        masses[2, 7] = -1e-13  # roundoff is not clipped
        masses[1] *= 0.9  # nor a row mass away from 1 renormalized
        path = GridPath(np.arange(5.0), self.X, masses)
        assert np.array_equal(path.m, masses)

    @pytest.mark.parametrize("nodes", [[0, 5, 109, 110, 200], list(range(200, -1, -1)), range(201), []])
    def test_pairings_equal_per_node_cell_mass_sums(self, nodes):
        grid = SolverGrid(30.0, 300, 200)
        path = solve(PARAMS, LAW, grid).measure_path()
        funcs = [g.f for g in function_bank()] + [g.d2f for g in function_bank()]
        got = path.pairings(funcs, nodes)
        assert got.shape == (len(funcs), len(nodes))
        # one product over every row: an entry does not depend on the other nodes requested
        assert np.array_equal(got, path.pairings(funcs, range(201))[:, list(nodes)])
        for i, f in enumerate(funcs):
            for j, k in enumerate(nodes):
                terms = path.m[k] * f(path.x)
                # any summation order is within n eps sum|terms| of the exact sum
                assert abs(got[i, j] - math.fsum(terms)) <= len(terms) * 2.0**-52 * np.abs(terms).sum()

    def test_rejects_non_increasing_grid(self):
        x = self.X.copy()
        x[10] = x[9]
        with pytest.raises(ValueError, match="strictly increasing"):
            GridPath(np.arange(5.0), x, self.rows())

    def test_rejects_negative_cell(self):
        masses = self.rows()
        masses[4, 3] = -1e-6
        with pytest.raises(ValueError, match="nonnegative"):
            GridPath(np.arange(5.0), self.X, masses)

    def test_rejects_bad_shapes_and_times(self):
        with pytest.raises(ValueError, match="one row"):
            GridPath(np.arange(4.0), self.X, self.rows())
        with pytest.raises(ValueError, match="time grid"):
            GridPath(np.array([0.0, 1.0, 1.0, 2.0, 3.0]), self.X, self.rows())


class TestDensityTrajectoryInvariants:
    def test_rejects_negative_cells(self):
        grid = SolverGrid(30.0, 16, 16)
        times = np.linspace(0.0, 1.0, 17)
        masses = np.full((17, 16), 1.0 / 16.0)
        masses[3, 5] = -1e-6
        with pytest.raises(ValueError, match="undershoot"):
            DensityTrajectory(grid, times, masses)

    def test_undershoot_bound_is_on_densities(self):
        # a cell may hold a density down to -1e-12, a mass down to -1e-12 dx
        grid = SolverGrid(30.0, 16, 16)
        times = np.linspace(0.0, 1.0, 17)
        masses = np.full((17, 16), 1.0 / 16.0)
        masses[3] = 1.0 / 15.0
        masses[3, 5] = -0.9e-12 * grid.dx()
        DensityTrajectory(grid, times, masses)
        masses[3, 5] = -1.1e-12 * grid.dx()
        with pytest.raises(ValueError, match="undershoot"):
            DensityTrajectory(grid, times, masses)

    def test_rejects_mass_drift(self):
        grid = SolverGrid(30.0, 16, 16)
        times = np.linspace(0.0, 1.0, 17)
        masses = np.full((17, 16), 1.0 / 16.0)
        masses[5] *= 1.1
        with pytest.raises(ValueError, match="mass"):
            DensityTrajectory(grid, times, masses)
