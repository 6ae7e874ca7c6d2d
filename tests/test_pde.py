import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import solve_banded

import vsmhl.experiments as exp
import vsmhl.pde as pde

from vsmhl import (
    ConfigurationError,
    DensityTrajectory,
    GammaLaw,
    GridPath,
    LimitLaw,
    Measure1D,
    MeasurePath,
    ModelParams,
    PointMass,
    SolverGrid,
    density,
    empirical,
    mean,
    mollified_start_law,
    solve,
    weak_residual,
)
from vsmhl import test_function_bank as function_bank
from vsmhl.pde import _advance

PARAMS = ModelParams(2.0, 1, 1.0)
LAW = PointMass(1.0)


class TestSolverGrid:
    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            SolverGrid(30.0, 8, 100)
        with pytest.raises(ValueError):
            SolverGrid(30.0, 100, 8)
        with pytest.raises(ValueError):
            SolverGrid(-1.0, 100, 100)

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


class TestAdvance:
    def test_zero_coefficient_freezes_state(self):
        g = SolverGrid(10.0, 64, 16)
        values = np.exp(-g.centers())
        out = _advance(values, g.centers(), g.dx(), 0.01, 0.0, 2.0)
        assert np.array_equal(out, values)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_solve_banded(self, seed):
        # gtsv is the routine solve_banded((1, 1), ...) calls, so handing it the
        # three diagonals directly must not change a bit
        rng = np.random.default_rng(seed)
        nx = int(rng.integers(16, 1300))
        centers = np.sort(rng.uniform(0.0, 40.0, nx))
        dx = float(rng.uniform(0.01, 0.5))
        dt = float(rng.uniform(1e-4, 0.05))
        coeff = float(rng.uniform(0.0, 10.0)) if seed else 0.0
        eta = float(rng.uniform(1.01, 4.0))
        values = rng.uniform(0.0, 1.0, nx)
        want = banded_step(values, centers, dx, dt, coeff, eta)
        assert np.array_equal(_advance(values, centers, dx, dt, coeff, eta), want)


def banded_step(values, centers, dx, dt, coeff, eta):
    """The backward-Euler step assembled as a band matrix for solve_banded.

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
        assert traj.values.min() >= -1e-12

    def test_matches_analytic_density(self):
        grid = SolverGrid(30.0, 600, 400)
        traj = solve(PARAMS, LAW, grid)
        ll = LimitLaw(PARAMS.eta, LAW)
        l1 = np.abs(traj.values[-1] - density(ll, 1.0, grid.centers())).sum() * grid.dx()
        assert l1 <= 1e-2

    def test_discrete_mean_tracks_analytic_mean(self):
        grid = SolverGrid(30.0, 1200, 800)
        traj = solve(PARAMS, LAW, grid)
        ll = LimitLaw(PARAMS.eta, LAW)
        discrete_mean = float(traj.values[-1] @ grid.centers() * grid.dx())
        assert discrete_mean == pytest.approx(mean(ll, 1.0), rel=1e-3)

    def test_refinement_improves_l1(self):
        ll = LimitLaw(PARAMS.eta, LAW)
        l1 = {}
        for nx, nt in ((150, 100), (300, 200)):
            grid = SolverGrid(30.0, nx, nt)
            traj = solve(PARAMS, LAW, grid)
            l1[nx] = np.abs(traj.values[-1] - density(ll, 1.0, grid.centers())).sum() * grid.dx()
        assert l1[300] < l1[150]

    def test_gamma_initial_law(self):
        params = ModelParams(1.5, 1, 1.0)
        law = GammaLaw(2.0, 0.5)
        grid = SolverGrid(40.0, 800, 400)
        traj = solve(params, law, grid)
        ll = LimitLaw(params.eta, law)
        l1 = np.abs(traj.values[-1] - density(ll, 1.0, grid.centers())).sum() * grid.dx()
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


def reference_residual(path, g, eta, m_lambda, t):
    """The per-(g, t) formulation: one expect call per node, then Simpson."""
    times = np.asarray(path.times, dtype=float)
    idx = int(np.argmin(np.abs(times - t)))
    lhs = path.measures[idx].expect(g.f) - path.measures[0].expect(g.f)
    if idx == 0 or m_lambda == 0.0:
        return float(lhs)
    s = times[: idx + 1]
    pairs = [
        m.expect(lambda x: 0.5 * eta * g.df(x) + 0.5 * x * g.d2f(x))
        for m in path.measures[: idx + 1]
    ]
    integrand = m_lambda * np.exp(0.5 * eta * s) * np.array(pairs)
    if idx == 1:
        rhs = 0.5 * (integrand[0] + integrand[1]) * (s[1] - s[0])
    else:
        rhs = simpson(integrand, x=s)
    return float(lhs - rhs)


def assert_matches_reference(path, eta, m_lambda, t_values, reference=None):
    """weak_residual on path equals the per-(g, t) formulation on reference
    (by default the path itself), entry for entry."""
    bank = function_bank()
    got = weak_residual(path, bank, eta, m_lambda, t_values)
    assert got.shape == (len(bank), len(t_values))
    ref = path if reference is None else reference
    want = [[reference_residual(ref, g, eta, m_lambda, t) for t in t_values] for g in bank]
    assert got.tolist() == want


class TestWeakResidual:
    def test_zero_coefficient_constant_path(self):
        m = Measure1D.from_atoms([1.0], [1.0])
        path = MeasurePath(np.linspace(0.0, 1.0, 5), (m,) * 5)
        g = function_bank()[0]
        assert weak_residual(path, [g], 2.0, 0.0, [1.0]) == 0.0

    @pytest.mark.parametrize(
        "t_values, match",
        [([2.0], "horizon"), ([0.5, 2.0], "horizon"), ([0.33], "node"), ([1.0, 0.33, 0.5], "node")],
    )
    def test_horizon_errors(self, t_values, match):
        m = Measure1D.from_atoms([1.0], [1.0])
        path = MeasurePath(np.linspace(0.0, 1.0, 5), (m,) * 5)
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

    def test_solver_path_matches_reference(self):
        grid = SolverGrid(30.0, 300, 200)
        rows = pde._PAIR_BYTES // (8 * grid.nx)
        n_nodes = grid.nt + 1
        assert rows < n_nodes and n_nodes % rows != 0  # several blocks, the last one partial
        traj = solve(PARAMS, LAW, grid)
        path = traj.measure_path()
        assert isinstance(path, GridPath)
        per_node = MeasurePath(
            traj.times, tuple(Measure1D.from_grid(grid.centers(), row) for row in traj.values)
        )
        t = path.times
        assert_matches_reference(
            path, PARAMS.eta, 1.0, [t[0], t[1], t[2], t[rows], t[rows + 1], 1.0], per_node
        )

    def test_analytic_path_matches_reference(self):
        ll = LimitLaw(PARAMS.eta, LAW)
        path = exp._analytic_path(ll, tuple(exp._analytic_times(1.0)), 6000)
        assert len(path.times) == 98
        assert path.measures[0].kind == Measure1D.ATOMS
        assert len({m.x[-1] for m in path.measures[1:]}) == 97  # no two grids alike
        t = path.times
        assert_matches_reference(path, PARAMS.eta, 1.0, [t[1], t[2], 0.5, t[70], 1.0])

    def test_atom_path_matches_reference(self):
        rng = np.random.default_rng(7)
        times = np.linspace(0.0, 1.0, 8)
        measures = tuple(empirical(rng.gamma(2.0, 0.5 + k / 8.0, 50)) for k in range(8))
        path = MeasurePath(times, measures)
        assert_matches_reference(path, 1.5, 1.0, list(times) + [times[3] + 1e-12])


class TestGridPath:
    X = np.linspace(0.0, 2.0, 41)

    def rows(self, n=5):
        """Positive rows whose masses lie within 3% of 1."""
        rng = np.random.default_rng(3)
        values = rng.uniform(0.2, 0.8, (n, len(self.X)))
        return values * rng.uniform(0.97, 1.03, (n, 1)) / np.trapezoid(values, self.X)[:, None]

    def test_rows_equal_from_grid(self):
        grid = SolverGrid(30.0, 300, 200)
        traj = solve(PARAMS, LAW, grid)
        assert len(traj.times) > pde._PAIR_BYTES // (8 * grid.nx)  # several normalization blocks
        path = traj.measure_path()
        assert path.w.shape == traj.values.shape
        assert np.array_equal(path.times, traj.times) and np.array_equal(path.x, grid.centers())
        for row, w in zip(traj.values, path.w):
            assert np.array_equal(w, Measure1D.from_grid(grid.centers(), row).w)
            clipped = np.maximum(row, 0.0)  # the one-row normalization, written out
            assert np.array_equal(w, clipped / np.trapezoid(clipped, grid.centers()))

    def test_negative_roundoff_clipped(self):
        values = self.rows()
        values[2, 7] = -1e-13
        path = GridPath(np.arange(5.0), self.X, values)
        assert path.w[2, 7] == 0.0
        assert np.array_equal(path.w[2], Measure1D.from_grid(self.X, values[2]).w)

    def test_rejects_non_increasing_grid(self):
        x = self.X.copy()
        x[10] = x[9]
        with pytest.raises(ValueError, match="strictly increasing"):
            GridPath(np.arange(5.0), x, self.rows())

    def test_rejects_negative_cell(self):
        values = self.rows()
        values[4, 3] = -1e-6
        with pytest.raises(ValueError, match="nonnegative"):
            GridPath(np.arange(5.0), self.X, values)

    def test_rejects_row_mass_far_from_one(self):
        values = self.rows()
        values[1] *= 0.9 / np.trapezoid(values[1], self.X)
        with pytest.raises(ValueError, match="grid density mass .* is too far from 1") as path_err:
            GridPath(np.arange(5.0), self.X, values)
        with pytest.raises(ValueError) as row_err:
            Measure1D.from_grid(self.X, values[1])
        assert str(path_err.value) == str(row_err.value)

    def test_rejects_bad_shapes_and_times(self):
        with pytest.raises(ValueError, match="one row"):
            GridPath(np.arange(4.0), self.X, self.rows())
        with pytest.raises(ValueError, match="time grid"):
            GridPath(np.array([0.0, 1.0, 1.0, 2.0, 3.0]), self.X, self.rows())


class TestDensityTrajectoryInvariants:
    def test_rejects_negative_cells(self):
        grid = SolverGrid(30.0, 16, 16)
        times = np.linspace(0.0, 1.0, 17)
        values = np.full((17, 16), 1.0 / 30.0)
        values[3, 5] = -1e-6
        with pytest.raises(ValueError, match="undershoot"):
            DensityTrajectory(grid, times, values)

    def test_rejects_mass_drift(self):
        grid = SolverGrid(30.0, 16, 16)
        times = np.linspace(0.0, 1.0, 17)
        values = np.full((17, 16), 1.0 / 30.0)
        values[5] *= 1.1
        with pytest.raises(ValueError, match="mass"):
            DensityTrajectory(grid, times, values)
