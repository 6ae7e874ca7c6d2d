import numpy as np
import pytest

from vsmhl import (
    ConfigurationError,
    DensityTrajectory,
    GammaLaw,
    LimitLaw,
    Measure1D,
    MeasurePath,
    ModelParams,
    PointMass,
    SolverGrid,
    density,
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


class TestSolve:
    def test_mass_conserved_and_positive(self):
        traj = solve(PARAMS, LAW, SolverGrid(30.0, 300, 200))
        assert np.abs(traj.mass() - 1.0).max() <= 1e-6
        assert traj.values.min() >= -1e-12

    def test_matches_analytic_density(self):
        grid = SolverGrid(30.0, 600, 400)
        traj = solve(PARAMS, LAW, grid)
        ll = LimitLaw.from_law(PARAMS.eta, LAW)
        l1 = np.abs(traj.values[-1] - density(ll, 1.0, grid.centers())).sum() * grid.dx()
        assert l1 <= 1e-2

    def test_discrete_mean_tracks_analytic_mean(self):
        grid = SolverGrid(30.0, 1200, 800)
        traj = solve(PARAMS, LAW, grid)
        ll = LimitLaw.from_law(PARAMS.eta, LAW)
        discrete_mean = float(traj.values[-1] @ grid.centers() * grid.dx())
        assert discrete_mean == pytest.approx(mean(ll, 1.0), rel=1e-3)

    def test_refinement_improves_l1(self):
        ll = LimitLaw.from_law(PARAMS.eta, LAW)
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
        ll = LimitLaw.from_law(params.eta, law)
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


class TestWeakResidual:
    def test_zero_coefficient_constant_path(self):
        m = Measure1D.from_atoms([1.0], [1.0])
        path = MeasurePath(np.linspace(0.0, 1.0, 5), (m,) * 5)
        g = function_bank()[0]
        assert weak_residual(path, g, 2.0, 0.0, 1.0) == 0.0

    def test_horizon_errors(self):
        m = Measure1D.from_atoms([1.0], [1.0])
        path = MeasurePath(np.linspace(0.0, 1.0, 5), (m,) * 5)
        g = function_bank()[0]
        with pytest.raises(ValueError, match="horizon"):
            weak_residual(path, g, 2.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="node"):
            weak_residual(path, g, 2.0, 1.0, 0.33)

    def test_pde_trajectory_residual_small(self):
        grid = SolverGrid(30.0, 600, 400)
        traj = solve(PARAMS, LAW, grid)
        path = traj.measure_path()
        g = function_bank()[1]
        r = weak_residual(path, g, PARAMS.eta, 1.0, 1.0)
        assert abs(r) < 1e-2


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
