import contextlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import solve_banded

import vsmhl.pde as pde
from vsmhl import (
    ConfigurationError,
    DiscreteAtoms,
    GammaLaw,
    LimitLaw,
    ModelParams,
    PointMass,
    SolverGrid,
    UniformLaw,
    WeakFormPath,
    density,
    empirical,
    mean,
    mollified_start_law,
    quadrature,
    quadrature_path,
    solve,
    weak_residual,
)
from vsmhl import test_function_bank as function_bank
from vsmhl.pde import _generator, _gtsv, _initial_masses, _operator, _simpson_weight, _stepper

PARAMS = ModelParams(2.0, 1, 1.0)
LAW = PointMass(1.0)


class TestSolverGrid:
    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            SolverGrid(30.0, 8, 100)
        with pytest.raises(ValueError):
            SolverGrid(30.0, 100, 8)
        with pytest.raises(ConfigurationError, match="^x_max must be positive, got -1.0$"):
            SolverGrid(-1.0, 100, 100)
        for x_max in (math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="^x_max must be a finite number"):
                SolverGrid(x_max, 100, 100)

    @pytest.mark.parametrize(
        "field, value", [("nx", 10**400), ("nt", 10**400), ("nx", 10**20), ("nx", 2**40), ("nt", 10**20)]
    )
    def test_rejects_oversized_grids(self, field, value):
        fields = {"x_max": 30.0, "nx": 100, "nt": 100} | {field: value}
        with pytest.raises(ConfigurationError, match=f"^{field} must be at most 65536, got {value}$"):
            SolverGrid(**fields)

    def test_admits_every_studied_grid(self):
        assert pde.GRID_MAX == 2**16
        for nx, nt in ((4800, 12800), (pde.GRID_MAX, pde.GRID_MAX)):
            SolverGrid(30.0, nx, nt)

    def test_level_times_are_the_solves(self):
        # pde_check reads the limit law at these times while the solve runs elsewhere
        grid = SolverGrid(30.0, 300, 17)
        traj = solve(PARAMS, LAW, grid)
        assert grid.ends() == (8, 17)
        assert list(traj.times) == [grid.level_time(k, PARAMS.horizon) for k in (0, *grid.ends())]
        assert grid.level_time(17, PARAMS.horizon) == PARAMS.horizon

    def test_centers(self):
        g = SolverGrid(2.0, 16, 16)
        assert g.dx() == 0.125
        assert g.centers()[0] == 0.0625


class TestBank:
    def test_vanishes_at_right_boundary(self):
        for g in function_bank():
            for part in g.jet(np.array([30.0])):
                assert abs(part[0]) < 1e-12

    def test_bump_derivative_zero_at_center(self):
        for g in function_bank():
            if g.name.startswith("bump"):
                c = float(g.name.split("c=")[1].split(",")[0])
                assert g.jet(np.array([c]))[1][0] == 0.0

    def test_second_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-5
        for g in function_bank():
            x = rng.uniform(0.05, 8.0, 100)
            fd = (g.jet(x + h)[1] - g.jet(x - h)[1]) / (2 * h)
            assert np.max(np.abs(fd - g.jet(x)[2])) < 1e-6


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
        assert [part.tobytes() for part in g.jet(JET_GRID)] == want
        assert g.f(JET_GRID).tobytes() == want[0]
        for x in (1.0, 2.5):  # scalars too
            assert [float(part) for part in g.jet(x)] == [float(fn(x)) for fn in old_closed_forms(g)]

    @pytest.mark.parametrize("eta", [2.0, 1.5])
    def test_generator_equals_derivative_form(self, eta):
        for g in function_bank():
            _, dg, d2g = g.jet(JET_GRID)
            want = 0.5 * eta * dg + 0.5 * JET_GRID * d2g
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


def advance_once(m, op, rc):
    """One step of a _stepper started at m, taken after a step at rc = NaN has
    filled its scratch diagonals with NaN: a step must write every scratch
    entry before gtsv reads it."""
    out, step = _stepper(op, m)
    step(math.nan)
    out[:] = m
    step(rc)
    return out


@contextlib.contextmanager
def without_numpy_dgtsv():
    """_gtsv() as a numpy whose LAPACK lacks the symbol resolves it: None, so
    _stepper calls scipy.linalg's dgtsv.  Calls after the block resolve anew."""
    _gtsv.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pde, "_DGTSV", "no_such_symbol")
            assert _gtsv() is None
            yield
    finally:
        _gtsv.cache_clear()


class TestAdvance:
    def test_zero_coefficient_freezes_state(self):
        g = SolverGrid(10.0, 64, 16)
        m = np.exp(-g.centers())
        out = advance_once(m, _operator(g.centers(), g.dx(), 2.0), 0.0)
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
        assert np.array_equal(advance_once(m, (lower, diag, upper), rc), solve_banded((1, 1), ab, m))

    def test_scipy_fallback_equals_openblas(self):
        # a numpy whose LAPACK does not export dgtsv gets scipy's behind the same
        # in-place step; singular systems (info 1 and 7) included.  Each system
        # (dl, d, du, b) is the step at rc = 1 of op = (dl, d - 1, du) from b
        rng = np.random.default_rng(28)
        systems = [[rng.normal(size=k) for k in (n - 1, n, n - 1, n)] for n in rng.integers(16, 2401, 40)]
        systems += [[np.zeros(15), np.zeros(16), np.zeros(15), np.ones(16)]]
        systems += [[np.zeros(15), np.r_[np.ones(6), 0.0, np.ones(9)], np.zeros(15), np.ones(16)]]

        def solved():
            out = []
            for dl, d, du, b in systems:
                m, step = _stepper((dl, d - 1.0, du), b)
                try:
                    step(1.0)
                    info = 0
                except np.linalg.LinAlgError as e:
                    info = int(str(e).rsplit(" ", 1)[1])
                out.append((info, m))
            return out

        grid = SolverGrid(30.0, 300, 64)
        want, want_solve = solved(), solve(PARAMS, LAW, grid)
        with without_numpy_dgtsv():
            got, got_solve = solved(), solve(PARAMS, LAW, grid)
        assert _gtsv() is not None
        assert [info for info, _ in want] == [0] * 40 + [1, 7]
        for (info, m), (want_info, want_m) in zip(got, want):
            assert info == want_info
            assert np.array_equal(m, want_m, equal_nan=True)
        assert np.array_equal(got_solve.masses, want_solve.masses)
        assert np.array_equal(got_solve.integrals, want_solve.integrals)

    @pytest.mark.parametrize("backend", ["openblas", "scipy"])
    def test_steps_allocate_nothing(self, backend):
        grid = SolverGrid(30.0, 1200, 16)
        op = _operator(grid.centers(), grid.dx(), 2.0)
        with without_numpy_dgtsv() if backend == "scipy" else contextlib.nullcontext():
            m, step = _stepper(op, _initial_masses(LAW, grid))
            step(0.01)  # the first call of each routine may cache what it looks up
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                for _ in range(100):
                    step(0.01)
                after, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert after == before
        assert abs(m.sum() - 1.0) <= 1e-12  # the steps ran

    @pytest.mark.parametrize("n", [15, 17])
    def test_mismatched_operator_fails_before_lapack(self, n):
        # the stepper sizes its scratch from the masses, so an operator of
        # another size fails in numpy's first multiply, and m is untouched
        grid = SolverGrid(10.0, 16, 16)
        m, step = _stepper(_operator(grid.centers(), grid.dx(), 2.0), np.ones(n))
        with pytest.raises(ValueError, match="could not be broadcast"):
            step(1.0)
        assert np.array_equal(m, np.ones(n))

    def test_singular_step_raises(self):
        # I + rc A with a zero pivot in row 3
        op = (np.zeros(15), np.r_[np.zeros(2), -1.0, np.zeros(13)], np.zeros(15))
        with pytest.raises(np.linalg.LinAlgError, match="gtsv info 3$"):
            advance_once(np.ones(16), op, 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_step_assembly(self, seed):
        # the operator built once agrees with the flux assembled from c at each
        # step to the rounding of its different operation order
        centers, dx, dt, coeff, eta, m = random_step(seed)
        got = advance_once(m, _operator(centers, dx, eta), coeff * dt / dx)
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
        assert traj.max_drift <= 1e-6
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
        assert traj.max_drift <= 1e-6

    def test_truncation_precondition(self):
        short = SolverGrid(5.0, 100, 100)
        [message] = pde.truncation_violations(PARAMS, LAW, short)
        with pytest.raises(ConfigurationError, match="x_max") as info:
            solve(PARAMS, LAW, short)
        assert info.value.args == (message,)
        assert pde.truncation_violations(PARAMS, LAW, SolverGrid(30.0, 100, 100)) == []

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


def full_trajectory(params, law, grid):
    """Every level of a solve, stepped the way solve steps, and the
    coefficient c(t_k) at each level: the reference the streamed solve keeps
    a few rows of."""
    ll = LimitLaw(params.eta, law)
    times = np.linspace(0.0, params.horizon, grid.nt + 1)
    coeffs = ll.m_lambda * np.array([math.exp(0.5 * params.eta * t) for t in times])
    dx = grid.dx()
    op = _operator(grid.centers(), dx, params.eta)
    levels = [_initial_masses(law, grid)]
    for k in range(1, grid.nt + 1):
        levels.append(advance_once(levels[-1], op, coeffs[k] * (params.horizon / grid.nt / dx)))
    return times, coeffs, np.array(levels)


FOUR_LAWS = [LAW, GammaLaw(2.0, 0.5), UniformLaw(0.5, 1.5), DiscreteAtoms(((0.5, 0.3), (1.5, 0.7)))]


class TestStreamingSolve:
    GRID = SolverGrid(30.0, 300, 200)

    @pytest.mark.parametrize("nt", [200, 201])
    @pytest.mark.parametrize("law", FOUR_LAWS, ids=str)
    def test_kept_levels_equal_the_full_trajectory(self, law, nt):
        grid = SolverGrid(30.0, 300, nt)
        times, _, levels = full_trajectory(PARAMS, law, grid)
        traj = solve(PARAMS, law, grid)
        kept = [0, nt // 2, nt]
        assert traj.times.tolist() == times[kept].tolist()
        assert np.array_equal(traj.masses, levels[kept])
        assert traj.max_drift == np.abs(levels.sum(axis=1) - 1.0).max()
        assert traj.max_drift <= 1e-12  # the scheme's conserved mass, over every level

    # 9 nodes is the fewest a solve integrates over: nt >= 16 steps, half of them
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 110, 111, 801])
    def test_simpson_weights_equal_scipy(self, n):
        want = simpson(np.eye(n), dx=1.0, axis=-1)
        assert [_simpson_weight(k, n) for k in range(n + 2)] == [*want, 0.0, 0.0]

    @pytest.mark.parametrize("law", FOUR_LAWS, ids=str)
    def test_residual_matches_full_trajectory_simpson(self, law):
        # the reference pairs every level, then integrates the pairings in time
        # by scipy's simpson; the solve sums the levels in time first, so the
        # two agree to n eps sum|terms|.  At nt = 202 the ends 101 and 202 have
        # 102 nodes (even: Cartwright's last interval) and 203 nodes.
        grid = SolverGrid(30.0, 300, 202)
        times, coeffs, levels = full_trajectory(PARAMS, law, grid)
        traj = solve(PARAMS, law, grid)
        x = grid.centers()
        bank = function_bank()
        got = weak_residual(traj.measure_path(), bank, PARAMS.eta)
        for i, g in enumerate(bank):
            gx, lgx = g.f(x), _generator(g, PARAMS.eta)(x)
            for j, end in enumerate([101, 202]):
                n = end + 1
                integrand = coeffs[:n] * (levels[:n] @ lgx)
                rule = simpson(integrand, x=times[:n])
                want = levels[end] @ gx - levels[0] @ gx - rule
                weights = np.array([abs(_simpson_weight(k, n)) for k in range(n)]) * times[1]
                terms = np.abs(levels[end] * gx).sum() + np.abs(levels[0] * gx).sum()
                terms += (weights * coeffs[:n]) @ np.abs(levels[:n] * lgx).sum(axis=1)
                assert abs(got[i, j] - want) <= (n + 2) * len(x) * 2.0**-52 * terms, (g.name, end)

    def test_peak_memory_does_not_grow_with_nt(self):
        # only level 0, the kept ends, their time integrals and a few
        # nx-vectors of scratch live at once, whatever the step count
        peaks = {}
        for nt in (200, 3200):
            grid = SolverGrid(30.0, 300, nt)
            solve(PARAMS, LAW, grid)  # the limit law's tail check fills its caches
            tracemalloc.start()
            try:
                solve(PARAMS, LAW, grid)
                _, peaks[nt] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert abs(peaks[3200] - peaks[200]) < 3 * 300 * 8

    @pytest.mark.parametrize(
        "last, scale, match",
        [
            (math.nan, 1.0, "not finite"),
            (math.inf, 1.0, "not finite"),
            (-1.1e-12, 1.0, "undershoot"),
            (None, 1.0 + 2e-6, "drifts"),
            (-0.9e-12, 1.0, None),  # the bound is on densities: a mass down to -1e-12 dx passes
        ],
        ids=["nan", "inf", "undershoot", "drift", "within-bound"],
    )
    def test_each_level_is_checked_as_it_is_made(self, monkeypatch, last, scale, match):
        steps = []

        def stepper(op, m0):
            m, step = _stepper(op, m0)

            def spoiling_step(rc):
                step(rc)
                steps.append(len(steps) + 1)
                if len(steps) == 7:  # spoil level 7, in the last cell (mass about 1e-64)
                    m[:] *= scale
                    if last is not None:
                        m[-1] = last * self.GRID.dx()

            return m, spoiling_step

        monkeypatch.setattr(pde, "_stepper", stepper)
        if match is None:
            solve(PARAMS, LAW, self.GRID)
            return
        with pytest.raises(ValueError, match=f"{match}.* at step 7$"):
            solve(PARAMS, LAW, self.GRID)
        assert len(steps) == 7  # the solve stops at the bad level

    def test_measure_path_hands_over_the_kept_rows(self):
        traj = solve(PARAMS, LAW, self.GRID)
        path = traj.measure_path()
        assert path.ends.tolist() == [0.5, 1.0]
        assert np.shares_memory(path.start[1], traj.masses)
        assert all(np.shares_memory(w, traj.masses) for _, w in path.stops)
        assert all(np.shares_memory(w, traj.integrals) for w in path.integral_w)
        assert np.array_equal(path.integral_x, self.GRID.centers())


def atom_path():
    """A hand-made path of atoms: empirical measures at 0 and at two ends,
    and time integrals weighting a prefix of 30 shared atoms."""
    rng = np.random.default_rng(7)
    start, half, end = (empirical(rng.gamma(2.0, 0.5 + k / 4.0, 50)) for k in range(3))
    x = np.sort(rng.uniform(0.0, 6.0, 30))
    w = rng.uniform(0.0, 0.1, 30)
    return WeakFormPath(np.array([0.5, 1.0]), (start.x, start.w), [(half.x, half.w), (end.x, end.w)], x, [w[:12], w])


class TestWeakResidual:
    def test_constant_path_without_integral(self):
        one = (np.array([1.0]), np.array([1.0]))
        path = WeakFormPath(np.array([1.0]), one, [one], np.array([1.0]), [np.array([0.0])])
        assert weak_residual(path, function_bank(), 2.0).tolist() == [[0.0]] * 5

    def test_atom_path_is_the_three_sums(self):
        path = atom_path()
        bank = function_bank()
        eta = 1.5
        got = weak_residual(path, bank, eta)
        assert got.shape == (len(bank), len(path.ends))
        for i, g in enumerate(bank):
            lg = _generator(g, eta)(path.integral_x)
            for j in range(len(path.ends)):
                (x0, w0), (x1, w1), w = path.start, path.stops[j], path.integral_w[j]
                want = np.sum(w1 * g.f(x1)) - np.sum(w0 * g.f(x0)) - np.sum(w * lg[: len(w)])
                assert got[i, j] == want

    def test_pde_trajectory_residual_small(self):
        grid = SolverGrid(30.0, 600, 400)
        traj = solve(PARAMS, LAW, grid)
        g = function_bank()[1]
        [[_, r]] = weak_residual(traj.measure_path(), [g], PARAMS.eta)
        assert abs(r) < 1e-2

    def test_analytic_residual_peak_memory(self):
        # each generator is evaluated once on the shared nodes, each jet shares
        # one exp, and the time integrals are views: the peak stays within 8
        # copies of the nodes
        ll = LimitLaw(PARAMS.eta, LAW)
        path = quadrature_path(ll, 1.0)
        bank = function_bank()
        tracemalloc.start()
        try:
            weak_residual(path, bank, PARAMS.eta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * path.integral_x.nbytes

    @pytest.mark.parametrize("block", [pde._JET_BLOCK, 2**8])
    def test_blocked_generator_equals_one_shot(self, block, monkeypatch):
        # the pde_point analytic path: the generator is filled in blocks of
        # _JET_BLOCK nodes, and each residual equals the one with every jet
        # evaluated on all of the path's nodes at once, bit for bit
        path = quadrature_path(LimitLaw(PARAMS.eta, LAW), 1.0)
        assert len(path.integral_x) > 3 * pde._JET_BLOCK
        bank = function_bank()
        monkeypatch.setattr(pde, "_JET_BLOCK", block)
        got = weak_residual(path, bank, PARAMS.eta)
        for i, g in enumerate(bank):
            lg = _generator(g, PARAMS.eta)(path.integral_x)
            for j, w in enumerate(path.integral_w):
                (x0, w0), (x1, w1) = path.start, path.stops[j]
                want = float(np.sum(w1 * g.f(x1))) - float(np.sum(w0 * g.f(x0))) - float(np.sum(w * lg[: len(w)]))
                assert got[i, j] == want

    def test_analytic_path_matches_reference(self):
        # the reference pairs each quadrature on its own and then sums the
        # pairings with the time rule's weights; the path sums all nodes at
        # once, so the two agree to n eps sum|terms|
        ll = LimitLaw(PARAMS.eta, LAW)
        path = quadrature_path(ll, 1.0)
        times, weights, _ = pde._analytic_time_rule(1.0)
        rules = [quadrature(ll, float(t)) for t in times]
        assert path.ends.tolist() == [0.5, 1.0]
        assert path.start[0].tolist() == [1.0] and path.start[1].tolist() == [1.0]  # the point mass at t = 0
        assert len(path.integral_x) == sum(len(x) for x, _ in rules[:-1])
        bank = function_bank()
        got = weak_residual(path, bank, PARAMS.eta)
        coeffs = ll.m_lambda * np.exp(0.5 * PARAMS.eta * times)
        for i, g in enumerate(bank):
            lg = _generator(g, PARAMS.eta)
            for j, end in enumerate([pde.TIME_NODES_SQRT + 1, len(times) - 1]):
                pairs = [np.sum(w * lg(x)) for x, w in rules[:end]]
                at_end = np.sum(rules[end][1] * g.f(rules[end][0]))
                want = at_end - 1.0 * g.f(1.0) - weights[:end] @ (coeffs[:end] * pairs)
                terms = sum(tw * c * np.abs(w * lg(x)).sum() for (x, w), tw, c in zip(rules[:end], weights, coeffs))
                terms += np.abs(rules[end][1] * g.f(rules[end][0])).sum() + abs(g.f(1.0))
                n = sum(len(x) for x, _ in rules[: end + 1]) + 1
                assert abs(got[i, j] - want) <= n * 2.0**-52 * terms, (g.name, end)

    @pytest.mark.parametrize("horizon", [0.5, 1.0, 2.0])
    def test_analytic_time_rule(self, horizon):
        times, weights, ends = pde._analytic_time_rule(horizon)
        n_early = pde.TIME_NODES_SQRT
        assert len(times) == n_early + pde.TIME_NODES_LATE + 3
        assert ends.tolist() == [n_early + 1, len(times) - 1]
        assert np.flatnonzero(weights == 0.0).tolist() == [0, *ends]
        assert times[[0, *ends]].tolist() == [0.0, 0.5 * horizon, horizon]
        half, early = 0.5 * horizon, slice(0, n_early + 1)
        # exact for polynomials in sqrt(t) up to degree 2 n_early - 1 on the first
        # panel and in t up to degree 2 TIME_NODES_LATE - 1 on the second
        for p in (0, 1, 2 * n_early - 1):
            got = weights[early] @ times[early] ** (0.5 * p)
            assert got == pytest.approx(half ** (1.0 + 0.5 * p) / (1.0 + 0.5 * p), rel=1e-13)
        for p in (0, 1, 2 * pde.TIME_NODES_LATE - 1):
            got = weights[n_early + 2 :] @ times[n_early + 2 :] ** p
            assert got == pytest.approx((horizon ** (p + 1) - half ** (p + 1)) / (p + 1), rel=1e-13)

    @pytest.mark.parametrize("law", [PointMass(1.0), GammaLaw(2.0, 0.5), UniformLaw(0.5, 1.5)], ids=str)
    def test_doubling_the_time_rule(self, law, monkeypatch):
        # the residual left at 24 + 12 nodes is the panel quadrature's, not the
        # time rule's (DiscreteAtoms((0.5, 0.3), (2.0, 0.7)) moves by 2.4e-7)
        ll = LimitLaw(PARAMS.eta, law)
        bank = function_bank()
        coarse = weak_residual(quadrature_path(ll, 1.0), bank, PARAMS.eta)
        monkeypatch.setattr(pde, "TIME_NODES_SQRT", 2 * pde.TIME_NODES_SQRT)
        monkeypatch.setattr(pde, "TIME_NODES_LATE", 2 * pde.TIME_NODES_LATE)
        fine = weak_residual(quadrature_path(ll, 1.0), bank, PARAMS.eta)
        assert np.abs(fine - coarse).max() <= 1e-7


class TestWeakFormPath:
    SET = (np.array([0.5, 1.0, 2.5]), np.array([0.2, 0.5, 0.3]))
    X = np.linspace(0.1, 4.0, 40)

    @pytest.mark.parametrize(
        "ends, stops, integral_w, match",
        [
            ([], [], [], "end times"),
            ([0.0, 1.0], [SET, SET], [X, X], "end times"),
            ([1.0, 0.5], [SET, SET], [X, X], "end times"),
            ([0.5, 1.0], [SET], [X, X], "one measure and one time integral"),
            ([0.5, 1.0], [SET, SET], [X], "one measure and one time integral"),
            ([1.0], [(np.array([0.25]), np.array([0.5, 0.5]))], [X], "matching"),
            ([1.0], [SET], [np.ones(41)], "prefix"),
        ],
    )
    def test_rejects_bad_sets(self, ends, stops, integral_w, match):
        with pytest.raises(ValueError, match=match):
            WeakFormPath(np.array(ends), self.SET, stops, self.X, integral_w)
