import math
import pickle
import tracemalloc

import numpy as np
import pytest

import vsmhl.particles as particles
from vsmhl.experiments import MOMENT_Z_FIRST, MOMENT_Z_SECOND
from vsmhl import (
    ConfigurationError,
    DegenerateStateError,
    DiscreteAtoms,
    GammaLaw,
    ModelParams,
    ParticlePaths,
    PointMass,
    UniformLaw,
    ValidationError,
    euler_full_truncation,
    moments,
    sample_initial,
    simulate_replications,
    simulate_system,
    split_rng,
)

LAWS = [PointMass(1.0), GammaLaw(2.0, 0.5), UniformLaw(0.5, 1.5), DiscreteAtoms(((0.5, 0.5), (1.5, 0.5)))]


def scalar_scheme(eta: float, y0: np.ndarray, h: float, noise: np.ndarray) -> np.ndarray:
    """Independent N=1 replications of the scheme, vectorized over columns."""
    y = y0.copy()
    for k in range(noise.shape[0]):
        y = np.maximum(y + 0.5 * eta * y * h + y * math.sqrt(h) * noise[k], 0.0)
    return y


def reference_1d_euler(eta: float, y0: np.ndarray, h: float, noise: np.ndarray) -> np.ndarray:
    """The full-truncation step written out on one 1-D state; returns the
    positions, shape (N, n_steps + 1)."""
    n = len(y0)
    states = [np.array(y0, dtype=float)]
    for z in noise:
        y = states[-1]
        s = y.sum()
        drift = (eta / (2.0 * n)) * s * h
        diff = np.sqrt(np.maximum(y, 0.0) * (s / n)) * math.sqrt(h)
        states.append(np.maximum(y + drift + diff * z, 0.0))
    return np.array(states).T


def euler_single_row(eta: float, y0: np.ndarray, h: float, noise: np.ndarray) -> np.ndarray:
    """euler_full_truncation on a single replication, called once per step;
    positions (N, n_steps + 1).  One call over all the steps must end in the
    same state, bit for bit."""
    y, whole = y0[None].copy(), y0[None].copy()
    states = [y0]
    for k in range(len(noise)):
        euler_full_truncation(eta, y, h, noise[None, k : k + 1])
        states.append(y[0].copy())
    euler_full_truncation(eta, whole, h, noise[None])
    assert np.array_equal(whole, y)
    return np.array(states).T


class TestSimulate:
    def test_initial_total_matches_samples_exactly(self):
        params = ModelParams(2.0, 37, 1.0)
        law = GammaLaw(2.0, 0.5)
        paths = simulate_system(params, law, 0.05, split_rng(3))
        y0 = sample_initial(law, 37, split_rng(3))
        assert np.array_equal(paths.positions[:, 0], y0)
        assert paths.totals[0] == y0.sum()

    def test_bit_identical_reruns(self):
        params = ModelParams(2.5, 16, 0.5)
        a = simulate_system(params, PointMass(1.0), 0.01, split_rng(8))
        b = simulate_system(params, PointMass(1.0), 0.01, split_rng(8))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.totals, b.totals)

    def test_nonnegative_even_with_coarse_steps(self):
        params = ModelParams(4.0, 8, 2.0)
        paths = simulate_system(params, GammaLaw(0.5, 1.0), 0.5, split_rng(10))
        assert paths.positions.min() >= 0.0

    def test_grid_spans_horizon(self):
        params = ModelParams(2.0, 4, 0.7)
        paths = simulate_system(params, PointMass(1.0), 0.1, split_rng(0))
        assert paths.time_grid[0] == 0.0
        assert paths.time_grid[-1] == 0.7

    def test_n1_reduces_to_scalar_scheme_bitwise(self):
        params = ModelParams(2.0, 1, 1.0)
        paths = simulate_system(params, PointMass(1.0), 1 / 512, split_rng(5))
        rng = split_rng(5)
        y0 = sample_initial(PointMass(1.0), 1, rng)
        noise = rng.standard_normal((512, 1))
        ref = euler_single_row(2.0, y0, 1 / 512, noise)
        assert np.array_equal(paths.positions, ref)

    def test_n1_gbm_mean(self):
        # at N=1 the scheme is Euler for dY = (eta/2) Y dt + Y dB, whose exact
        # mean at t=1 is e^{eta/2}; 10^4 replications, vectorized columns
        eta, steps, reps = 2.0, 512, 10**4
        rng = split_rng(11)
        noise = rng.standard_normal((steps, reps))
        y = scalar_scheme(eta, np.ones(reps), 1.0 / steps, noise)
        se = y.std(ddof=1) / math.sqrt(reps)
        assert abs(y.mean() - math.e) < 3 * se

    def test_validation_errors_propagate(self):
        with pytest.raises(ValidationError):
            simulate_system(ModelParams(1.0, 4, 1.0), PointMass(1.0), 0.1, split_rng(0))
        with pytest.raises(ValidationError):
            simulate_system(ModelParams(2.0, 4, 1.0), PointMass(0.0), 0.1, split_rng(0))

    def test_dt_bounds(self):
        params = ModelParams(2.0, 4, 1.0)
        with pytest.raises(ValueError):
            simulate_system(params, PointMass(1.0), 0.0, split_rng(0))
        with pytest.raises(ValueError):
            simulate_system(params, PointMass(1.0), 2.0, split_rng(0))

    def test_overflow_guard(self):
        params = ModelParams(2.0, 4, 1000.0)
        with pytest.raises(ConfigurationError, match="horizon"):
            simulate_system(params, PointMass(1.0), 0.1, split_rng(0))

    def test_degenerate_state_error(self):
        with pytest.raises(DegenerateStateError):
            euler_full_truncation(2.0, np.zeros((1, 3)), 0.1, np.zeros((1, 2, 3)))
        # one zero row among live ones stops the batch at that step
        initial = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(DegenerateStateError, match="at step 0$"):
            euler_full_truncation(2.0, initial, 0.1, np.zeros((3, 2, 3)))

    def test_euler_shapes_checked(self):
        with pytest.raises(ValueError, match="shapes"):
            euler_full_truncation(2.0, np.ones((2, 3)), 0.1, np.zeros((3, 2, 3)))
        # each step reads y >= 0 unclipped, so a negative start is refused
        with pytest.raises(ValueError, match="nonnegative"):
            euler_full_truncation(2.0, np.array([[1.0, -1e-300, 3.0]]), 0.1, np.zeros((1, 2, 3)))
        with pytest.raises(ValueError, match="generator"):
            simulate_replications(ModelParams(2.0, 4, 1.0), PointMass(1.0), 0.1, [])


class TestStreaming:
    # at N = 4096 a noise block holds 64 steps: 200 steps run as 64 + 64 + 64 + 8
    N, STEPS = 4096, 200

    def full_run(self, **kw):
        params = ModelParams(2.0, self.N, 1.0)
        return simulate_system(params, GammaLaw(2.0, 0.5), 1.0 / self.STEPS, split_rng(71), **kw)

    def test_every_step_matches_one_full_draw(self):
        block = particles._NOISE_BUDGET // self.N
        assert self.STEPS > 2 * block and self.STEPS % block != 0
        paths = self.full_run()
        rng = split_rng(71)
        y0 = sample_initial(GammaLaw(2.0, 0.5), self.N, rng)
        ref = euler_single_row(2.0, y0, 1.0 / self.STEPS, rng.standard_normal((self.STEPS, self.N)))
        assert np.array_equal(paths.positions, ref)
        assert np.array_equal(paths.totals, [ref[:, k].sum() for k in range(self.STEPS + 1)])
        assert np.array_equal(paths.time_grid, np.linspace(0.0, 1.0, self.STEPS + 1))

    def test_nodes_pick_columns_of_the_full_run(self):
        full = self.full_run()
        nodes = [0, 1, 63, 64, 65, 128, 192, 199, 200]  # both sides of each block edge
        part = self.full_run(nodes=np.array(nodes))
        assert part.positions.shape == (self.N, len(nodes))
        assert np.array_equal(part.positions, full.positions[:, nodes])
        assert np.array_equal(part.totals, full.totals[nodes])
        assert np.array_equal(part.time_grid, full.time_grid[nodes])
        last = self.full_run(nodes=[0, 137])
        assert np.array_equal(last.positions, full.positions[:, [0, 137]])
        assert last.time_grid[-1] == full.time_grid[137]

    def test_degenerate_state_reports_global_step(self):
        # noise that wipes every particle out in step 8, so the total is 0 at
        # step 9, the second step of the third 4-step block
        n = particles._NOISE_BUDGET // 4

        class WipeOut:
            drawn = 0

            def standard_normal(self, out):
                out[:] = 0.0
                out[max(8 - self.drawn, 0):] = -1e6
                self.drawn += len(out)
                return out

        with pytest.raises(DegenerateStateError, match="at step 9$") as info:
            simulate_system(ModelParams(2.0, n, 1.0), PointMass(1.0), 0.1, WipeOut())
        assert info.value.step == 9
        again = pickle.loads(pickle.dumps(info.value))  # as a pool worker sends it
        assert (again.step, str(again)) == (9, str(info.value))
        # the same row in the middle of a batch, stepped one step per block
        rngs = [split_rng(73, 0), WipeOut(), split_rng(73, 2)]
        with pytest.raises(DegenerateStateError, match="at step 9$"):
            simulate_replications(ModelParams(2.0, n, 1.0), PointMass(1.0), 0.1, rngs)

    @pytest.mark.parametrize(
        "nodes",
        [[0, 5, 3], [0, 3, 3], [0, 11], [1, 5], [], [0.0, 1.0]],
        ids=["unsorted", "duplicated", "past-end", "not-from-0", "empty", "float"],
    )
    def test_rejects_bad_nodes(self, nodes):
        with pytest.raises(ValueError, match="nodes"):
            simulate_system(ModelParams(2.0, 4, 1.0), PointMass(1.0), 0.1, split_rng(0), nodes=nodes)

    def test_memory_grows_with_nodes_not_steps(self):
        # 200 steps at N = 20000: the full noise and path arrays are 32 MB each
        params = ModelParams(2.0, 20000, 1.0)
        tracemalloc.start()
        try:
            paths = simulate_system(params, PointMass(1.0), 1 / 200, split_rng(72), nodes=[0, 100, 200])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert paths.positions.shape == (20000, 3)
        assert peak < 8e6

    def test_memory_at_a_hundred_thousand_particles(self):
        # N = 1e5 over 1000 steps keeping 3 nodes: full noise and path arrays
        # would take 800 MB each; one row per chunk is what experiments run
        params = ModelParams(2.0, 100_000, 1.0)
        tracemalloc.start()
        try:
            [paths] = simulate_replications(params, PointMass(1.0), 1e-3, [split_rng(74)], [0, 500, 1000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert paths.positions.shape == (100_000, 3)
        assert peak < 32e6

    def test_memory_holds_no_block_of_states(self):
        # one row of N = 16384 over 100 steps, kept at 3 nodes: the engine
        # holds the noise block (16 steps), the kept states and a few state
        # vectors (the start as drawn and stacked, the stepped state, the
        # diffusion scratch).  A per-block state array, (16 + 1) states, would
        # add 2.2 MB; the bound leaves room for 4 state vectors
        n, steps = 16384, 100
        width = particles._NOISE_BUDGET // n
        assert width == 16
        noise, kept, state = 8 * width * n, 8 * 3 * n, 8 * n
        tracemalloc.start()
        try:
            [paths] = simulate_replications(
                ModelParams(2.0, n, 1.0), PointMass(1.0), 1 / steps, [split_rng(75)], [0, 50, 100]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert paths.positions.shape == (n, 3)
        assert peak < noise + kept + 4 * state


class TestReplications:
    STEPS = 40

    @pytest.mark.parametrize("reps", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 63, 4097])
    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_rows_equal_single_runs(self, monkeypatch, law, n, reps):
        params = ModelParams(2.0, n, 1.0)
        singles = [simulate_system(params, law, 1 / self.STEPS, split_rng(81, n, r)) for r in range(reps)]
        # blocks of 6 steps; nodes on both sides of the block edges at 6 and 12
        monkeypatch.setattr(particles, "_NOISE_BUDGET", 6 * reps * n)
        nodes = [0, 5, 6, 7, 11, 12, 13, self.STEPS]
        rngs = [split_rng(81, n, r) for r in range(reps)]
        rows = simulate_replications(params, law, 1 / self.STEPS, rngs, nodes)
        assert len(rows) == reps
        for row, one in zip(rows, singles):
            assert np.array_equal(row.positions, one.positions[:, nodes])
            assert np.array_equal(row.totals, one.totals[nodes])
            assert np.array_equal(row.time_grid, one.time_grid[nodes])

    @pytest.mark.parametrize("n", [1, 63, 4097])
    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_single_row_is_the_one_dimensional_step(self, law, n):
        paths = simulate_system(ModelParams(2.0, n, 1.0), law, 1 / self.STEPS, split_rng(82))
        rng = split_rng(82)
        y0 = sample_initial(law, n, rng)
        ref = reference_1d_euler(2.0, y0, 1 / self.STEPS, rng.standard_normal((self.STEPS, n)))
        assert np.array_equal(paths.positions, ref)
        assert np.array_equal(paths.totals, [ref[:, k].sum() for k in range(self.STEPS + 1)])


class TestMomentIdentities:
    def test_first_and_second_moment(self):
        # E[S(t)] = E[S(0)] e^{eta t/2}, E[S(t)^2] = E[S(0)^2] e^{(eta+1/N)t}
        eta, n, reps = 2.0, 64, 80
        params = ModelParams(eta, n, 1.0)
        rngs = [split_rng(31, r) for r in range(reps)]
        finals = np.array([p.totals[-1] for p in simulate_replications(params, PointMass(1.0), 2e-3, rngs)])
        target1 = n * math.exp(eta / 2)
        se1 = finals.std(ddof=1) / math.sqrt(reps)
        assert abs(finals.mean() - target1) < 3 * se1
        sq = finals**2
        target2 = (n + n * (n - 1)) * math.exp((eta + 1.0 / n) * 1.0)
        se2 = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - target2) < 4 * se2

    @pytest.mark.parametrize("law", [PointMass(1.0), GammaLaw(2.0, 0.5)], ids=repr)
    def test_discrete_time_oracle(self, law):
        # one Euler step multiplies E[S] by 1 + eta h / 2 and E[S^2] by
        # (1 + eta h / 2)^2 + h / N (the noise adds sum_i Y_i S h / N = S^2 h / N),
        # so after n steps the totals' moments are exact up to truncation at 0,
        # which at eta 2, T 1 does not show.  The continuous targets, exp(eta T / 2)
        # and exp((eta + 1/N) T), are off by the scheme's O(h) bias and fail here
        eta, n, horizon, dt, reps = 2.0, 64, 1.0, 0.05, 4000
        steps = round(horizon / dt)
        m1, m2 = moments(law)
        s0, s0_sq = n * m1, n * m2 + n * (n - 1) * m1 * m1
        rngs = [split_rng(5, r) for r in range(reps)]
        paths = simulate_replications(ModelParams(eta, n, horizon), law, dt, rngs, nodes=[0, steps])
        s = np.array([p.totals[-1] for p in paths])
        discrete = (s0 * (1 + 0.5 * eta * dt) ** steps, s0_sq * ((1 + 0.5 * eta * dt) ** 2 + dt / n) ** steps)
        continuous = (s0 * math.exp(0.5 * eta * horizon), s0_sq * math.exp((eta + 1.0 / n) * horizon))
        for data, exact, limit, tol in zip((s, s * s), discrete, continuous, (MOMENT_Z_FIRST, MOMENT_Z_SECOND)):
            se = data.std(ddof=1) / math.sqrt(reps)
            assert abs(data.mean() - exact) / se <= tol
            assert abs(data.mean() - limit) / se > 4.0


class TestStrongError:
    def test_halving_ratio_band(self):
        # error against the exact geometric solution driven by the same
        # increments decays roughly like sqrt(dt)
        eta, reps = 2.0, 2000
        fine = 10
        n_fine = 2**fine
        rng = split_rng(41)
        increments = rng.standard_normal((n_fine, reps)) * math.sqrt(1.0 / n_fine)
        exact = np.exp((eta / 2 - 0.5) + increments.sum(axis=0))
        errors = {}
        for level in range(6, 11):
            n = 2**level
            agg = increments.reshape(n, n_fine // n, reps).sum(axis=1)
            y = np.ones(reps)
            h = 1.0 / n
            for k in range(n):
                y = np.maximum(y + 0.5 * eta * y * h + y * agg[k], 0.0)
            errors[level] = np.abs(y - exact).mean()
        for level in range(6, 10):
            ratio = errors[level] / errors[level + 1]
            assert 1.2 <= ratio <= 3.0


class TestMeanPath:
    def test_starts_at_initial_mean(self):
        params = ModelParams(2.0, 32, 1.0)
        paths = simulate_system(params, PointMass(1.0), 0.05, split_rng(51))
        assert paths.totals[0] / params.n_particles == 1.0

    def test_supremum_gap_shrinks_with_n(self):
        # the average position tracks e^{eta t / 2} better at larger N
        eta, reps = 2.0, 20
        meds = {}
        for n in (64, 1024):
            sups = []
            rngs = [split_rng(52, n, r) for r in range(reps)]
            for paths in simulate_replications(ModelParams(eta, n, 1.0), PointMass(1.0), 5e-3, rngs):
                curve = np.exp(0.5 * eta * paths.time_grid)
                sups.append(np.abs(paths.totals / n - curve).max())
            meds[n] = np.median(sups)
        assert meds[1024] < meds[64]


class TestLogGrowthDiagnostic:
    def test_smaller_weight_grows_faster(self):
        # start one particle 10x larger; over many replications the smaller
        # particle's average log increment dominates, as the weight-scaled
        # drift (eta - 1) / (2 alpha) predicts
        eta, reps, steps = 4.0, 500, 50
        small_mean, large_mean = [], []
        noise = np.array([split_rng(61, r).standard_normal((steps, 2)) for r in range(reps)])
        y = np.tile([1.0, 10.0], (reps, 1))
        states = [y.copy()]
        for k in range(steps):  # y is stepped in place: copy it after each step
            euler_full_truncation(eta, y, 1e-3, noise[:, k : k + 1])
            states.append(y.copy())
        for positions in np.array(states).transpose(1, 2, 0):  # one (2, steps + 1) path per replication
            if positions.min() <= 0:
                continue
            logs = np.log(positions)
            small_mean.append(np.diff(logs[0]).mean())
            large_mean.append(np.diff(logs[1]).mean())
        assert np.mean(small_mean) > np.mean(large_mean)


class TestParticlePathsInvariants:
    def test_rejects_negative_positions(self):
        grid = np.array([0.0, 1.0])
        positions = np.array([[1.0, -0.1]])
        with pytest.raises(ValueError, match="nonnegative"):
            ParticlePaths(grid, positions)

    def test_rejects_bad_grid(self):
        positions = np.ones((1, 2))
        with pytest.raises(ValueError, match="grid"):
            ParticlePaths(np.array([0.5, 1.0]), positions)
