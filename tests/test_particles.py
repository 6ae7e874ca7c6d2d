import functools
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
# the exact discrete-time moment oracles' run: eta, N, T, dt and replications
ORACLE = (2.0, 64, 1.0, 0.05, 4000)


@functools.cache
def oracle_finals(law, seed: int = 5) -> np.ndarray:
    """The (replications, N) states at T of the oracles' run from law."""
    eta, n, horizon, dt, reps = ORACLE
    rngs = [split_rng(seed, r) for r in range(reps)]
    _, states = simulate_replications(ModelParams(eta, n, horizon), law, dt, rngs, [round(horizon / dt)])
    return states[:, -1]


def scalar_scheme(eta: float, y0: np.ndarray, h: float, noise: np.ndarray) -> np.ndarray:
    """Independent N=1 replications of the scheme, vectorized over columns."""
    y = y0.copy()
    for k in range(noise.shape[0]):
        y = np.maximum(y + 0.5 * eta * y * h + y * math.sqrt(h) * noise[k], 0.0)
    return y


def reference_1d_euler(eta: float, y0: np.ndarray, h: float, noise: np.ndarray) -> np.ndarray:
    """The full-truncation step written out on one 1-D state; returns the
    states, shape (n_steps + 1, N)."""
    n = len(y0)
    states = [np.array(y0, dtype=float)]
    for z in noise:
        y = states[-1]
        s = y.sum()
        drift = (eta / (2.0 * n)) * s * h
        diff = np.sqrt(np.maximum(y, 0.0) * (s / n)) * math.sqrt(h)
        states.append(np.maximum(y + drift + diff * z, 0.0))
    return np.array(states)


def euler_single_row(eta: float, y0: np.ndarray, h: float, noise: np.ndarray) -> np.ndarray:
    """euler_full_truncation on a single replication, called once per step;
    states (n_steps + 1, N).  One call over all the steps must end in the
    same state, bit for bit."""
    y, whole = y0[None].copy(), y0[None].copy()
    states = [y0]
    for k in range(len(noise)):
        euler_full_truncation(eta, y, h, noise[None, k : k + 1])
        states.append(y[0].copy())
    euler_full_truncation(eta, whole, h, noise[None])
    assert np.array_equal(whole, y)
    return np.array(states)


class TestSimulate:
    def test_initial_total_matches_samples_exactly(self):
        params = ModelParams(2.0, 37, 1.0)
        law = GammaLaw(2.0, 0.5)
        _, states = simulate_system(params, law, 0.05, split_rng(3), [0, 20])
        y0 = sample_initial(law, 37, split_rng(3))
        assert np.array_equal(states[0], y0)
        assert states.sum(axis=-1)[0] == y0.sum()

    def test_bit_identical_reruns(self):
        params = ModelParams(2.5, 16, 0.5)
        a = simulate_system(params, PointMass(1.0), 0.01, split_rng(8), np.arange(51))
        b = simulate_system(params, PointMass(1.0), 0.01, split_rng(8), np.arange(51))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_nonnegative_even_with_coarse_steps(self):
        params = ModelParams(4.0, 8, 2.0)
        _, states = simulate_system(params, GammaLaw(0.5, 1.0), 0.5, split_rng(10), np.arange(5))
        assert states.min() >= 0.0

    def test_grid_spans_horizon(self):
        params = ModelParams(2.0, 4, 0.7)
        times, _ = simulate_system(params, PointMass(1.0), 0.1, split_rng(0), [0, 7])
        assert times[0] == 0.0
        assert times[-1] == 0.7

    def test_n1_reduces_to_scalar_scheme_bitwise(self):
        params = ModelParams(2.0, 1, 1.0)
        _, states = simulate_system(params, PointMass(1.0), 1 / 512, split_rng(5), np.arange(513))
        rng = split_rng(5)
        y0 = sample_initial(PointMass(1.0), 1, rng)
        noise = rng.standard_normal((512, 1))
        ref = euler_single_row(2.0, y0, 1 / 512, noise)
        assert np.array_equal(states, ref)

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
            simulate_system(ModelParams(1.0, 4, 1.0), PointMass(1.0), 0.1, split_rng(0), [10])
        with pytest.raises(ValidationError):
            simulate_system(ModelParams(2.0, 4, 1.0), PointMass(0.0), 0.1, split_rng(0), [10])

    def test_dt_bounds(self):
        params = ModelParams(2.0, 4, 1.0)
        with pytest.raises(ValueError):
            simulate_system(params, PointMass(1.0), 0.0, split_rng(0), [1])
        with pytest.raises(ValueError):
            simulate_system(params, PointMass(1.0), 2.0, split_rng(0), [1])

    def test_overflow_guard(self):
        params = ModelParams(2.0, 4, 1000.0)
        with pytest.raises(ConfigurationError, match="horizon"):
            simulate_system(params, PointMass(1.0), 0.1, split_rng(0), [10000])

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
            simulate_replications(ModelParams(2.0, 4, 1.0), PointMass(1.0), 0.1, [], [10])


class TestStreaming:
    # at N = 4096 a noise block holds 64 steps: 200 steps run as 64 + 64 + 64 + 8
    N, STEPS = 4096, 200

    def run(self, nodes):
        params = ModelParams(2.0, self.N, 1.0)
        return simulate_system(params, GammaLaw(2.0, 0.5), 1.0 / self.STEPS, split_rng(71), nodes)

    def test_every_step_matches_one_full_draw(self):
        block = particles._NOISE_BUDGET // self.N
        assert self.STEPS > 2 * block and self.STEPS % block != 0
        times, states = self.run(np.arange(self.STEPS + 1))
        rng = split_rng(71)
        y0 = sample_initial(GammaLaw(2.0, 0.5), self.N, rng)
        ref = euler_single_row(2.0, y0, 1.0 / self.STEPS, rng.standard_normal((self.STEPS, self.N)))
        assert np.array_equal(states, ref)
        # a row sum of the kept states is the 1-D sum of that state
        assert np.array_equal(states.sum(axis=-1), [y.sum() for y in ref])
        assert np.array_equal(times, np.linspace(0.0, 1.0, self.STEPS + 1))

    def test_nodes_pick_rows_of_the_full_run(self):
        full_times, full = self.run(np.arange(self.STEPS + 1))
        for nodes in (
            [0, 1, 63, 64, 65, 128, 192, 199, 200],  # both sides of each block edge
            [0, 137],
            [63, 64, 200],  # step 0 is not kept unless asked for
            [200],
        ):
            times, states = self.run(np.array(nodes))
            assert states.shape == (len(nodes), self.N)
            assert np.array_equal(states, full[nodes])
            assert np.array_equal(times, full_times[nodes])

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
            simulate_system(ModelParams(2.0, n, 1.0), PointMass(1.0), 0.1, WipeOut(), [10])
        assert info.value.step == 9
        again = pickle.loads(pickle.dumps(info.value))  # as a pool worker sends it
        assert (again.step, str(again)) == (9, str(info.value))
        # the same row in the middle of a batch, stepped one step per block
        rngs = [split_rng(73, 0), WipeOut(), split_rng(73, 2)]
        with pytest.raises(DegenerateStateError, match="at step 9$"):
            simulate_replications(ModelParams(2.0, n, 1.0), PointMass(1.0), 0.1, rngs, [10])

    @pytest.mark.parametrize(
        "nodes",
        [[0, 5, 3], [0, 3, 3], [0, 11], [-1, 5], [], [0.0, 1.0], None],
        ids=["unsorted", "duplicated", "past-end", "negative", "empty", "float", "none"],
    )
    def test_rejects_bad_nodes(self, nodes):
        with pytest.raises(ValueError, match="nodes"):
            simulate_system(ModelParams(2.0, 4, 1.0), PointMass(1.0), 0.1, split_rng(0), nodes=nodes)

    def test_memory_grows_with_nodes_not_steps(self):
        # 200 steps at N = 20000: the full noise and path arrays are 32 MB each
        params = ModelParams(2.0, 20000, 1.0)
        tracemalloc.start()
        try:
            _, states = simulate_system(params, PointMass(1.0), 1 / 200, split_rng(72), [0, 100, 200])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.shape == (3, 20000)
        assert peak < 8e6

    def test_memory_at_a_hundred_thousand_particles(self):
        # N = 1e5 over 1000 steps keeping 3 nodes: full noise and path arrays
        # would take 800 MB each; one row per chunk is what experiments run
        params = ModelParams(2.0, 100_000, 1.0)
        tracemalloc.start()
        try:
            _, states = simulate_replications(params, PointMass(1.0), 1e-3, [split_rng(74)], [0, 500, 1000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.shape == (1, 3, 100_000)
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
            _, states = simulate_replications(
                ModelParams(2.0, n, 1.0), PointMass(1.0), 1 / steps, [split_rng(75)], [0, 50, 100]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.shape == (1, 3, n)
        assert peak < noise + kept + 4 * state


class TestReplications:
    STEPS = 40

    @pytest.mark.parametrize("reps", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 63, 4097])
    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_rows_equal_single_runs(self, monkeypatch, law, n, reps):
        params = ModelParams(2.0, n, 1.0)
        every = np.arange(self.STEPS + 1)
        singles = [simulate_system(params, law, 1 / self.STEPS, split_rng(81, n, r), every) for r in range(reps)]
        # blocks of 6 steps; nodes on both sides of the block edges at 6 and 12
        monkeypatch.setattr(particles, "_NOISE_BUDGET", 6 * reps * n)
        nodes = [0, 5, 6, 7, 11, 12, 13, self.STEPS]
        rngs = [split_rng(81, n, r) for r in range(reps)]
        times, states = simulate_replications(params, law, 1 / self.STEPS, rngs, nodes)
        assert states.shape == (reps, len(nodes), n)
        for row, total, (one_times, one) in zip(states, states.sum(axis=-1), singles):
            assert np.array_equal(row, one[nodes])
            assert np.array_equal(total, [y.sum() for y in one[nodes]])
            assert np.array_equal(times, one_times[nodes])

    @pytest.mark.parametrize("n", [1, 63, 4097])
    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_single_row_is_the_one_dimensional_step(self, law, n):
        every = np.arange(self.STEPS + 1)
        _, states = simulate_system(ModelParams(2.0, n, 1.0), law, 1 / self.STEPS, split_rng(82), every)
        rng = split_rng(82)
        y0 = sample_initial(law, n, rng)
        ref = reference_1d_euler(2.0, y0, 1 / self.STEPS, rng.standard_normal((self.STEPS, n)))
        assert np.array_equal(states, ref)
        assert np.array_equal(states.sum(axis=-1), [y.sum() for y in ref])


class TestMomentIdentities:
    def test_first_and_second_moment(self):
        # E[S(t)] = E[S(0)] e^{eta t/2}, E[S(t)^2] = E[S(0)^2] e^{(eta+1/N)t}
        eta, n, reps = 2.0, 64, 80
        params = ModelParams(eta, n, 1.0)
        rngs = [split_rng(31, r) for r in range(reps)]
        _, states = simulate_replications(params, PointMass(1.0), 2e-3, rngs, [500])
        finals = states[:, -1].sum(axis=-1)
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
        eta, n, horizon, dt, reps = ORACLE
        steps = round(horizon / dt)
        m1, m2 = moments(law)
        s0, s0_sq = n * m1, n * m2 + n * (n - 1) * m1 * m1
        s = oracle_finals(law).sum(axis=-1)
        discrete = (s0 * (1 + 0.5 * eta * dt) ** steps, s0_sq * ((1 + 0.5 * eta * dt) ** 2 + dt / n) ** steps)
        continuous = (s0 * math.exp(0.5 * eta * horizon), s0_sq * math.exp((eta + 1.0 / n) * horizon))
        for data, exact, limit, tol in zip((s, s * s), discrete, continuous, (MOMENT_Z_FIRST, MOMENT_Z_SECOND)):
            se = data.std(ddof=1) / math.sqrt(reps)
            assert abs(data.mean() - exact) / se <= tol
            assert abs(data.mean() - limit) / se > 4.0


def third_moment(law) -> float:
    """E Y^3 of one initial position, in closed form."""
    if isinstance(law, GammaLaw):
        return law.shape * (law.shape + 1.0) * (law.shape + 2.0) * law.scale**3
    if isinstance(law, UniformLaw):
        return (law.b**4 - law.a**4) / (4.0 * (law.b - law.a))
    return float(law.weights() @ law.locations() ** 3)


def degree_three_z(law, y: np.ndarray) -> np.ndarray:
    """z of the sample means of (sum Y^3, S sum Y^2, S^3) over the rows of the
    oracles' states y at T against the Euler recursion's exact expectations
    (clipping at 0 left out)."""
    eta, n, horizon, dt, reps = ORACLE
    steps = round(horizon / dt)
    h = horizon / steps
    m1, m2 = moments(law)
    m3 = third_moment(law)
    # one unclipped Gaussian step maps the expectations of (A, B, C) by this matrix
    a, b, g = eta * h / (2 * n), h / n, 1 + eta * h / 2
    step = np.array([
        [1.0, 3 * a + 3 * b, 3 * a * a + n * a**3 + 3 * a * b],
        [0.0, g + 2 * b, g * (2 * a + n * a * a + b) + 2 * a * b],
        [0.0, 0.0, g**3 + 3 * g * b],
    ])
    pairs = n * (n - 1) * m1 * m2
    start = np.array([n * m3, n * m3 + pairs, n * m3 + 3 * pairs + n * (n - 1) * (n - 2) * m1**3])
    exact = np.linalg.matrix_power(step, steps) @ start
    s = y.sum(axis=-1)
    data = np.stack([(y**3).sum(axis=-1), s * (y * y).sum(axis=-1), s**3])
    return (data.mean(axis=1) - exact) / (data.std(axis=1, ddof=1) / math.sqrt(reps))


class TestDegreeThreeOracle:
    # S = sum Y_i alone cannot see how the engine splits drift and noise
    # among the particles: a drift of (eta / 2) Y_i h in place of
    # (eta / 2N) S h keeps E S and moves E S^2 too little to fail
    # test_discrete_time_oracle, and its z on sum Y^3 here is +67 to +74.
    # Over seeds 0-199 no (law, seed) of the engine exceeds the bound (worst
    # |z| 3.6)
    Z_BOUND = 4.0

    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_third_moments_follow_the_euler_recursion(self, law):
        z = degree_three_z(law, oracle_finals(law))
        assert np.all(np.abs(z) <= self.Z_BOUND), z


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
        _, states = simulate_system(params, PointMass(1.0), 0.05, split_rng(51), [0])
        assert states.sum(axis=-1)[0] / params.n_particles == 1.0

    def test_supremum_gap_shrinks_with_n(self):
        # the average position tracks e^{eta t / 2} better at larger N
        eta, reps = 2.0, 20
        meds = {}
        for n in (64, 1024):
            rngs = [split_rng(52, n, r) for r in range(reps)]
            times, states = simulate_replications(ModelParams(eta, n, 1.0), PointMass(1.0), 5e-3, rngs, np.arange(201))
            sups = np.abs(states.sum(axis=-1) / n - np.exp(0.5 * eta * times)).max(axis=1)
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

