import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import gamma as gamma_dist

from vsmhl import (
    DiscreteAtoms,
    GammaLaw,
    ModelParams,
    PointMass,
    UniformLaw,
    ValidationError,
    law_from_dict,
    law_to_dict,
    moments,
    sample_initial,
    split_rng,
)

ALL_LAWS = [
    PointMass(2.0),
    GammaLaw(2.0, 0.5),
    UniformLaw(0.0, 2.0),
    DiscreteAtoms(((0.0, 0.25), (1.0, 0.5), (4.0, 0.25))),
]


class TestMoments:
    def test_point_mass(self):
        assert moments(PointMass(1.0)) == (1.0, 1.0)

    def test_gamma_closed_form_vs_quadrature(self):
        m1, m2 = moments(GammaLaw(2.0, 0.5))
        assert m1 == pytest.approx(1.0, abs=1e-14)
        assert m2 == pytest.approx(1.5, abs=1e-14)
        q1 = quad(lambda x: x * gamma_dist.pdf(x, 2.0, scale=0.5), 0, np.inf)[0]
        q2 = quad(lambda x: x * x * gamma_dist.pdf(x, 2.0, scale=0.5), 0, np.inf)[0]
        assert m1 == pytest.approx(q1, rel=1e-10)
        assert m2 == pytest.approx(q2, rel=1e-10)

    def test_uniform_closed_form_vs_quadrature(self):
        m1, m2 = moments(UniformLaw(0.0, 2.0))
        assert m1 == pytest.approx(1.0, abs=1e-14)
        assert m2 == pytest.approx(4.0 / 3.0, abs=1e-14)
        q2 = quad(lambda x: x * x / 2.0, 0.0, 2.0)[0]
        assert m2 == pytest.approx(q2, rel=1e-12)

    def test_atoms(self):
        m1, m2 = moments(DiscreteAtoms(((1.0, 0.5), (3.0, 0.5))))
        assert m1 == 2.0
        assert m2 == 5.0

    def test_rejects_invalid_law(self):
        with pytest.raises(ValidationError, match="m_lambda"):
            PointMass(0.0)
        with pytest.raises(ValidationError, match="support"):
            UniformLaw(-1.0, 2.0)


class TestSampling:
    def test_point_mass_is_constant(self):
        out = sample_initial(PointMass(2.0), 3, split_rng(0))
        assert np.array_equal(out, [2.0, 2.0, 2.0])

    def test_one_atom_draws_nothing(self):
        rng = split_rng(0)
        before = rng.bit_generator.state
        out = sample_initial(DiscreteAtoms(((2.0, 1.0),)), 3, rng)
        assert np.array_equal(out, [2.0, 2.0, 2.0])
        assert rng.bit_generator.state == before

    def test_gamma_lln_mean(self):
        draws = sample_initial(GammaLaw(2.0, 0.5), 10**5, split_rng(1))
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.0) < 3 * se

    def test_uniform_lln_second_moment(self):
        draws = sample_initial(UniformLaw(0.0, 2.0), 10**5, split_rng(2))
        sq = draws**2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - 4.0 / 3.0) < 3 * se

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__)
    def test_monte_carlo_matches_moments(self, law):
        m1, m2 = moments(law)
        draws = sample_initial(law, 10**6, split_rng(3))
        for data, target in ((draws, m1), (draws**2, m2)):
            se = data.std(ddof=1) / math.sqrt(len(data))
            assert abs(data.mean() - target) < max(4 * se, 1e-12)

    def test_deterministic_per_seed(self):
        a = sample_initial(GammaLaw(2.0, 0.5), 100, split_rng(9, 1))
        b = sample_initial(GammaLaw(2.0, 0.5), 100, split_rng(9, 1))
        assert np.array_equal(a, b)

    def test_nonnegative_support(self):
        for law in ALL_LAWS:
            assert sample_initial(law, 1000, split_rng(4)).min() >= 0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample_initial(PointMass(1.0), 0, split_rng(0))


class TestValidate:
    def test_ok(self):
        assert ModelParams(2.0, 10, 1.0) == ModelParams(2, 10, 1)
        assert type(ModelParams(2, 10, 1).eta) is float
        # numpy reals are numbers too, stored as floats
        assert ModelParams(np.float32(2.0), 10, np.int64(1)) == ModelParams(2.0, 10, 1.0)
        assert PointMass(np.float32(1.5)).atoms == ((1.5, 1.0),)

    def test_eta_boundary(self):
        with pytest.raises(ValidationError) as info:
            ModelParams(1.0, 10, 1.0)
        assert info.value.args == ("eta must exceed 1",)

    def test_degenerate_point_mass(self):
        with pytest.raises(ValidationError, match="m_lambda must be positive"):
            PointMass(0.0)

    def test_point_mass_is_one_atom(self):
        law = PointMass(2.0)
        assert isinstance(law, DiscreteAtoms) and law.atoms == ((2.0, 1.0),)
        with pytest.raises(ValidationError) as info:
            PointMass(-1.0)
        assert info.value.args == ("atom locations must be nonnegative",)
        with pytest.raises(ValidationError) as info:
            PointMass(math.nan)
        assert info.value.args == ("x0 must be a finite number, got nan",)

    def test_collects_every_violation(self):
        with pytest.raises(ValidationError) as params:
            ModelParams(0.5, 0, -1.0)
        with pytest.raises(ValidationError) as law:
            UniformLaw(-1.0, -2.0)
        assert len(params.value.args) == 3 and len(law.value.args) == 2
        assert str(law.value) == "uniform support must be contained in [0, inf); uniform law requires a < b"

    def test_atom_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            DiscreteAtoms(((1.0, 0.6), (2.0, 0.5)))

    def test_errors_pickle_with_their_violations(self):
        import pickle

        with pytest.raises(ValidationError) as info:
            ModelParams(0.5, 0, -1.0)
        again = pickle.loads(pickle.dumps(info.value))
        assert type(again) is ValidationError and again.args == info.value.args
        assert str(again) == str(info.value)


class TestSerialization:
    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__)
    def test_round_trip(self, law):
        assert law_from_dict(law_to_dict(law)) == law

    def test_point_mass_keeps_its_tag(self):
        assert law_to_dict(PointMass(2.0)) == {"type": "point_mass", "x0": 2.0}
        law = law_from_dict({"type": "point_mass", "x0": 2})
        assert type(law) is PointMass and law.x0 == 2.0 and repr(law) == "PointMass(x0=2.0)"
        assert law_to_dict(law) == {"type": "point_mass", "x0": 2.0}

    def test_example_schema(self):
        law = law_from_dict({"type": "gamma", "shape": 2, "scale": 0.5})
        assert law == GammaLaw(2.0, 0.5)

    def test_malformed(self):
        with pytest.raises(ValidationError):
            law_from_dict({"type": "gamma", "shape": 2})
        with pytest.raises(ValidationError):
            law_from_dict({"shape": 2})
        with pytest.raises(ValidationError):
            law_from_dict({"type": "cauchy"})

    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: type(l).__name__)
    def test_unknown_key_rejected(self, law):
        spec = dict(law_to_dict(law), scael=0.5)
        with pytest.raises(ValidationError, match="scael"):
            law_from_dict(spec)


class TestSplitRng:
    def test_reproducible(self):
        assert split_rng(7, 3, 1).standard_normal(4).tolist() == split_rng(7, 3, 1).standard_normal(4).tolist()

    def test_keys_are_independent_streams(self):
        a = split_rng(7, 0).standard_normal(8)
        b = split_rng(7, 1).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_adding_keys_never_perturbs_existing(self):
        # stream for key (64, 2) is the same whatever other keys get used
        before = split_rng(5, 64, 2).standard_normal(4)
        split_rng(5, 64, 3).standard_normal(4)
        split_rng(5, 128, 0).standard_normal(4)
        assert np.array_equal(before, split_rng(5, 64, 2).standard_normal(4))
