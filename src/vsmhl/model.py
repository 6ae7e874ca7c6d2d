"""Model parameters and initial laws.

The particle system is parametrized by a growth/dimension parameter ``eta``
(strictly greater than 1), a particle count ``N`` and a horizon ``T`` on the
slowed-down clock.  Initial positions are drawn i.i.d. from a law on [0, inf)
with finite first two moments and strictly positive mean; four analytically
tractable families are supported so every experiment has closed-form moments
to check against.

Each of these objects checks its fields when it is built and raises
ValidationError listing every violated one, so an object that exists is
valid and no function checks it again.  While a float field is not a finite
number, the range checks on the object's floats are skipped: they would pass
a NaN in silence or misread it.  Float fields are stored as floats, so a
JSON ``2`` reads as ``2.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np
import scipy

from .errors import ValidationError

__all__ = [
    "ModelParams",
    "PointMass",
    "GammaLaw",
    "UniformLaw",
    "DiscreteAtoms",
    "InitialLaw",
    "moments",
    "sample_initial",
    "law_to_dict",
    "law_from_dict",
    "reject_unknown_keys",
    "split_rng",
]

ATOM_WEIGHT_TOL = 1e-12


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite real number (numpy's included); a boolean, a string or a NaN is not one."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past float range
        return False


def _floats(obj, *names: str) -> list[str]:
    """Store each named field of the frozen dataclass obj as a float; one
    message per field that is not a finite number."""
    out = []
    for name in names:
        value = getattr(obj, name)
        if _is_number(value):
            object.__setattr__(obj, name, float(value))
        else:
            out.append(f"{name} must be a finite number, got {value!r}")
    return out


def split_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the worker identified by an integer key path.

    Keys address streams directly (not sequentially), so adding replications
    or N values never perturbs the draws of existing ones.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class ModelParams:
    """Triple (eta, N, T) driving a simulation or limit computation."""

    eta: float
    n_particles: int
    horizon: float

    def __post_init__(self):
        out = _floats(self, "eta", "horizon")
        if not out:
            if not self.eta > 1.0:
                out.append("eta must exceed 1")
            if not self.horizon > 0.0:
                out.append("horizon must be positive")
        if not (_is_integer(self.n_particles) and self.n_particles >= 1):
            out.append(f"n_particles must be a positive integer, got {self.n_particles!r}")
        if out:
            raise ValidationError(*out)


@dataclass(frozen=True)
class GammaLaw:
    """Gamma(shape k, scale theta), mean k*theta; pdf, cdf and ppf are scipy.stats.gamma's."""

    shape: float
    scale: float

    def __post_init__(self):
        out = _floats(self, "shape", "scale")
        if not out:
            out = [f"gamma {name} must be positive" for name in ("shape", "scale") if not getattr(self, name) > 0]
        if out:
            raise ValidationError(*out)

    def pdf(self, x) -> np.ndarray:
        z = np.asarray(x, dtype=float) / self.scale
        log_pdf = scipy.special.xlogy(self.shape - 1.0, z) - z - scipy.special.gammaln(self.shape)
        return np.exp(log_pdf) / self.scale

    def cdf(self, x) -> np.ndarray:
        return scipy.special.gammainc(self.shape, np.asarray(x, dtype=float) / self.scale)

    def ppf(self, q) -> float:
        return float(scipy.special.gammaincinv(self.shape, q) * self.scale)


@dataclass(frozen=True)
class UniformLaw:
    """Uniform on [a, b] with 0 <= a < b."""

    a: float
    b: float

    def __post_init__(self):
        out = _floats(self, "a", "b")
        if not out:
            if self.a < 0:
                out.append("uniform support must be contained in [0, inf)")
            if not self.a < self.b:
                out.append("uniform law requires a < b")
        if out:
            raise ValidationError(*out)


@dataclass(frozen=True)
class DiscreteAtoms:
    """Finitely many atoms ((location, weight), ...); weights sum to 1."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        try:
            atoms = tuple((loc, w) for loc, w in self.atoms)
        except (TypeError, ValueError):
            raise ValidationError(f"atoms must be (location, weight) pairs, got {self.atoms!r}") from None
        if not atoms:
            raise ValidationError("atom list must be nonempty")
        out = [
            f"{'x0' if isinstance(self, PointMass) else f'atoms[{i}]'} must be a finite number, got {v!r}"
            for i, atom in enumerate(atoms)
            for v in atom
            if not _is_number(v)
        ]
        if not out:
            object.__setattr__(self, "atoms", tuple((float(loc), float(w)) for loc, w in atoms))
            locs, wts = self.locations(), self.weights()
            if np.any(locs < 0):
                out.append("atom locations must be nonnegative")
            if np.any(wts <= 0):
                out.append("atom weights must be positive")
            if abs(wts.sum() - 1.0) > ATOM_WEIGHT_TOL:
                out.append("atom weights must sum to 1")
            if not out and float(wts @ locs) <= 0:
                out.append("m_lambda must be positive")
        if out:
            raise ValidationError(*out)

    def locations(self) -> np.ndarray:
        return np.array([a[0] for a in self.atoms], dtype=float)

    def weights(self) -> np.ndarray:
        return np.array([a[1] for a in self.atoms], dtype=float)


class PointMass(DiscreteAtoms):
    """Unit mass at a single point x0 >= 0: the one-atom DiscreteAtoms."""

    def __init__(self, x0: float):
        super().__init__(((x0, 1.0),))

    @property
    def x0(self) -> float:
        return self.atoms[0][0]

    def __repr__(self) -> str:
        return f"PointMass(x0={self.x0!r})"


InitialLaw = GammaLaw | UniformLaw | DiscreteAtoms  # PointMass is a DiscreteAtoms


def _param_names(cls) -> list[str]:
    """The parameters a law's JSON form names: x0 for a point mass."""
    return ["x0"] if issubclass(cls, PointMass) else [f.name for f in fields(cls)]


def moments(law: InitialLaw) -> tuple[float, float]:
    """Closed-form first and second moments (m1, m2) of the law."""
    if isinstance(law, GammaLaw):
        k, th = law.shape, law.scale
        return k * th, k * (k + 1.0) * th**2
    if isinstance(law, UniformLaw):
        a, b = law.a, law.b
        return 0.5 * (a + b), (a * a + a * b + b * b) / 3.0
    locs, wts = law.locations(), law.weights()
    return float(wts @ locs), float(wts @ locs**2)


def sample_initial(law: InitialLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. initial positions from the law.

    Deterministic for a fixed generator state; callers that need independent
    streams should hand each call its own spawned generator.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(law, GammaLaw):
        return rng.gamma(law.shape, law.scale, size=n)
    if isinstance(law, UniformLaw):
        return rng.uniform(law.a, law.b, size=n)
    if len(law.atoms) == 1:  # no draw: the generator is left as it was
        return np.full(n, law.locations()[0])
    return rng.choice(law.locations(), size=n, p=law.weights())


_LAW_TAGS = {
    PointMass: "point_mass",
    GammaLaw: "gamma",
    UniformLaw: "uniform",
    DiscreteAtoms: "atoms",
}


def law_to_dict(law: InitialLaw) -> dict:
    """JSON-ready dict encoding (tag plus parameters)."""
    tag = _LAW_TAGS.get(type(law))
    if tag is None:
        raise ValidationError(f"unknown initial law type {type(law).__name__}")
    if tag == "atoms":
        return {"type": tag, "atoms": [[loc, w] for loc, w in law.atoms]}
    return {"type": tag, **{name: getattr(law, name) for name in _param_names(type(law))}}


def reject_unknown_keys(spec: dict, known, where: str) -> None:
    """Raise ValidationError if spec is not a dict (a JSON object), or naming
    every key of spec that is not in known."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{where} must be a JSON object, got {spec!r}")
    unknown = sorted(str(key) for key in set(spec) - set(known))
    if unknown:
        raise ValidationError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def law_from_dict(spec: dict) -> InitialLaw:
    """Inverse of law_to_dict; raises ValidationError on malformed input."""
    try:
        tag = spec["type"]
    except (TypeError, KeyError):
        raise ValidationError("initial law dict needs a 'type' tag") from None
    cls = next((c for c, known in _LAW_TAGS.items() if known == tag), None)
    if cls is None:
        raise ValidationError(f"unknown initial law type tag {tag!r}")
    names = _param_names(cls)
    reject_unknown_keys(spec, ["type", *names], f"'{tag}' law")
    try:
        values = [spec[name] for name in names]
    except KeyError as exc:
        raise ValidationError(f"malformed '{tag}' law: {exc}") from None
    return cls(*values)
