"""One wording per check: every field of the six checked types refuses a bad
value with the same message whether the value is given in Python or read
from a JSON config, and the CLI prints that message and exits 2.

Each row names the type (a law by its JSON tag), the fields it sets and the
message the bad value raises.  A row of type "config" sets fields of the
ExperimentConfig itself; its other rows start from one valid object of their
type inside a valid config.
"""

import json
import math
from dataclasses import asdict

import pytest

from vsmhl import (
    ConfigurationError,
    DiscreteAtoms,
    ExperimentConfig,
    GammaLaw,
    ModelParams,
    PointMass,
    SolverGrid,
    UniformLaw,
    ValidationError,
    law_to_dict,
)
from vsmhl.cli import main

TYPES = {
    "params": ModelParams,
    "gamma": GammaLaw,
    "uniform": UniformLaw,
    "atoms": DiscreteAtoms,
    "point_mass": PointMass,
    "grid": SolverGrid,
}
VALID = {
    "params": {"eta": 2.0, "n_particles": 16, "horizon": 1.0},
    "gamma": {"shape": 2.0, "scale": 0.5},
    "uniform": {"a": 0.5, "b": 1.5},
    "atoms": {"atoms": ((0.5, 0.5), (1.5, 0.5))},
    "point_mass": {"x0": 1.0},
    "grid": {"x_max": 30.0, "nx": 100, "nt": 100},
}
CONFIG = {
    "experiment": "convergence",
    "dt": 0.02,
    "n_values": (16, 64),
    "replications": 3,
    "seed": 99,
}

ROWS = [
    ("params", {"eta": "2.0"}, "eta must be a finite number, got '2.0'"),
    ("params", {"eta": True}, "eta must be a finite number, got True"),
    ("params", {"eta": math.nan}, "eta must be a finite number, got nan"),
    ("params", {"eta": math.inf}, "eta must be a finite number, got inf"),
    ("params", {"eta": 1.0}, "eta must exceed 1"),
    ("params", {"n_particles": 64.9}, "n_particles must be a positive integer, got 64.9"),
    ("params", {"n_particles": 8.0}, "n_particles must be a positive integer, got 8.0"),
    ("params", {"n_particles": "16"}, "n_particles must be a positive integer, got '16'"),
    ("params", {"n_particles": 0}, "n_particles must be a positive integer, got 0"),
    ("params", {"horizon": True}, "horizon must be a finite number, got True"),
    ("params", {"horizon": None}, "horizon must be a finite number, got None"),
    ("params", {"horizon": math.inf}, "horizon must be a finite number, got inf"),
    ("params", {"horizon": math.nan}, "horizon must be a finite number, got nan"),
    ("params", {"horizon": -1.0}, "horizon must be positive"),
    ("gamma", {"shape": "2"}, "shape must be a finite number, got '2'"),
    ("gamma", {"shape": math.inf}, "shape must be a finite number, got inf"),
    ("gamma", {"shape": 0.0}, "gamma shape must be positive"),
    ("gamma", {"scale": math.nan}, "scale must be a finite number, got nan"),
    ("gamma", {"scale": -0.5}, "gamma scale must be positive"),
    ("uniform", {"a": math.nan}, "a must be a finite number, got nan"),
    ("uniform", {"a": -1.0}, "uniform support must be contained in [0, inf)"),
    ("uniform", {"b": True}, "b must be a finite number, got True"),
    ("uniform", {"b": math.inf}, "b must be a finite number, got inf"),
    ("uniform", {"b": 0.5}, "uniform law requires a < b"),
    ("atoms", {"atoms": ((1.0, 0.5), ("2.0", 0.5))}, "atoms[1] must be a finite number, got '2.0'"),
    ("atoms", {"atoms": ((1.0, 0.5), (2.0, True))}, "atoms[1] must be a finite number, got True"),
    ("atoms", {"atoms": ((1.0, 0.5), (math.inf, 0.5))}, "atoms[1] must be a finite number, got inf"),
    ("atoms", {"atoms": ((1.0, math.nan), (2.0, 0.5))}, "atoms[0] must be a finite number, got nan"),
    ("atoms", {"atoms": ((-math.inf, 1.0),)}, "atoms[0] must be a finite number, got -inf"),
    ("atoms", {"atoms": ((1.0, 0.6), (2.0, 0.5))}, "atom weights must sum to 1"),
    ("atoms", {"atoms": ((1.0, 1.5), (2.0, -0.5))}, "atom weights must be positive"),
    ("atoms", {"atoms": ((0.0, 1.0),)}, "m_lambda must be positive"),
    ("atoms", {"atoms": ()}, "atom list must be nonempty"),
    ("atoms", {"atoms": [[1.0]]}, "atoms must be (location, weight) pairs, got [[1.0]]"),
    ("point_mass", {"x0": "1"}, "x0 must be a finite number, got '1'"),
    ("point_mass", {"x0": False}, "x0 must be a finite number, got False"),
    ("point_mass", {"x0": math.nan}, "x0 must be a finite number, got nan"),
    ("point_mass", {"x0": math.inf}, "x0 must be a finite number, got inf"),
    ("point_mass", {"x0": -1.0}, "atom locations must be nonnegative"),
    ("point_mass", {"x0": 0.0}, "m_lambda must be positive"),
    ("grid", {"x_max": "30"}, "x_max must be a finite number, got '30'"),
    ("grid", {"x_max": [30.0]}, "x_max must be a finite number, got [30.0]"),
    ("grid", {"x_max": math.inf}, "x_max must be a finite number, got inf"),
    ("grid", {"x_max": -1.0}, "x_max must be positive, got -1.0"),
    ("grid", {"nx": 100.0}, "nx must be an integer of at least 16, got 100.0"),
    ("grid", {"nx": 100.5}, "nx must be an integer of at least 16, got 100.5"),
    ("grid", {"nx": 8}, "nx must be an integer of at least 16, got 8"),
    ("grid", {"nt": "100"}, "nt must be an integer of at least 16, got '100'"),
    ("grid", {"nt": 200.0}, "nt must be an integer of at least 16, got 200.0"),
    ("config", {"experiment": "cauchy"}, "unknown experiment 'cauchy'"),
    ("config", {"dt": "0.5"}, "dt must be a finite number, got '0.5'"),
    ("config", {"dt": 10**400}, f"dt must be a finite number, got {10**400!r}"),
    ("config", {"dt": 0.0}, "dt must lie in (0, horizon]"),
    ("config", {"dt": 2.0}, "dt must lie in (0, horizon]"),
    ("config", {"n_values": (16.7, 64.2)}, "n_values must be integers, got [16.7, 64.2]"),
    ("config", {"n_values": ("16", "64")}, "n_values must be integers, got ['16', '64']"),
    ("config", {"n_values": (16, 64.0)}, "n_values must be integers, got [16, 64.0]"),
    ("config", {"n_values": 16}, "n_values must be integers, got 16"),
    ("config", {"n_values": (64, 16)}, "n_values must be strictly increasing positive integers"),
    ("config", {"n_values": ()}, "convergence needs a nonempty n_values list"),
    ("config", {"replications": 2.9}, "replications must be an integer, got 2.9"),
    ("config", {"replications": 2.5}, "replications must be an integer, got 2.5"),
    ("config", {"experiment": "moment_check", "replications": 2.5}, "replications must be an integer, got 2.5"),
    ("config", {"replications": True}, "replications must be an integer, got True"),
    ("config", {"replications": 0}, "replications must be at least 1"),
    (
        "config",
        {"experiment": "moment_check", "replications": 1},
        "moment_check needs at least 2 replications: a standard error needs two",
    ),
    ("config", {"seed": 3.5}, "seed must be a 64-bit unsigned integer, got 3.5"),
    ("config", {"seed": 1.0}, "seed must be a 64-bit unsigned integer, got 1.0"),
    ("config", {"seed": -1}, "seed must be a 64-bit unsigned integer, got -1"),
    ("config", {"seed": 2**64}, f"seed must be a 64-bit unsigned integer, got {2**64}"),
    ("config", {"output_dir": 5}, "output_dir must be a string, got 5"),
    ("config", {"metric": "hausdorff"}, "unknown metric 'hausdorff'"),
    ("config", {"experiment": "pde_check", "grid": None}, "pde_check needs a grid"),
    (
        "config",
        {"params": ModelParams(2.0, 4, 700.0)},
        "expected total grows past float range over this horizon; shrink horizon or eta",
    ),
    ("config", {"law": UniformLaw(1.0, 1.0 + 1e-11)}, "uniform law too narrow for the horizon"),
    ("config", {"params": ModelParams(42.0, 16, 0.1)}, "eta = 42.0 exceeds 41"),
]


def row_id(row) -> str:
    kind, fields, _ = row
    return f"{kind}:" + ",".join(f"{k}={v!r}" for k, v in fields.items())


def json_value(value):
    if isinstance(value, (ModelParams, SolverGrid)):
        return asdict(value)
    if isinstance(value, (GammaLaw, UniformLaw, DiscreteAtoms)):
        return law_to_dict(value)
    return value


def build_python(kind: str, fields: dict):
    """The object the row describes, built in Python."""
    if kind != "config":
        return TYPES[kind](**VALID[kind] | fields)
    base = CONFIG | {"params": ModelParams(**VALID["params"]), "law": PointMass(1.0)}
    return ExperimentConfig(**base | {"grid": SolverGrid(**VALID["grid"])} | fields)


def json_spec(kind: str, fields: dict) -> dict:
    """The config holding the row's bad value, as a JSON file reads back."""
    spec = CONFIG | {"params": VALID["params"], "law": {"type": "point_mass", "x0": 1.0}, "grid": VALID["grid"]}
    if kind == "config":
        spec |= {key: json_value(value) for key, value in fields.items()}
    elif kind in ("params", "grid"):
        spec[kind] = VALID[kind] | fields
    else:
        spec["law"] = {"type": kind, **VALID[kind], **fields}
    return json.loads(json.dumps(spec))


@pytest.mark.parametrize("kind, fields, message", ROWS, ids=[row_id(r) for r in ROWS])
def test_bad_field_one_message(tmp_path, capsys, monkeypatch, kind, fields, message):
    with pytest.raises((ValidationError, ConfigurationError)) as built:
        build_python(kind, fields)
    spec = json_spec(kind, fields)
    with pytest.raises((ValidationError, ConfigurationError)) as read:
        ExperimentConfig.from_dict(spec)
    assert type(read.value) is type(built.value)
    assert read.value.args == built.value.args
    assert any(v.startswith(message) for v in built.value.args), built.value.args
    # no --output-dir, so the run would write where the config says or to ./vsmhl_out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(spec))
    assert main(["run", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert err == "".join(f"config error: {v}\n" for v in built.value.args)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_every_field_has_a_row():
    named = {(kind, name) for kind, fields, _ in ROWS for name in fields}
    for kind in TYPES:
        assert {(kind, name) for name in VALID[kind]} <= named
    config_fields = set(ExperimentConfig.__dataclass_fields__)
    assert {name for kind, name in named if kind == "config"} == config_fields
