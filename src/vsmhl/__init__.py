"""Volatility-stabilized market particle system and its hydrodynamic limit.

Simulates the N-particle system on the slowed-down clock, evaluates the
explicit limit law (time-changed squared Bessel marginals), solves the
limiting degenerate forward PDE, and measures how fast empirical measure
paths approach the limit.
"""

__version__ = "0.1.0"

# perfbench/child.py reads sys.modules["scipy"].__version__ after every run,
# and no other module imports scipy at its top: without this line a run that
# loads no scipy subpackage would end in a KeyError
import scipy  # noqa: F401

from .errors import (
    ConfigurationError,
    DegenerateStateError,
    GridMismatchError,
    ValidationError,
)
from .model import (
    DiscreteAtoms,
    GammaLaw,
    InitialLaw,
    ModelParams,
    PointMass,
    UniformLaw,
    law_from_dict,
    law_to_dict,
    moments,
    sample_initial,
    split_rng,
)
from .bessel import log_modified_bessel_i
from .limit import (
    LimitLaw,
    cdf,
    density,
    density_grid,
    mean,
    quadrature,
    quantile,
    sample,
    time_change,
)
from .particles import (
    euler_full_truncation,
    simulate_replications,
    simulate_system,
)
from .measures import (
    Measure1D,
    MeasurePath,
    empirical,
    levy,
    ranked_vs_limit,
    sup_distance,
    wasserstein1,
)
from .pde import (
    DensityTrajectory,
    SolverGrid,
    TestFunction,
    WeakFormPath,
    mollified_start_law,
    quadrature_path,
    solve,
    test_function_bank,
    weak_residual,
)
from .experiments import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    write_results,
)
