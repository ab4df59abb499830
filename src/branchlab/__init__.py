"""branchlab: Monte Carlo laboratory for critical age-dependent branching
Markov processes, their genealogies, and their measure-valued scaling limit."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    Brownian,
    Deterministic,
    Exponential,
    Gamma,
    ModelSpec,
    MotionLaw,
    OffspringLaw,
    UniformLifetime,
    ValidatedModel,
    binary_exponential_model,
    limit_age_cdf,
    parse_model_config,
    validate_model,
)
from .rng import RandomStream, stream  # noqa: F401
