"""Scaled particle systems approaching the measure-valued diffusion limit.

The scaled system at level n keeps exponential(lam) lifetimes, shrinks the
motion variance by 1/n, starts from a Poisson field of n*|nu| particles, and
assigns every particle weight 1/n.  Offspring come from a critical law whose
generating function satisfies n^2(F(1-u/n) - (1-u/n)) -> u^2, which pins the
offspring variance at 2 and makes the limiting log-Laplace equation's
quadratic nonlinearity carry coefficient lam exactly.  Fields are drawn a
batch at a time from key arrays, each a pure function of its own key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtri, pdtr, pdtrik

from .engine import CapExceeded, simulate_fields
from .model import (
    Brownian,
    ConfigError,
    Exponential,
    ModelSpec,
    OffspringLaw,
    ValidatedModel,
    validate_model,
)
from .rng import RandomStream, derive_key, uniform_at
from .stats import Estimate

EPSILON = 0.01  # smallest macroscopic time scaled_fields accepts
_FIELD_BATCH = 64  # fields simulated together; results do not depend on it
_ASF_GRID = 1000  # points of asf_error's grid on [0, N]


class NTooSmall(ConfigError):
    pass


class InfiniteMass(ConfigError):
    pass


def near_critical_family(n: int) -> OffspringLaw:
    """Offspring law for the scaled system at level n.

    Branch into 0 or 3 with probabilities (2/3, 1/3): critical with variance
    2, the unique minimal-support law with F(s) - s = (1-s)^2 (s+2)/3, so
    n^2 (F(1-u/n) - (1-u/n)) - u^2 = -u^3/(3n) vanishes as n grows.  No
    probability generating function can make that error vanish identically
    (F(s) = s + (1-s)^2 has a negative coefficient), so exact variance 2 at
    every n is the strongest attainable normalization.
    """
    if n < 2:
        raise NTooSmall(f"scaling level n must be >= 2, got {n}")
    return OffspringLaw((2.0 / 3.0, 0.0, 0.0, 1.0 / 3.0))


def asf_error(offspring: OffspringLaw, n: int, N: float) -> float:
    """sup over u in [0, N] of |n^2 (F(1 - u/n) - (1 - u/n)) - u^2|.

    Evaluated on a uniform grid; N = 0 degenerates to the single point u = 0
    where F(1) - 1 = 0.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    u = np.linspace(0.0, float(N), _ASF_GRID if N > 0 else 1)
    s = 1.0 - u / n
    err = n**2 * (offspring.generating_function(s) - s) - u**2
    return float(np.max(np.abs(err)))


@dataclass(frozen=True)
class Intensity:
    """Product initial intensity with a finite total mass: Exp(1) ages times
    standard normal positions."""

    total_mass: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.total_mass) and self.total_mass >= 0):
            raise InfiniteMass(f"total mass {self.total_mass!r} must be finite and nonnegative")

    def spatial_pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi)


@dataclass(frozen=True)
class ScalingFamily:
    n: int
    lam: float = 1.0
    nu: Intensity = field(default_factory=Intensity)

    def __post_init__(self):
        if self.n < 2:
            raise NTooSmall(f"scaling level n must be >= 2, got {self.n}")
        if self.lam <= 0:
            raise ConfigError("lifetime rate must be positive")

    def model(self) -> ValidatedModel:
        """Microscopic model at this level: motion variance scaled by 1/n."""
        return validate_model(
            ModelSpec(lifetime=Exponential(self.lam), offspring=near_critical_family(self.n),
                      motion=Brownian(1.0 / self.n))
        )

    def psi_unscaled(self) -> float:
        """psi of the level-1 motion (the 1/n scale removed); the limit's
        spatial variance rate is lam * psi_unscaled per unit macroscopic time."""
        return self.model().psi * self.n


def _poisson_ppf(u: np.ndarray, mean: float) -> np.ndarray:
    """Poisson(mean) quantiles at u, step for step as scipy.stats.poisson.ppf."""
    k = np.ceil(pdtrik(u, mean))
    below = np.maximum(k - 1, 0)
    return np.where(pdtr(below, mean) >= u, below, k).astype(np.int64)


def sample_poisson_field(n: int, nu: Intensity, keys: np.ndarray):
    """Poisson(n |nu|) atoms i.i.d. from the normalized intensity, one field
    per uint64 key, as (field, ages, positions) with `field` indexing `keys`
    in ascending order.  A field is a pure function of its key: its count c
    is the Poisson quantile of uniform_at(key, 0), its ages use slots 1..c
    and its positions slots c+1..2c.
    """
    mean = n * nu.total_mass
    if not math.isfinite(mean):
        raise InfiniteMass(f"n * |nu| = {mean!r}")
    counts = _poisson_ppf(uniform_at(keys, 0), mean) if mean else np.zeros(keys.size, np.int64)
    field = np.repeat(np.arange(keys.size), counts)
    slot = 1 + np.arange(field.size) - np.repeat(np.cumsum(counts) - counts, counts)
    ages = -np.log1p(-uniform_at(keys[field], slot))
    return field, ages, ndtri(uniform_at(keys[field], slot + counts[field]))


def scaled_fields(family: ScalingFamily, t: float, reps: int, rng: RandomStream):
    """Simulate `reps` independent fields of Y^n to macroscopic time t
    (microscopic n*t), `_FIELD_BATCH` at a time.

    Field r, of key k = rng.child(r).key, draws its Poisson field from
    derive_key(k, 0) and runs under derive_key(k, 1), so it does not depend
    on the batching.  Yields simulate_fields' (rep, ages, positions, counts)
    per batch, rep counted from the batch's first field; each alive particle
    carries weight 1/n.  A CapExceeded names fields by their index in 0..reps-1.
    """
    if not EPSILON <= t < math.inf:
        raise ConfigError(f"macroscopic time {t} must be finite and at least the cutoff {EPSILON}")
    if reps < 1:
        raise ConfigError("reps must be positive")
    model = family.model()
    for start in range(0, reps, _FIELD_BATCH):
        fields = derive_key(rng.key, np.arange(start, min(start + _FIELD_BATCH, reps)))
        rep, ages, positions = sample_poisson_field(family.n, family.nu, derive_key(fields, 0))
        try:
            batch = simulate_fields(model, family.n * t, derive_key(fields, 1), rep, -ages, positions)
        except CapExceeded as exc:
            raise CapExceeded([start + r for r in exc.replicates]) from None
        yield batch


def laplace_mc(family: ScalingFamily, f: Callable, t: float, reps: int, rng: RandomStream) -> Estimate:
    """-log E[exp(-<f, Y^n_t>)] over `reps` independent fields of `scaled_fields`,
    with the delta-method transfer of the exp-functional's sampling error as
    stderr; ConfigError if exp(-<f, Y^n_t>) underflows to 0 in every field.
    """
    weight = 1.0 / family.n
    vals = np.concatenate([
        np.exp(-np.bincount(rep, weight * np.asarray(f(ages, positions), dtype=float), counts.size))
        for rep, ages, positions, counts in scaled_fields(family, t, reps, rng)
    ])
    mean = float(vals.mean())
    if mean == 0.0:
        raise ConfigError(f"exp(-<f, Y^n_t>) underflowed to 0 in every one of the {reps} fields")
    se = float(vals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return Estimate(value=float(-math.log(mean)) + 0.0, stderr=se / mean, n=reps)
