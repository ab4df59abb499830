"""Scaled particle systems approaching the measure-valued diffusion limit.

The scaled system at level n keeps exponential(lam) lifetimes, shrinks the
motion variance by 1/n, starts from a Poisson field of n*|nu| particles, and
assigns every particle weight 1/n.  Offspring come from a critical law whose
generating function satisfies n^2(F(1-u/n) - (1-u/n)) -> u^2, which pins the
offspring variance at 2 and makes the limiting log-Laplace equation's
quadratic nonlinearity carry coefficient lam exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtri
from scipy.stats import poisson as poisson_dist

from .engine import DEFAULT_PARTICLE_CAP, simulate_fields
from .model import (
    Brownian,
    Exponential,
    ModelSpec,
    OffspringLaw,
    ValidatedModel,
    validate_model,
)
from .rng import RandomStream, derive_key
from .stats import Estimate

DEFAULT_EPSILON = 0.01
_FIELD_BATCH = 64  # fields simulated together; results do not depend on it


class NTooSmall(ValueError):
    pass


class InfiniteMass(ValueError):
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


def asf_error(offspring: OffspringLaw, n: int, N: float, grid_points: int = 1000) -> float:
    """sup over u in [0, N] of |n^2 (F(1 - u/n) - (1 - u/n)) - u^2|.

    Evaluated on a uniform grid; N = 0 degenerates to the single point u = 0
    where F(1) - 1 = 0.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    u = np.linspace(0.0, float(N), grid_points if N > 0 else 1)
    s = 1.0 - u / n
    err = n**2 * (offspring.generating_function(s) - s) - u**2
    return float(np.max(np.abs(err)))


@dataclass(frozen=True)
class Intensity:
    """Product initial intensity: (exponential age marginal) x (spatial
    marginal) with a finite total mass.  spatial is "gauss" (standard normal
    scaled by spatial_scale) or "point" (all mass at position 0)."""

    total_mass: float = 1.0
    age_rate: float = 1.0
    spatial: str = "gauss"
    spatial_scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.total_mass) and self.total_mass >= 0):
            raise InfiniteMass(f"total mass {self.total_mass!r} must be finite and nonnegative")
        if self.spatial not in ("gauss", "point"):
            raise ValueError(f"unknown spatial marginal {self.spatial!r}")
        if self.age_rate <= 0 or self.spatial_scale <= 0:
            raise ValueError("age_rate and spatial_scale must be positive")

    def spatial_pdf(self, x):
        if self.spatial == "point":
            raise ValueError("point marginal has no density")
        x = np.asarray(x, dtype=float)
        s = self.spatial_scale
        return np.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2 * math.pi))


@dataclass(frozen=True)
class ScalingFamily:
    n: int
    lam: float = 1.0
    offspring: Optional[OffspringLaw] = None
    nu: Intensity = field(default_factory=Intensity)

    def __post_init__(self):
        if self.n < 2:
            raise NTooSmall(f"scaling level n must be >= 2, got {self.n}")
        if self.lam <= 0:
            raise ValueError("lifetime rate must be positive")
        if self.offspring is None:
            object.__setattr__(self, "offspring", near_critical_family(self.n))
        if abs(self.offspring.mean() - 1.0) > 1e-9:
            raise ValueError("scaled offspring law must be critical")

    def model(self) -> ValidatedModel:
        """Microscopic model at this level: motion variance scaled by 1/n."""
        return validate_model(
            ModelSpec(lifetime=Exponential(self.lam), offspring=self.offspring,
                      motion=Brownian(1.0 / self.n))
        )

    def psi_unscaled(self) -> float:
        """psi of the level-1 motion (the 1/n scale removed); the limit's
        spatial variance rate is lam * psi_unscaled per unit macroscopic time."""
        return self.model().psi * self.n


def sample_poisson_field(n: int, nu: Intensity, rng: RandomStream):
    """Poisson(n |nu|) atoms i.i.d. from the normalized intensity.

    Returns (ages, positions).  Deterministic in the stream: the count comes
    from the Poisson quantile at one uniform, the atoms from subsequent ones.
    """
    mean = n * nu.total_mass
    if not math.isfinite(mean):
        raise InfiniteMass(f"n * |nu| = {mean!r}")
    if mean == 0:
        return np.empty(0), np.empty(0)
    count = int(poisson_dist.ppf(rng.uniform(), mean))
    ages = -np.log1p(-rng.uniform(size=count)) / nu.age_rate if count else np.empty(0)
    if nu.spatial == "gauss":
        positions = nu.spatial_scale * np.asarray(ndtri(rng.uniform(size=count))) if count else np.empty(0)
    else:
        positions = np.zeros(count)
    return ages, positions


def scaled_fields(
    family: ScalingFamily,
    t: float,
    reps: int,
    rng: RandomStream,
    particle_cap: int = DEFAULT_PARTICLE_CAP,
    epsilon: float = DEFAULT_EPSILON,
):
    """Simulate `reps` independent fields of Y^n to macroscopic time t
    (microscopic n*t), `_FIELD_BATCH` at a time.

    Field r starts from the Poisson field of rng.child(r).child(0) and runs
    under the key derived from rng.child(r), so it does not depend on the
    batching.  Yields simulate_fields' (rep, ages, positions, counts) per
    batch, rep counted from the batch's first field; each alive particle
    carries weight 1/n.
    """
    if t < epsilon:
        raise ValueError(f"macroscopic time {t} below the cutoff {epsilon}")
    if reps < 1:
        raise ValueError("reps must be positive")
    model = family.model()
    for start in range(0, reps, _FIELD_BATCH):
        root_rep, root_birth, root_pos, keys = [], [], [], []
        for r in range(start, min(start + _FIELD_BATCH, reps)):
            s = rng.child(r)
            ages0, pos0 = sample_poisson_field(family.n, family.nu, s.child(0))
            root_rep.append(np.full(ages0.size, r - start, dtype=np.int64))
            root_birth.append(-ages0)
            root_pos.append(pos0)
            keys.append(int(derive_key(np.uint64(s.key), np.uint64(1)).ravel()[0]))
        yield simulate_fields(
            model,
            family.n * t,
            np.asarray(keys, dtype=np.uint64),
            np.concatenate(root_rep),
            np.concatenate(root_birth),
            np.concatenate(root_pos),
            particle_cap,
        )


def laplace_mc(
    family: ScalingFamily,
    f: Callable,
    t: float,
    reps: int,
    rng: RandomStream,
    particle_cap: int = DEFAULT_PARTICLE_CAP,
    epsilon: float = DEFAULT_EPSILON,
) -> Estimate:
    """-log E[exp(-<f, Y^n_t>)] over `reps` independent fields of
    `scaled_fields`.  The stderr is the delta-method transfer of the
    exp-functional's sampling error.
    """
    weight = 1.0 / family.n
    vals = []
    for rep, ages, positions, counts in scaled_fields(family, t, reps, rng, particle_cap, epsilon):
        total = np.zeros(counts.size)
        if ages.size:
            np.add.at(total, rep, weight * np.asarray(f(ages, positions), dtype=float))
        vals.append(np.exp(-total))
    vals = np.concatenate(vals)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return Estimate(value=float(-math.log(mean)) + 0.0, stderr=se / mean, n=reps)
