"""The branching-model triple: lifetime law, offspring law, motion law.

Lifetime laws are restricted to a closed-form family (exponential, gamma,
uniform, deterministic) so mean, CDF and quantiles are exact.  Motion is
Brownian, sampled at life endpoints: the displacement over a duration d is a
single Normal(0, v(d)) draw, which is exact and needs no path
discretization.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincinv

CRITICALITY_TOL = 1e-9
MASS_TOL = 1e-12
_TAIL_EPS = 1e-12


class ModelError(ValueError):
    """Base class for model validation failures."""


class NotCritical(ModelError):
    pass


class MassAtZeroLifetime(ModelError):
    pass


class DegenerateOffspring(ModelError):
    pass


# ---------------------------------------------------------------------------
# lifetime laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LifetimeLaw:
    """Common interface: mean(), cdf(x), ppf(u), support_hi()."""

    def mean(self) -> float:
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def ppf(self, u):
        raise NotImplementedError

    def support_hi(self) -> float:
        """Upper truncation point: smallest x with 1 - G(x) <= 1e-12."""
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(LifetimeLaw):
    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ModelError(f"exponential rate must be positive, got {self.rate}")

    def mean(self):
        return 1.0 / self.rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, -np.expm1(-self.rate * x), 0.0)

    def ppf(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def support_hi(self):
        return -math.log(_TAIL_EPS) / self.rate

    def label(self):
        return f"exp:{self.rate!r}"


@dataclass(frozen=True)
class Gamma(LifetimeLaw):
    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise ModelError("gamma shape and rate must be positive")

    def mean(self):
        return self.shape / self.rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, gammainc(self.shape, self.rate * np.maximum(x, 0.0)), 0.0)

    def ppf(self, u):
        return gammaincinv(self.shape, np.asarray(u, dtype=float)) / self.rate

    def support_hi(self):
        return float(gammaincinv(self.shape, 1.0 - _TAIL_EPS) / self.rate)

    def label(self):
        return f"gamma:{self.shape!r}:{self.rate!r}"


@dataclass(frozen=True)
class UniformLifetime(LifetimeLaw):
    lo: float
    hi: float

    def __post_init__(self):
        if not (0 <= self.lo < self.hi):
            raise ModelError("uniform lifetime needs 0 <= lo < hi")

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def ppf(self, u):
        return self.lo + np.asarray(u, dtype=float) * (self.hi - self.lo)

    def support_hi(self):
        return self.hi

    def label(self):
        return f"uniform:{self.lo!r}:{self.hi!r}"


@dataclass(frozen=True)
class Deterministic(LifetimeLaw):
    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ModelError("deterministic lifetime must be positive")

    def mean(self):
        return self.value

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return (x >= self.value).astype(float)

    def ppf(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.value)

    def support_hi(self):
        return self.value

    def label(self):
        return f"det:{self.value!r}"


# ---------------------------------------------------------------------------
# offspring law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OffspringLaw:
    """Finite-support offspring distribution (p_0, ..., p_K), K >= 1."""

    probabilities: tuple

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ModelError("offspring law needs at least (p_0, p_1)")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ModelError("offspring probabilities must be finite and nonnegative")
        if abs(p.sum() - 1.0) > MASS_TOL:
            raise ModelError(f"offspring probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probabilities", tuple(float(x) for x in p))

    def mean(self) -> float:
        p = np.asarray(self.probabilities)
        return float(np.dot(np.arange(p.size), p))

    def variance(self) -> float:
        p = np.asarray(self.probabilities)
        k = np.arange(p.size)
        return float(np.dot(k * k, p) - self.mean() ** 2)

    def generating_function(self, s):
        """F(s) = sum_k p_k s^k, vectorized in s."""
        p = np.asarray(self.probabilities)
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), p)

    def cumulative(self) -> np.ndarray:
        c = np.cumsum(self.probabilities)
        c[-1] = 1.0
        return c

    def label(self) -> str:
        return ",".join(repr(p) for p in self.probabilities)


# ---------------------------------------------------------------------------
# motion laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MotionLaw:
    """Zero-mean Gaussian-increment motion; v(t) is the displacement variance."""

    def variance(self, durations):
        raise NotImplementedError

    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Brownian(MotionLaw):
    diffusion: float

    def __post_init__(self):
        if not (self.diffusion > 0 and math.isfinite(self.diffusion)):
            raise ModelError("brownian diffusion must be positive")

    def variance(self, durations):
        return self.diffusion * np.asarray(durations, dtype=float)

    def label(self):
        return f"bm:{self.diffusion!r}"


# ---------------------------------------------------------------------------
# model spec and validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    lifetime: LifetimeLaw
    offspring: OffspringLaw
    motion: MotionLaw
    initial_age: float = 0.0
    initial_position: float = 0.0


@dataclass(frozen=True)
class ValidatedModel:
    """A ModelSpec that passed validation, with its derived constants."""

    lifetime: LifetimeLaw
    offspring: OffspringLaw
    motion: MotionLaw
    initial_age: float
    initial_position: float
    mu: float
    sigma2: float
    psi: float

    def digest(self) -> str:
        text = "|".join(
            [
                self.lifetime.label(),
                self.offspring.label(),
                self.motion.label(),
                repr(self.initial_age),
                repr(self.initial_position),
            ]
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def validate_model(spec: ModelSpec) -> ValidatedModel:
    """Check the (G, p, eta) triple and compute (mu, sigma2, psi).

    Raises NotCritical, MassAtZeroLifetime, DegenerateOffspring or another
    ModelError.
    """
    if float(spec.lifetime.cdf(0.0)) > 0.0:
        raise MassAtZeroLifetime("lifetime law puts mass at zero")
    mu = spec.lifetime.mean()
    if not (mu > 0 and math.isfinite(mu)):
        raise ModelError(f"lifetime mean {mu!r} not positive finite")

    p = spec.offspring.probabilities
    if p[0] == 1.0:
        raise DegenerateOffspring("p_0 = 1: population dies immediately")
    m = spec.offspring.mean()
    if abs(m - 1.0) > CRITICALITY_TOL:
        raise NotCritical(f"offspring mean {m!r} != 1")
    sigma2 = spec.offspring.variance()
    if sigma2 <= 0:
        raise DegenerateOffspring(f"offspring variance {sigma2!r} must be positive")

    if not isinstance(spec.motion, Brownian):
        raise ModelError(f"motion {type(spec.motion).__name__} is not Brownian, the only law supported")
    psi = spec.motion.diffusion * mu

    if not (spec.initial_age >= 0):
        raise ModelError("initial age must be nonnegative")
    if float(spec.lifetime.cdf(spec.initial_age)) >= 1.0:
        raise ModelError("initial age lies beyond the lifetime support")
    if not math.isfinite(spec.initial_position):
        raise ModelError(f"initial position {spec.initial_position!r} must be finite")

    return ValidatedModel(
        lifetime=spec.lifetime,
        offspring=spec.offspring,
        motion=spec.motion,
        initial_age=float(spec.initial_age),
        initial_position=float(spec.initial_position),
        mu=float(mu),
        sigma2=float(sigma2),
        psi=float(psi),
    )


def binary_exponential_model() -> ValidatedModel:
    """Reference model: exponential(1) lifetimes, (1/2, 0, 1/2) offspring,
    Brownian(1) motion, root of age 0 at the origin.  All three derived
    constants equal 1 and the population process is a linear birth-death chain
    with exact closed-form laws, which the test suites lean on heavily."""
    return validate_model(ModelSpec(Exponential(1.0), OffspringLaw((0.5, 0.0, 0.5)), Brownian(1.0)))


# ---------------------------------------------------------------------------
# limit laws and samplers
# ---------------------------------------------------------------------------


def limit_age_cdf(model: ValidatedModel, x):
    """Stationary age law of a surviving particle: (1/mu) * int_0^x (1-G)."""
    law = model.lifetime
    mu = model.mu
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ModelError("age must be nonnegative")
    if isinstance(law, Exponential):
        out = -np.expm1(-law.rate * x)
    elif isinstance(law, Deterministic):
        out = np.minimum(x, law.value) / law.value
    elif isinstance(law, UniformLifetime):
        lo, hi = law.lo, law.hi
        below = np.minimum(x, lo)
        mid = np.clip(x, lo, hi) - lo
        width = hi - lo
        out = (below + mid - 0.5 * mid**2 / width) / mu
        out = np.minimum(out, 1.0)
    else:
        flat = np.atleast_1d(x)
        vals = np.empty_like(flat)
        for i, xi in enumerate(flat):
            vals[i] = quad(lambda s: 1.0 - float(law.cdf(s)), 0.0, min(float(xi), law.support_hi()), limit=200)[0] / mu
        out = vals.reshape(x.shape)
    return float(out) if np.ndim(x) == 0 else out


def limit_age_ppf(model: ValidatedModel, u):
    """Quantiles of the limiting age law (exact for exponential lifetimes)."""
    law = model.lifetime
    if isinstance(law, Exponential):
        return -np.log1p(-np.asarray(u, dtype=float)) / law.rate
    hi = law.support_hi()
    flat = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty_like(flat)
    for i, ui in enumerate(flat):
        out[i] = brentq(lambda x: limit_age_cdf(model, x) - ui, 0.0, hi * (1 + 1e-9), xtol=1e-12)
    return float(out[0]) if np.ndim(u) == 0 else out.reshape(np.shape(u))


# ---------------------------------------------------------------------------
# config grammar
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    pass


def _parse_lifetime(text: str) -> LifetimeLaw:
    kind, *args = text.split(":")
    try:
        args = [float(a) for a in args]
        if kind == "exp":
            return Exponential(*args)
        if kind == "gamma":
            return Gamma(*args)
        if kind == "uniform":
            return UniformLifetime(*args)
        if kind == "det":
            return Deterministic(*args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad lifetime spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown lifetime kind {kind!r} (use exp/gamma/uniform/det)")


def _parse_motion(text: str) -> MotionLaw:
    parts = text.split(":")
    if parts[0] == "bm" and len(parts) == 2:
        try:
            return Brownian(float(parts[1]))
        except (ValueError, ModelError) as exc:
            raise ConfigError(f"bad motion spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown motion spec {text!r} (config files support bm:<diffusion>)")


def parse_model_config(text: str) -> ModelSpec:
    """Parse the key-value model grammar.

    Example::

        lifetime = exp:1.0
        offspring = 0.5,0,0.5
        motion = bm:1.0
        initial_age = 0
        initial_position = 0

    Lines starting with '#' are comments.  Unknown keys are rejected.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value

    known = {"lifetime", "offspring", "motion", "initial_age", "initial_position"}
    unknown = set(fields) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for required in ("lifetime", "offspring", "motion"):
        if required not in fields:
            raise ConfigError(f"missing config key {required!r}")

    try:
        offspring = OffspringLaw(tuple(float(p) for p in fields["offspring"].split(",")))
    except (ValueError, ModelError) as exc:
        raise ConfigError(f"bad offspring spec {fields['offspring']!r}: {exc}") from exc
    try:
        initial = [float(fields.get(k, "0")) for k in ("initial_age", "initial_position")]
    except ValueError as exc:
        raise ConfigError(f"bad initial state: {exc}") from exc

    return ModelSpec(
        lifetime=_parse_lifetime(fields["lifetime"]),
        offspring=offspring,
        motion=_parse_motion(fields["motion"]),
        initial_age=initial[0],
        initial_position=initial[1],
    )
