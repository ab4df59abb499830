import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.model import (
    Brownian,
    ConfigError,
    DegenerateOffspring,
    Deterministic,
    Exponential,
    Gamma,
    MassAtZeroLifetime,
    ModelError,
    ModelSpec,
    MotionLaw,
    NotCritical,
    OffspringLaw,
    UniformLifetime,
    binary_exponential_model,
    limit_age_cdf,
    limit_age_ppf,
    parse_model_config,
    validate_model,
)
from branchlab.rng import stream

BINARY = OffspringLaw((0.5, 0.0, 0.5))


def spec(lifetime=None, offspring=BINARY, motion=None, **kw):
    return ModelSpec(
        lifetime=lifetime or Exponential(1.0),
        offspring=offspring,
        motion=motion or Brownian(1.0),
        **kw,
    )


# --- validation -------------------------------------------------------------


def test_reference_model_constants():
    m = binary_exponential_model()
    assert m.mu == 1.0
    assert m.sigma2 == 1.0
    assert m.psi == 1.0


def test_not_critical():
    with pytest.raises(NotCritical):
        validate_model(spec(offspring=OffspringLaw((0.5, 0.4, 0.1))))


def test_degenerate_offspring_p1_one():
    # offspring (0, 1): critical but zero variance
    with pytest.raises(DegenerateOffspring):
        validate_model(spec(offspring=OffspringLaw((0.0, 1.0))))


def test_degenerate_offspring_p0_one():
    with pytest.raises(DegenerateOffspring):
        validate_model(spec(offspring=OffspringLaw((1.0, 0.0))))


def test_offspring_sum_tolerance():
    with pytest.raises(ModelError):
        OffspringLaw((0.5, 0.0, 0.5 + 1e-10))
    OffspringLaw((0.5, 0.0, 0.5 + 1e-13))  # inside the 1e-12 band


def test_mass_at_zero_lifetime_guard():
    class ZeroMass(Exponential):
        def cdf(self, x):
            return np.minimum(np.asarray(x, dtype=float) * 0 + 0.1 + super().cdf(x), 1.0)

    with pytest.raises(MassAtZeroLifetime):
        validate_model(spec(lifetime=ZeroMass(1.0)))


def test_non_brownian_motion_rejected():
    class Ballistic(MotionLaw):
        def variance(self, durations):
            return np.asarray(durations, dtype=float) ** 2

    with pytest.raises(ModelError, match="not Brownian"):
        validate_model(spec(motion=Ballistic()))


def test_initial_age_beyond_support_rejected():
    with pytest.raises(ModelError):
        validate_model(spec(lifetime=Deterministic(1.0), initial_age=2.0))


@pytest.mark.parametrize("position", [math.nan, math.inf, -math.inf])
def test_non_finite_initial_position_rejected(position):
    with pytest.raises(ModelError, match="initial position"):
        validate_model(spec(initial_position=position))


# --- derived constants ------------------------------------------------------


def test_constants_exponential2():
    m = validate_model(spec(lifetime=Exponential(2.0)))
    assert math.isclose(m.mu, 0.5, rel_tol=1e-12)
    assert math.isclose(m.psi, 0.5, rel_tol=1e-12)  # v(s) = s, psi = mu


def test_constants_deterministic_brownian3():
    m = validate_model(spec(lifetime=Deterministic(1.0), motion=Brownian(3.0)))
    assert m.mu == 1.0
    assert math.isclose(m.psi, 3.0, rel_tol=1e-12)


def test_sigma2_binary():
    assert BINARY.variance() == 1.0


@pytest.mark.parametrize(
    "lifetime,motion,expected",
    [
        (Exponential(1.0), Brownian(1.0), 1.0),
        (Exponential(2.0), Brownian(1.0), 0.5),
        (Deterministic(1.0), Brownian(3.0), 3.0),
        (UniformLifetime(0.0, 2.0), Brownian(2.0), 2.0),
        (Gamma(2.0, 3.0), Brownian(1.5), 1.0),
    ],
)
def test_psi_quadrature_matches_closed_form(lifetime, motion, expected):
    # validate_model's psi = diffusion * mu against psi = int v(s) dG(s)
    # = int diffusion * (1 - G(u)) du by quadrature over the lifetime support
    from scipy.integrate import quad

    psi = validate_model(spec(lifetime=lifetime, motion=motion)).psi
    quad_val = quad(lambda u: motion.diffusion * float(1.0 - lifetime.cdf(u)),
                    0.0, lifetime.support_hi(), epsrel=1e-8, limit=500)[0]
    assert abs(psi - expected) / expected < 1e-12
    assert abs(quad_val - expected) / expected < 1e-6


# --- limit age law ----------------------------------------------------------


def test_limit_age_cdf_exponential_closed_form():
    m = binary_exponential_model()
    xs = np.linspace(0, 20, 1000)
    assert np.max(np.abs(limit_age_cdf(m, xs) - (1 - np.exp(-xs)))) < 1e-10


def test_limit_age_cdf_point_values():
    m = binary_exponential_model()
    assert abs(limit_age_cdf(m, 1.0) - (1 - math.exp(-1))) < 1e-12
    assert limit_age_cdf(m, 0.0) == 0.0
    det = validate_model(spec(lifetime=Deterministic(2.0)))
    assert limit_age_cdf(det, 1.0) == 0.5


def test_limit_age_cdf_uniform_closed_form():
    m = validate_model(spec(lifetime=UniformLifetime(0.0, 2.0)))
    xs = np.linspace(0, 2, 101)
    # (1/mu) int_0^x (1 - s/2) ds with mu = 1
    assert np.allclose(limit_age_cdf(m, xs), xs - xs**2 / 4, atol=1e-12)


def test_limit_age_cdf_is_cdf_on_grid():
    for m in (
        binary_exponential_model(),
        validate_model(spec(lifetime=Gamma(2.0, 1.0))),
        validate_model(spec(lifetime=UniformLifetime(0.5, 3.0))),
    ):
        xs = np.linspace(0, m.lifetime.support_hi() * 1.5, 1000)
        vals = limit_age_cdf(m, xs)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[-1] > 1 - 1e-6


def test_limit_age_ppf_inverts_cdf():
    m = validate_model(spec(lifetime=Gamma(2.0, 1.0)))
    for u in (0.1, 0.5, 0.9):
        x = limit_age_ppf(m, u)
        assert abs(limit_age_cdf(m, x) - u) < 1e-9


# --- samplers ---------------------------------------------------------------


def test_offspring_mean_large_sample():
    # offspring counts drawn as the engine draws them
    m = binary_exponential_model()
    u = stream(314).uniform(size=1_000_000)
    counts = np.searchsorted(m.offspring.cumulative(), u, side="right")
    assert abs(counts.mean() - 1.0) < 0.005  # 4 sigma / sqrt(n) with sigma=1


def test_displacement_variance_brownian():
    from branchlab.rng import normal_at, mix64

    keys = mix64(np.arange(1_000_000, dtype=np.uint64))
    z = 2.0 * normal_at(keys, 0)  # duration 4, diffusion 1 -> sd 2
    assert abs(z.var() - 4.0) < 0.03
    assert abs(z.mean()) < 4 * 2.0 / np.sqrt(z.size)


# --- config grammar ---------------------------------------------------------


def test_parse_config_roundtrip():
    text = """
    # reference model
    lifetime = exp:1.0
    offspring = 0.5,0,0.5
    motion = bm:1.0
    initial_age = 0
    initial_position = 0
    """
    m = validate_model(parse_model_config(text))
    ref = binary_exponential_model()
    assert (m.mu, m.sigma2, m.psi) == (ref.mu, ref.sigma2, ref.psi)


@pytest.mark.parametrize(
    "text",
    [
        "offspring = 0.5,0,0.5\nmotion = bm:1.0",  # missing lifetime
        "lifetime = weird:1\noffspring = 0.5,0,0.5\nmotion = bm:1.0",
        "lifetime = exp:1\noffspring = 0.5,0,0.5\nmotion = bm:1.0\nbogus = 3",
        "lifetime = exp:1\noffspring = 0.5;0;0.5\nmotion = bm:1.0",
        "lifetime = exp:1\noffspring = 0.5,0,0.5\nmotion = ou:1.0",
        "lifetime exp:1",
        "lifetime = exp:abc\noffspring = 0.5,0,0.5\nmotion = bm:1.0",
        "lifetime = exp:1\noffspring = 0.5,0,0.5\nmotion = bm:1.0\ninitial_age = x",
    ],
)
def test_parse_config_rejects(text):
    with pytest.raises(ConfigError):
        parse_model_config(text)


@pytest.mark.parametrize(
    "lifetime_text,law",
    [
        ("exp:2.0", Exponential(2.0)),
        ("gamma:2.0:3.0", Gamma(2.0, 3.0)),
        ("uniform:0:2", UniformLifetime(0.0, 2.0)),
        ("det:1.5", Deterministic(1.5)),
    ],
)
def test_parse_config_lifetimes(lifetime_text, law):
    text = f"lifetime = {lifetime_text}\noffspring = 0.5,0,0.5\nmotion = bm:1.0"
    assert parse_model_config(text).lifetime == law


# --- property tests ---------------------------------------------------------


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=8))
@settings(max_examples=100, deadline=None)
def test_offspring_validation_properties(raw):
    total = sum(raw)
    if total <= 0:
        return
    probs = tuple(p / total for p in raw)
    law = OffspringLaw(probs)
    assert abs(sum(law.probabilities) - 1.0) <= 1e-9
    assert law.variance() >= -1e-12


@given(st.sampled_from(["exp", "gamma", "uniform", "det"]), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
@settings(max_examples=60, deadline=None)
def test_lifetime_ppf_cdf_consistency(kind, a, b):
    law = {
        "exp": lambda: Exponential(a),
        "gamma": lambda: Gamma(a, b),
        "uniform": lambda: UniformLifetime(0.0, a),
        "det": lambda: Deterministic(a),
    }[kind]()
    u = np.linspace(0.01, 0.99, 23)
    x = law.ppf(u)
    assert np.all(np.diff(x) >= -1e-12)
    if kind != "det":
        assert np.allclose(law.cdf(x), u, atol=1e-9)
