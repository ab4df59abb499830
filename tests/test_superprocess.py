import math

import numpy as np
import pytest
from scipy.special import ndtri, pdtr, pdtrik
from scipy.stats import poisson

from branchlab import engine
from branchlab.engine import CapExceeded
from branchlab.loglaplace import parse_test_function
from branchlab.model import ConfigError, OffspringLaw
from branchlab import superprocess
from branchlab.rng import RandomStream, stream
from branchlab.superprocess import (
    InfiniteMass,
    Intensity,
    NTooSmall,
    ScalingFamily,
    asf_error,
    laplace_mc,
    near_critical_family,
    sample_poisson_field,
    scaled_fields,
)

ONE = parse_test_function("const:1")


# --- offspring family ----------------------------------------------------------


def test_family_is_critical_with_variance_two():
    law = near_critical_family(10)
    assert abs(law.mean() - 1.0) < 1e-15
    assert abs(law.variance() - 2.0) < 1e-14
    assert abs(sum(law.probabilities) - 1.0) < 1e-15


def test_family_n_too_small():
    with pytest.raises(NTooSmall):
        near_critical_family(1)
    with pytest.raises(NTooSmall):
        ScalingFamily(n=1)


@pytest.mark.parametrize("n", [2, 10, 100, 1000])
def test_asf_error_exact_closed_form(n):
    # F(s) - s = (1-s)^2 (s+2)/3 gives error exactly u^3/(3n), so the grid
    # supremum over [0, N] equals N^3/(3n); evaluation near s=1 amplifies
    # rounding by n^2, hence the 1e-8 band
    err = asf_error(near_critical_family(n), n, 10.0)
    assert err == pytest.approx(1000.0 / (3.0 * n), rel=1e-8)


def test_asf_error_decreases_in_n():
    errs = [asf_error(near_critical_family(n), n, 10.0) for n in (2, 10, 100, 1000)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_asf_error_binary_fixed_law():
    # fixed (1/2, 0, 1/2): F(s) - s = (1-s)^2/2, error sup is u^2/2 = N^2/2
    err = asf_error(OffspringLaw((0.5, 0.0, 0.5)), 10, 10.0)
    assert err == pytest.approx(50.0, rel=1e-12)


def test_asf_error_at_n_zero_width():
    assert asf_error(near_critical_family(5), 5, 0.0) == 0.0


# --- intensity and fields -------------------------------------------------------


def test_intensity_validation():
    with pytest.raises(InfiniteMass):
        Intensity(total_mass=math.inf)


def _keys(seed, count):
    return np.array([stream(seed, i).key for i in range(count)], dtype=np.uint64)


def _scalar_poisson_ppf(u, mean):
    k = math.ceil(pdtrik(u, mean))
    return k - 1 if k > 0 and pdtr(k - 1, mean) >= u else k


def _stream_field(n, nu, rng):
    """The per-field body the batch replaced: the count from the Poisson
    quantile at the stream's first uniform, the atoms from the next ones."""
    mean = n * nu.total_mass
    count = _scalar_poisson_ppf(rng.uniform(), mean) if mean else 0
    return -np.log1p(-rng.uniform(size=count)), np.asarray(ndtri(rng.uniform(size=count)))


@pytest.mark.parametrize("n, mass", [(2, 1.0), (20, 1.0), (3, 0.05), (50, 0.0)])
def test_batch_field_equals_its_streams_draws(n, mass):
    nu = Intensity(total_mass=mass)
    keys = _keys(21, 40)
    field, ages, pos = sample_poisson_field(n, nu, keys)
    assert np.all(np.diff(field) >= 0)
    counts = np.bincount(field, minlength=keys.size)
    if 0 < n * mass < 3:
        assert counts.min() == 0 < counts.max()  # empty fields among full ones
    for j, key in enumerate(keys):
        a, x = _stream_field(n, nu, RandomStream(int(key)))
        assert np.array_equal(ages[field == j], a) and np.array_equal(pos[field == j], x)


def test_poisson_field_moments():
    field, _, _ = sample_poisson_field(100, Intensity(), _keys(1, 400))
    counts = np.bincount(field, minlength=400).astype(float)
    # Poisson(100): mean 100, sd 10
    assert abs(counts.mean() - 100.0) < 3 * 10.0 / math.sqrt(counts.size)


def test_poisson_count_is_scipy_poisson_ppf():
    gen = np.random.default_rng(23)
    u = gen.random(100_000)
    mean = 10.0 ** gen.uniform(-3.0, 4.0, u.size)
    # both ends of the u64 -> uniform map, at means across the range
    ends = np.array([2.0**-54, 1.0 - 2.0**-53])
    grid = np.array([1e-3, 0.1, 1.0, 7.5, 100.0, 1e4])
    u = np.concatenate([u, np.repeat(ends, grid.size)])
    mean = np.concatenate([mean, np.tile(grid, ends.size)])
    expected = poisson.ppf(u, mean)
    got = superprocess._poisson_ppf(u, mean)
    assert got.dtype == np.int64 and np.array_equal(got, expected)


def test_poisson_field_empty():
    field, ages, pos = sample_poisson_field(100, Intensity(total_mass=0.0), _keys(2, 3))
    assert field.size == 0 and ages.size == 0 and pos.size == 0
    field, ages, pos = sample_poisson_field(100, Intensity(), _keys(2, 0))
    assert field.size == 0 and ages.size == 0 and pos.size == 0


def test_poisson_field_deterministic():
    f1, a1, p1 = sample_poisson_field(50, Intensity(), _keys(3, 5))
    f2, a2, p2 = sample_poisson_field(50, Intensity(), _keys(3, 5))
    assert np.array_equal(f1, f2) and np.array_equal(a1, a2) and np.array_equal(p1, p2)


def test_poisson_field_marginals():
    _, ages, pos = sample_poisson_field(20_000, Intensity(), _keys(4, 1))
    assert abs(ages.mean() - 1.0) < 4 / math.sqrt(ages.size)
    assert abs(pos.mean()) < 4 / math.sqrt(pos.size)
    assert abs(pos.std() - 1.0) < 0.02


# --- scaled runs -----------------------------------------------------------------


def _fields(family, reps, seed, t=1.0):
    """(rep, ages, positions, counts) over all batches, rep counted from field 0."""
    batches, start = [], 0
    for rep, ages, positions, counts in scaled_fields(family, t, reps, stream(seed)):
        batches.append((rep + start, ages, positions, counts))
        start += counts.size
    return tuple(np.concatenate(v) for v in zip(*batches))


def test_scaled_fields_shapes_and_batches():
    batches = list(scaled_fields(ScalingFamily(n=20), 1.0, 70, stream(5)))
    assert [b[3].size for b in batches] == [64, 6]
    for rep, ages, positions, counts in batches:
        assert ages.shape == positions.shape == rep.shape
        assert np.all(ages >= 0.0)
        assert np.array_equal(np.bincount(rep, minlength=counts.size), counts)


def test_scaled_fields_epsilon_cutoff():
    for t in (0.001, math.inf, math.nan):
        with pytest.raises(ConfigError):
            next(scaled_fields(ScalingFamily(n=20), t, 5, stream(5)))


def test_scaled_fields_deterministic():
    f1 = _fields(ScalingFamily(n=20), 10, 6)
    f2 = _fields(ScalingFamily(n=20), 10, 6)
    for a, b in zip(f1, f2):
        assert np.array_equal(a, b)


def test_field_in_batch_equals_field_alone(monkeypatch):
    fam = ScalingFamily(n=20)
    rep, ages, positions, counts = _fields(fam, 12, 14)
    monkeypatch.setattr(superprocess, "_FIELD_BATCH", 1)
    alone = list(scaled_fields(fam, 1.0, 12, stream(14)))
    assert len(alone) == 12
    assert counts.sum() > 12
    for r, (rep_r, ages_r, positions_r, counts_r) in enumerate(alone):
        assert np.array_equal(rep_r, np.zeros(counts[r], dtype=np.int64))
        assert np.array_equal(ages_r, ages[rep == r])
        assert np.array_equal(positions_r, positions[rep == r])
        assert counts_r.tolist() == [counts[r]]


def test_mass_criticality():
    # total mass <Y^n_1, 1> = (alive count) / n has mean |nu| = 1
    masses = _fields(ScalingFamily(n=50), 300, 7)[3] / 50
    se = masses.std(ddof=1) / math.sqrt(masses.size)
    assert abs(masses.mean() - 1.0) < 4 * se


def test_scaled_motion_variance_shrinks():
    fam = ScalingFamily(n=100)
    model = fam.model()
    assert model.motion.variance(1.0) == pytest.approx(0.01)
    assert fam.psi_unscaled() == pytest.approx(1.0)


# --- log-Laplace functionals ------------------------------------------------------


def test_laplace_zero_function():
    est = laplace_mc(ScalingFamily(n=20), lambda a, x: np.zeros(np.shape(a)), 1.0, 50, stream(8))
    assert est.value == 0.0


def test_laplace_constant_oracle():
    # u' = -lam u^2 gives c/(1+lam c t); generous CI at modest size
    est = laplace_mc(ScalingFamily(n=100), ONE, 1.0, 400, stream(9))
    assert abs(est.value - 0.5) < 4 * est.stderr + 0.01


def test_laplace_batch_invariance(monkeypatch):
    e1 = laplace_mc(ScalingFamily(n=20), ONE, 1.0, 60, stream(10))
    monkeypatch.setattr(superprocess, "_FIELD_BATCH", 7)
    e2 = laplace_mc(ScalingFamily(n=20), ONE, 1.0, 60, stream(10))
    assert (e1.value, e1.stderr) == (e2.value, e2.stderr)


def test_laplace_age_functional_oracle():
    # f = exp(-a): age-average c0 = lam/(1+lam) = 1/2, then c0/(1 + c0 t)
    est = laplace_mc(ScalingFamily(n=100), parse_test_function("age-exp"), 1.0, 400, stream(11))
    target = 0.5 / 1.5
    assert abs(est.value - target) < 4 * est.stderr + 0.01


def test_cap_applies_to_fields(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_PARTICLE_CAP", 10)
    with pytest.raises(CapExceeded):
        laplace_mc(ScalingFamily(n=200), ONE, 1.0, 5, stream(12))


@pytest.mark.parametrize("batch", [64, 1])
def test_cap_names_the_global_field(monkeypatch, batch):
    # field 95 is the first of 128 to pass 1250 rows; it sits at slot 31 of
    # the second 64-field batch
    monkeypatch.setattr(engine, "DEFAULT_PARTICLE_CAP", 1250)
    monkeypatch.setattr(superprocess, "_FIELD_BATCH", batch)
    with pytest.raises(CapExceeded) as exc:
        for _ in scaled_fields(ScalingFamily(n=20), 1.0, 128, stream(3)):
            pass
    assert exc.value.replicates == [95]
