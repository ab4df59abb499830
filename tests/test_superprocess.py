import math

import numpy as np
import pytest

from branchlab.engine import CapExceeded
from branchlab.loglaplace import parse_test_function
from branchlab.model import OffspringLaw
from branchlab import superprocess
from branchlab.rng import stream
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
    with pytest.raises(ValueError):
        Intensity(spatial="cauchy")


def test_poisson_field_moments():
    counts = [sample_poisson_field(100, Intensity(), stream(1, i))[0].size for i in range(400)]
    counts = np.asarray(counts, dtype=float)
    # Poisson(100): mean 100, sd 10
    assert abs(counts.mean() - 100.0) < 3 * 10.0 / math.sqrt(counts.size)


def test_poisson_field_empty():
    ages, pos = sample_poisson_field(100, Intensity(total_mass=0.0), stream(2))
    assert ages.size == 0 and pos.size == 0


def test_poisson_field_deterministic():
    a1, p1 = sample_poisson_field(50, Intensity(), stream(3))
    a2, p2 = sample_poisson_field(50, Intensity(), stream(3))
    assert np.array_equal(a1, a2) and np.array_equal(p1, p2)


def test_poisson_field_marginals():
    ages, pos = sample_poisson_field(20_000, Intensity(age_rate=2.0), stream(4))
    assert abs(ages.mean() - 0.5) < 4 * 0.5 / math.sqrt(ages.size)
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
    with pytest.raises(ValueError):
        next(scaled_fields(ScalingFamily(n=20), 0.001, 5, stream(5)))


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


def test_cap_applies_to_fields():
    with pytest.raises(CapExceeded):
        laplace_mc(ScalingFamily(n=200), ONE, 1.0, 5, stream(12), particle_cap=10)
