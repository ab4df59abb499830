import math

import numpy as np
import pytest
from scipy.special import chdtri, ndtri
from scipy.stats import chi2, kstwobign, poisson

from branchlab.engine import Snapshot, iter_runs
from branchlab.model import binary_exponential_model
from branchlab.rng import stream
from branchlab.stats import (
    LEVEL,
    EmptySample,
    HorizonMismatch,
    TooFewSamples,
    UnboundedPhi,
    birth_death_conditioned_pmf,
    birth_death_survival,
    chi_square_gof,
    cvm_critical_value,
    cvm_limit_cdf,
    cvm_two_sample,
    empirical_char_fn,
    empirical_moment,
    estimate_survival_curve,
    independence_statistic,
    ks_distance,
    mean_estimate,
    structural_m2_checks,
)

MODEL = binary_exponential_model()


def _normals(seed, n):
    """n standard normals from the root stream of `seed`."""
    return ndtri(stream(seed).uniform(size=n))


# --- oracles -----------------------------------------------------------------


def test_birth_death_survival_values():
    assert birth_death_survival(1.0, 0.0) == 1.0
    assert birth_death_survival(1.0, 20.0) == 2.0 / 22.0
    assert abs(birth_death_survival(2.0, 10.0) - 2.0 / 22.0) < 1e-15


def test_birth_death_pmf_normalizes():
    k = np.arange(1, 4000)
    p = birth_death_conditioned_pmf(1.0, 10.0, k)
    assert abs(p.sum() - 1.0) < 1e-12
    mean = float((k * p).sum())
    assert abs(mean - 6.0) < 1e-9


# --- survival curve ----------------------------------------------------------


def test_survival_curve_t_zero_exact():
    [pt] = estimate_survival_curve(MODEL, [0.0], 500, stream(1))
    assert pt.p_hat == 1.0
    assert pt.t_p_hat == 0.0
    assert pt.target_limit == 2.0


def test_survival_curve_matches_oracle():
    [pt] = estimate_survival_curve(MODEL, [5.0], 40_000, stream(2))
    exact = birth_death_survival(1.0, 5.0)
    assert abs(pt.p_hat - exact) < 4 * pt.stderr


def test_stderr_shrinks_with_reps():
    [small] = estimate_survival_curve(MODEL, [5.0], 10_000, stream(3))
    [big] = estimate_survival_curve(MODEL, [5.0], 40_000, stream(3))
    assert big.stderr == pytest.approx(small.stderr / 2.0, rel=0.1)


# --- KS ---------------------------------------------------------------------


def test_ks_null_calibration():
    # samples drawn from the target itself pass at level 1e-3 nearly always
    fails = 0
    for i in range(200):
        u = stream(100, i).uniform(size=10_000)
        rep = ks_distance(u, lambda x: np.clip(x, 0, 1))
        fails += not rep.passed
    assert fails <= 1  # >= 99.5% pass rate


def test_ks_constant_sample_fails():
    rep = ks_distance(np.full(100, 0.3), lambda x: np.clip(x, 0, 1))
    assert rep.statistic >= 0.5
    assert not rep.passed


def test_ks_perfect_quantiles():
    n = 1000
    sample = (np.arange(1, n + 1) - 0.5) / n
    rep = ks_distance(sample, lambda x: np.clip(x, 0, 1))
    assert rep.statistic <= 1.0 / n


def test_ks_empty():
    with pytest.raises(EmptySample):
        ks_distance([], lambda x: x)


# --- chi-square --------------------------------------------------------------


def test_chi_square_null_calibration():
    # geometric samples via inverse CDF against their own pmf
    lam, t = 1.0, 10.0
    p = 1.0 / 6.0
    fails = 0
    for i in range(100):
        u = stream(200, i).uniform(size=2000)
        counts = 1 + np.floor(np.log1p(-u) / np.log1p(-p)).astype(int)
        rep = chi_square_gof(counts, lambda k: birth_death_conditioned_pmf(lam, t, k))
        fails += not rep.passed
    assert fails <= 2


def test_chi_square_pools_low_and_high_tails():
    # a law whose mass starts far above k=1 keeps its bulk cells
    draws = poisson.ppf(stream(5).uniform(size=5000), 100.0).astype(int)
    same = chi_square_gof(draws, lambda k: poisson.pmf(k, 100.0))
    shifted = chi_square_gof(draws, lambda k: poisson.pmf(k, 103.0))
    assert same.passed
    assert not shifted.passed
    assert int(shifted.target.split()[2]) > 30  # degrees of freedom
    with pytest.raises(ValueError):
        chi_square_gof(np.append(draws, 0), lambda k: poisson.pmf(k, 100.0))


def test_independence_null_calibration():
    fails = 0
    for i in range(100):
        s = stream(300, i)
        pairs = np.column_stack([s.uniform(size=2000), s.uniform(size=2000)])
        rep = independence_statistic(pairs)
        fails += not rep.passed
    assert fails <= 2


def test_independence_detects_dependence():
    u = stream(5).uniform(size=2000)
    rep = independence_statistic(np.column_stack([u, u]))
    assert not rep.passed


def test_independence_too_few():
    with pytest.raises(TooFewSamples):
        independence_statistic(np.zeros((10, 2)))


def test_thresholds_are_scipy_stats_quantiles():
    u = stream(6).uniform(size=2000)
    ks = ks_distance(u, lambda x: np.clip(x, 0, 1))
    assert ks.threshold == kstwobign.isf(LEVEL) / math.sqrt(u.size)
    draws = poisson.ppf(u, 100.0).astype(int)
    gof = chi_square_gof(draws, lambda k: poisson.pmf(k, 100.0))
    df = int(gof.target.split()[2])
    assert df > 20 and gof.threshold == chi2.isf(LEVEL, df)
    indep = independence_statistic(np.column_stack([u, u[::-1]]))
    assert indep.threshold == chi2.isf(LEVEL, 9)
    # every df a chi-square row can reach here, bit for bit
    assert all(chdtri(df, LEVEL) == chi2.isf(LEVEL, df) for df in range(1, 200))


# --- CvM --------------------------------------------------------------------


def test_cvm_limit_cdf_against_scipy():
    from scipy.stats import cramervonmises

    # one-sample CvM p-values use the same limiting law; compare at the
    # statistic scipy reports for a fixed sample
    u = stream(7).uniform(size=500)
    res = cramervonmises(u, "uniform")
    ours = 1.0 - cvm_limit_cdf(res.statistic)
    assert ours == pytest.approx(res.pvalue, abs=5e-3)


def test_cvm_critical_value_monotone():
    assert cvm_critical_value() == pytest.approx(1.16786, abs=2e-3)  # LEVEL = 0.001


def test_cvm_critical_value_is_the_solved_root():
    from scipy.optimize import brentq

    root = brentq(lambda x: cvm_limit_cdf(x) - (1.0 - LEVEL), 0.02, 10.0, xtol=1e-10)
    assert cvm_critical_value() == root


def test_cvm_two_sample_against_scipy():
    from scipy.stats import cramervonmises_2samp

    x = _normals(8, 400)
    y = _normals(9, 300)
    ours = cvm_two_sample(x, y)
    theirs = cramervonmises_2samp(x, y, method="asymptotic")
    assert ours.statistic == pytest.approx(theirs.statistic, rel=1e-10)


def test_cvm_two_sample_detects_shift():
    x = _normals(10, 2000)
    y = _normals(11, 2000) + 0.5
    assert not cvm_two_sample(x, y).passed


# --- moments ----------------------------------------------------------------


def _snap(ages, positions, t):
    ids = np.arange(len(ages))
    return Snapshot(np.asarray(ages, float), np.asarray(positions, float), ids, t)


def test_empirical_moment_constant_phi():
    snaps = [_snap([1.0, 2.0], [0.5, -0.5], 4.0), _snap([0.3], [1.0], 4.0)]
    for k in (1, 2, 3):
        est = empirical_moment(snaps, lambda a, x: np.ones_like(np.asarray(a)), k, 4.0)
        assert est.value == 1.0
        assert est.stderr == 0.0


def test_empirical_moment_scales_positions():
    snaps = [_snap([0.0], [2.0], 4.0)]
    est = empirical_moment(snaps, lambda a, x: np.asarray(x) <= 0.99, 1, 4.0)
    # position 2.0 scaled by sqrt(4) = 1.0 -> indicator false
    assert est.value == 0.0


def test_empirical_moment_horizon_mismatch():
    snaps = [_snap([1.0], [0.0], 4.0), _snap([1.0], [0.0], 5.0)]
    with pytest.raises(HorizonMismatch):
        empirical_moment(snaps, lambda a, x: np.ones_like(np.asarray(a)), 1, 4.0)


def test_unbounded_phi_rejected():
    snaps = [_snap([1.0], [0.0], 4.0)]
    with pytest.raises(UnboundedPhi):
        empirical_moment(snaps, lambda a, x: np.asarray(x), 1, 4.0)


def test_char_fn_theta_zero():
    est = empirical_char_fn(_normals(1, 100), 0.0)
    assert est.value == 1.0 + 0.0j


def test_char_fn_gaussian():
    z = _normals(2, 100_000)
    est = empirical_char_fn(z, 1.0)
    assert abs(est.value.real - math.exp(-0.5)) < 4 * est.stderr_real
    assert abs(est.value.imag) < 4 * est.stderr_imag


def test_char_fn_empty():
    with pytest.raises(EmptySample):
        empirical_char_fn([], 1.0)


# --- m2 ----------------------------------------------------------------------


def test_m2_constant_phi_is_exactly_one():
    runs = iter_runs(MODEL, 10.0, stream(40), 300, conditioned=True)
    [rep] = structural_m2_checks(
        MODEL, runs, [lambda a, x: np.ones(np.broadcast_shapes(np.shape(a), np.shape(x)))], stream(41)
    )
    assert rep.direct.value == 1.0
    assert rep.plugin.value == 1.0
    assert rep.report.passed


def test_m2_age_only_plugin_matches_closed_form():
    runs = iter_runs(MODEL, 30.0, stream(42), 1200, conditioned=True)
    phi = lambda a, x: np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float))
    [rep] = structural_m2_checks(MODEL, runs, [phi], stream(43))
    # plug-in side uses exact independent limit ages: E e^-U1 e^-U2 = 0.25
    assert abs(rep.plugin.value - 0.25) < 5 * rep.plugin.stderr


def test_m2_too_few():
    with pytest.raises(TooFewSamples):
        structural_m2_checks(MODEL, iter(()), [lambda a, x: np.ones(1)], stream(44))


def test_mean_estimate_basics():
    est = mean_estimate([1.0, 2.0, 3.0, 4.0])
    assert est.value == 2.5
    assert est.n == 4
    assert est.stderr == pytest.approx(np.std([1, 2, 3, 4], ddof=1) / 2.0)
