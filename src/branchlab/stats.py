"""Estimators and hypothesis tests for the limit laws.

Every test reports a TestReport whose pass criterion is statistic <=
threshold at the test level LEVEL = 0.001.  Closed-form birth-death
oracles for the reference binary-exponential model live here too: they give
exact finite-horizon laws against which the simulator is falsifiable without
any asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import chdtri, gamma as gamma_fn, kolmogi, kv, ndtri

from .engine import RunRecord, survival_counts
from .genealogy import coalescence_times, sample_survivors
from .model import ValidatedModel, limit_age_ppf
from .rng import RandomStream

LEVEL = 1e-3  # level of every hypothesis test
_PHI_PROBE_BOUND = 1e6
_MIN_EXPECTED = 5.0  # chi-square cells are pooled below this expected count
_INDEPENDENCE_BINS = 4  # quantile bins per axis of the independence table
_CVM_TERMS = 8  # Bessel-K series terms of the limiting CvM cdf
_M2_SIGMA = 3.0  # structural_m2_checks band, in combined stderr


class EmptySample(ValueError):
    pass


class TooFewSamples(ValueError):
    pass


class HorizonMismatch(ValueError):
    pass


class UnboundedPhi(ValueError):
    pass


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    n: int


@dataclass(frozen=True)
class ComplexEstimate:
    value: complex
    stderr_real: float
    stderr_imag: float
    n: int


@dataclass(frozen=True)
class TestReport:
    statistic: float
    threshold: float
    passed: bool
    n: int
    target: str


def _report(statistic: float, threshold: float, n: int, target: str) -> TestReport:
    return TestReport(float(statistic), float(threshold), bool(statistic <= threshold), int(n), target)


def mean_estimate(values) -> Estimate:
    v = np.asarray(values, dtype=float)
    return Estimate(float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size)) if v.size > 1 else 0.0, v.size)


# ---------------------------------------------------------------------------
# exact birth-death oracles (reference model: exp(lam) lifetimes, (1/2,0,1/2))
# ---------------------------------------------------------------------------


def birth_death_survival(lam: float, t: float) -> float:
    """P(N_t > 0) for the binary-exponential model: 2 / (2 + lam t).

    The extinction probability s(t) solves the Riccati flow s' = (lam/2)(1-s)^2
    started at s(0)=0, giving s = lam t / (2 + lam t)."""
    return 2.0 / (2.0 + lam * t)


def birth_death_conditioned_pmf(lam: float, t: float, k) -> np.ndarray:
    """P(N_t = k | N_t > 0): geometric on {1,2,...} with mean 1 + lam t / 2."""
    k = np.asarray(k, dtype=float)
    p = 1.0 / (1.0 + lam * t / 2.0)
    return p * (1.0 - p) ** (k - 1.0)


# ---------------------------------------------------------------------------
# survival curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurvivalPoint:
    t: float
    p_hat: float
    stderr: float
    t_p_hat: float
    target_limit: float
    reps: int


def estimate_survival_curve(
    model: ValidatedModel,
    horizons: Sequence[float],
    reps: int,
    rng: RandomStream,
) -> list[SurvivalPoint]:
    """Frequency estimate of P(A_t) per horizon from unconditioned runs.

    Horizon i uses the substream rng.child(i).  The limit target
    2*mu/sigma^2 rides along in every row for t*P comparison."""
    target = 2.0 * model.mu / model.sigma2
    out = []
    for i, t in enumerate(horizons):
        counts = survival_counts(model, float(t), rng.child(i), reps)
        p = float((counts > 0).mean())
        se = math.sqrt(max(p * (1.0 - p), 1e-300) / reps)
        out.append(SurvivalPoint(float(t), p, se, float(t) * p, target, reps))
    return out


# ---------------------------------------------------------------------------
# goodness-of-fit machinery
# ---------------------------------------------------------------------------


def ks_distance(sample, cdf: Callable) -> TestReport:
    """Two-sided one-sample Kolmogorov-Smirnov test with asymptotic threshold."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n == 0:
        raise EmptySample("KS needs a nonempty sample")
    F = np.asarray(cdf(x), dtype=float)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    d = max(float(np.max(hi - F)), float(np.max(F - lo)))
    threshold = float(kolmogi(LEVEL)) / math.sqrt(n)
    return _report(d, threshold, n, f"KS vs target cdf at level {LEVEL}")


def chi_square_gof(counts, pmf: Callable) -> TestReport:
    """Chi-square GOF of integer observations against an exact pmf on {1,2,...}.

    Cells below the first one whose expected count reaches _MIN_EXPECTED are
    pooled into it; cells from the next one that falls under _MIN_EXPECTED
    onward are pooled into one tail cell."""
    obs = np.asarray(counts, dtype=np.int64)
    n = obs.size
    if n == 0:
        raise EmptySample("chi-square needs observations")
    if obs.min() < 1:
        raise ValueError("chi-square observations must lie in {1, 2, ...}")
    kmax = int(obs.max())
    ks = np.arange(1, kmax + 1)
    expected = n * np.asarray(pmf(ks), dtype=float)
    big = np.flatnonzero(expected >= _MIN_EXPECTED)
    lo = int(big[0]) if big.size else 0  # cells 0..lo form the low cell
    small = np.flatnonzero(expected[lo:] < _MIN_EXPECTED)
    hi = max(lo + int(small[0]) if small.size else kmax, lo + 1)  # tail is k > hi
    obs_cells = np.array(
        [np.sum(obs <= lo + 1)] + [np.sum(obs == k) for k in range(lo + 2, hi + 1)]
        + [np.sum(obs > hi)],
        dtype=float,
    )
    exp_cells = np.concatenate(
        [[expected[: lo + 1].sum()], expected[lo + 1 : hi], [n - expected[:hi].sum()]]
    )
    keep = exp_cells > 0
    stat = float(np.sum((obs_cells[keep] - exp_cells[keep]) ** 2 / exp_cells[keep]))
    df = int(keep.sum()) - 1
    threshold = float(chdtri(df, LEVEL))
    return _report(stat, threshold, n, f"chi2 GOF, {df} df, level {LEVEL}")


def cvm_limit_cdf(x: float) -> float:
    """CDF of the asymptotic Cramer-von Mises distribution.

    Classical Bessel-K series; eight terms give full double precision for
    x >= 0.02."""
    if x <= 0:
        return 0.0
    total = 0.0
    for j in range(_CVM_TERMS):
        c = gamma_fn(j + 0.5) * math.sqrt(4 * j + 1) / (gamma_fn(0.5) * gamma_fn(j + 1))
        arg = (4 * j + 1) ** 2 / (16.0 * x)
        if arg > 700:
            continue
        total += c * math.exp(-arg) * kv(0.25, arg)
    return float(total / (math.pi * math.sqrt(x)))


def cvm_critical_value() -> float:
    """Upper LEVEL quantile of the asymptotic Cramer-von Mises law: the root of
    cvm_limit_cdf(x) = 1 - LEVEL, solved once (brentq, xtol 1e-10) and pinned."""
    return 1.1678582965695705


def cvm_two_sample(x, y) -> TestReport:
    """Two-sample Cramer-von Mises test with asymptotic threshold."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = x.size, y.size
    if n == 0 or m == 0:
        raise EmptySample("CvM needs two nonempty samples")
    z = np.concatenate([x, y])
    ranks = np.argsort(np.argsort(z, kind="mergesort"), kind="mergesort") + 1
    rx = np.sort(ranks[:n])
    ry = np.sort(ranks[n:])
    i = np.arange(1, n + 1)
    j = np.arange(1, m + 1)
    u = n * np.sum((rx - i) ** 2) + m * np.sum((ry - j) ** 2)
    big_n = n + m
    stat = u / (n * m * big_n) - (4 * n * m - 1) / (6.0 * big_n)
    return _report(stat, cvm_critical_value(), n + m, f"two-sample CvM at level {LEVEL}")


# ---------------------------------------------------------------------------
# empirical-measure functionals
# ---------------------------------------------------------------------------


def _probe_phi(phi: Callable) -> None:
    probes = [(0.0, 0.0), (1e9, 0.0), (0.0, 1e9), (0.0, -1e9), (1e9, 1e9)]
    for a, x in probes:
        val = float(np.max(np.abs(phi(np.full(1, a), np.full(1, x)))))
        if not math.isfinite(val) or val > _PHI_PROBE_BOUND:
            raise UnboundedPhi(f"|phi({a}, {x})| = {val!r}; bounded test functions required")


def empirical_moment(snapshots, phi: Callable, k: int, horizon: float) -> Estimate:
    """Mean over runs of (N^{-1} sum_i phi(age_i, x_i / sqrt(t)))^k."""
    if not snapshots:
        raise EmptySample("no snapshots")
    _probe_phi(phi)
    scale = math.sqrt(horizon) if horizon > 0 else 1.0
    vals = []
    for snap in snapshots:
        if snap.horizon != horizon:
            raise HorizonMismatch(f"snapshot at t={snap.horizon}, expected {horizon}")
        w = float(np.mean(phi(snap.ages, snap.positions / scale)))
        vals.append(w**k)
    return mean_estimate(vals)


def independence_statistic(pairs) -> TestReport:
    """Chi-square independence test on a quantile-binned contingency table."""
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be an (n, 2) array")
    n = arr.shape[0]
    if n < 1000:
        raise TooFewSamples(f"need >= 1000 pairs, got {n}")
    bins = _INDEPENDENCE_BINS
    qs = np.linspace(0, 1, bins + 1)[1:-1]
    ix = np.searchsorted(np.quantile(arr[:, 0], qs), arr[:, 0], side="right")
    iy = np.searchsorted(np.quantile(arr[:, 1], qs), arr[:, 1], side="right")
    table = np.zeros((bins, bins))
    np.add.at(table, (ix, iy), 1.0)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row * col / n
    stat = float(np.sum((table - expected) ** 2 / expected))
    df = (bins - 1) ** 2
    threshold = float(chdtri(df, LEVEL))
    return _report(stat, threshold, n, f"chi2 independence, {df} df, level {LEVEL}")


def empirical_char_fn(sample, theta: float) -> ComplexEstimate:
    """Empirical characteristic function at theta with per-component stderr."""
    x = np.asarray(sample, dtype=float)
    if x.size == 0:
        raise EmptySample("empty sample for characteristic function")
    re = np.cos(theta * x)
    im = np.sin(theta * x)
    n = x.size
    return ComplexEstimate(
        value=complex(re.mean(), im.mean()),
        stderr_real=float(re.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        stderr_imag=float(im.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        n=n,
    )


# ---------------------------------------------------------------------------
# second-moment decoupling structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class M2Report:
    direct: Estimate
    plugin: Estimate
    report: TestReport


def structural_m2_checks(
    model: ValidatedModel,
    runs: Iterable[RunRecord],
    phis: Sequence[Callable],
    rng: RandomStream,
) -> list[M2Report]:
    """Self-consistency test of the two-particle decoupling structure.

    Side A: direct pair functional E[phi(a1, x1/sqrt(t)) phi(a2, x2/sqrt(t))]
    over one sampled survivor pair per conditioned run.  Side B: plug-in
    resample with independent ages from the limit age law, positions built as
    sqrt(T) S + sqrt(1-T) V_i with S, V_i Normal(0, psi/mu) and T drawn from
    the empirical split-time sample tau/t of the same runs.  Passes when
    |A - B| <= _M2_SIGMA * combined stderr.  One streaming pass serves all
    test functions."""
    for phi in phis:
        _probe_phi(phi)
    a_vals: list[list[float]] = [[] for _ in phis]
    tau_over_t: list[float] = []
    horizon = None
    n_runs = 0
    for idx, run in enumerate(runs):
        horizon = run.snapshot.horizon
        if run.snapshot.n_alive < 2:
            continue
        s = rng.child(idx)
        ids = sample_survivors(run, 2, s)
        cs = coalescence_times(run, ids)
        tau_over_t.append(float(cs.tau[0]) / horizon)
        scale = math.sqrt(horizon)
        a1 = run.snapshot.ages[np.searchsorted(run.snapshot.ids, ids[0])]
        a2 = run.snapshot.ages[np.searchsorted(run.snapshot.ids, ids[1])]
        x1 = run.snapshot.positions[np.searchsorted(run.snapshot.ids, ids[0])] / scale
        x2 = run.snapshot.positions[np.searchsorted(run.snapshot.ids, ids[1])] / scale
        for p_i, phi in enumerate(phis):
            a_vals[p_i].append(float(phi(np.asarray(a1), np.asarray(x1))) * float(phi(np.asarray(a2), np.asarray(x2))))
        n_runs += 1
    if n_runs < 2:
        raise TooFewSamples("need at least two runs with N_t >= 2")

    taus = np.asarray(tau_over_t)
    m = taus.size
    boot = rng.child(1 << 20)
    t_idx = np.minimum((boot.uniform(size=m) * m).astype(int), m - 1)
    T = taus[t_idx]
    sd = math.sqrt(model.psi / model.mu)
    S = sd * np.asarray(ndtri(boot.uniform(size=m)))
    V1 = sd * np.asarray(ndtri(boot.uniform(size=m)))
    V2 = sd * np.asarray(ndtri(boot.uniform(size=m)))
    U1 = limit_age_ppf(model, boot.uniform(size=m))
    U2 = limit_age_ppf(model, boot.uniform(size=m))
    X1 = np.sqrt(T) * S + np.sqrt(1.0 - T) * V1
    X2 = np.sqrt(T) * S + np.sqrt(1.0 - T) * V2

    out = []
    for p_i, phi in enumerate(phis):
        a_est = mean_estimate(a_vals[p_i])
        b_est = mean_estimate(np.asarray(phi(U1, X1), dtype=float) * np.asarray(phi(U2, X2), dtype=float))
        diff = abs(a_est.value - b_est.value)
        bound = _M2_SIGMA * math.hypot(a_est.stderr, b_est.stderr)
        out.append(
            M2Report(
                direct=a_est,
                plugin=b_est,
                report=_report(diff, bound, n_runs, f"|direct - plugin| <= {_M2_SIGMA} sigma"),
            )
        )
    return out
