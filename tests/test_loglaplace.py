import math

import numpy as np
import pytest

from branchlab.loglaplace import (
    GridSpec,
    GridTooCoarse,
    StepTooLarge,
    age_average,
    constant_oracle,
    default_grid,
    integrate_against,
    parse_test_function,
    semigroup_apply,
    solution_csv,
    solve_u,
)
from branchlab.model import ConfigError
from branchlab.superprocess import Intensity

ONE = parse_test_function("const:1")
GAUSS = parse_test_function("gauss")


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, 64, 1e-2, 1.0)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1.0, 8, 1e-2, 1.0)
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1.0, 64, 3e-3, 1.0)  # dt does not divide T
    g = GridSpec(-1.0, 1.0, 64, 1e-2, 1.0)
    assert g.n_steps == 100
    assert g.refined().n_steps == 200


def test_constant_oracle_values():
    assert constant_oracle(1.0, 1.0, 1.0) == 0.5
    assert constant_oracle(0.0, 1.0, 5.0) == 0.0
    assert constant_oracle(2.0, 1.0, 0.0) == 2.0


def test_age_average_constant_exact():
    grid = default_grid(1.0, 1.0, 1.0, nx=64, dt=0.25)
    avg = age_average(ONE, 1.0, grid)
    assert np.allclose(avg, 1.0, atol=1e-12)


def test_age_average_exponential_closed_form():
    grid = default_grid(1.0, 1.0, 1.0, nx=64, dt=0.25)
    f = lambda a, x: np.exp(-np.asarray(a)) * np.ones_like(np.asarray(x, dtype=float))
    avg = age_average(f, 1.0, grid)
    assert np.allclose(avg, 0.5, atol=1e-9)


def test_semigroup_identity_at_zero():
    grid = default_grid(1.0, 1.0, 1.0)
    g = np.sin(grid.xs)
    assert np.array_equal(semigroup_apply(g, 0.0, 1.0, 1.0, grid), g)


def test_semigroup_preserves_constants():
    grid = default_grid(1.0, 1.0, 1.0)
    g = np.full(grid.nx, 0.7)
    out = semigroup_apply(g, 0.5, 1.0, 1.0, grid)
    assert np.allclose(out, 0.7, atol=1e-12)


def test_semigroup_gaussian_closed_form():
    grid = default_grid(1.0, 1.0, 1.0)
    xs = grid.xs
    v0 = 1.0
    g = np.exp(-(xs**2) / (2 * v0)) / math.sqrt(2 * math.pi * v0)
    out = semigroup_apply(g, 0.5, 1.0, 1.0, grid)
    v1 = 1.5
    target = np.exp(-(xs**2) / (2 * v1)) / math.sqrt(2 * math.pi * v1)
    mid = np.abs(xs) < 3
    assert np.max(np.abs(out[mid] - target[mid]) / target[mid]) < 1e-6


def test_semigroup_property():
    grid = default_grid(1.0, 1.0, 1.0)
    g = np.exp(-(grid.xs**2) / 2)
    ab = semigroup_apply(semigroup_apply(g, 0.3, 1.0, 1.0, grid), 0.2, 1.0, 1.0, grid)
    direct = semigroup_apply(g, 0.5, 1.0, 1.0, grid)
    assert np.max(np.abs(ab - direct)) < 1e-6


def test_grid_too_coarse():
    grid = GridSpec(-10.0, 10.0, 32, 1e-4, 1.0)
    with pytest.raises(GridTooCoarse):
        semigroup_apply(np.zeros(32), 1e-4, 1.0, 1.0, grid)


def test_default_grid_spans_the_intensity_and_checks_its_step():
    # the half-width is 10 sqrt(lam psi T), but never below nu's [-7, 7]
    assert default_grid(1.0, 1.0, 1.0).x_hi == 10.0
    grid = default_grid(0.01, 1.0, 0.5, nx=8192)
    assert (grid.x_lo, grid.x_hi) == (-7.0, 7.0)
    assert default_grid(1.0, 0.0, 1.0).x_hi == 7.0  # no motion, no kernel to resolve
    with pytest.raises(GridTooCoarse):  # one step's kernel is narrower than the spacing
        default_grid(0.01, 1.0, 0.5)


def test_step_too_large():
    grid = GridSpec(-5.0, 5.0, 256, 0.5, 1.0)
    with pytest.raises(StepTooLarge):
        solve_u(lambda a, x: 3.0 * ONE(a, x), 1.0, 1.0, grid)


def _sweep_solve(f, lam, psi, grid, max_sweeps=20, sweep_tol=1e-14):
    """solve_u's earlier implicit step: fixed-point sweeps from the previous u,
    on the same carried field c_k as solve_u, so only the endpoint differs."""
    u0 = age_average(f, lam, grid)
    bound = float(u0.max())
    dt = grid.dt
    c, u_prev = u0, u0
    for k in range(1, grid.n_steps + 1):
        w = 0.5 if k == 1 else 1.0
        c = semigroup_apply(c - lam * dt * w * u_prev**2, dt, lam, psi, grid)
        u = u_prev.copy()
        for _ in range(max_sweeps):
            u_new = np.clip(c - 0.5 * lam * dt * u * u, 0.0, None)
            delta = float(np.max(np.abs(u_new - u)))
            u = u_new
            if delta <= sweep_tol * max(bound, 1.0):
                break
        u_prev = u
    return u_prev


@pytest.mark.parametrize("f", [GAUSS, ONE, lambda a, x: 5.0 * ONE(a, x)])
def test_closed_form_step_matches_sweeps(f):
    grid = default_grid(1.0, 1.0, 1.0)
    new = solve_u(f, 1.0, 1.0, grid).final()
    old = _sweep_solve(f, 1.0, 1.0, grid)
    assert np.max(np.abs(new - old)) <= 1e-14 * np.max(old)


def _two_field_solve(f, lam, psi, grid):
    """solve_u's earlier march: the free term H_{t_k} u0 and the trapezoid
    history each advanced by their own convolution, every stored step."""
    u0 = age_average(f, lam, grid)
    dt = grid.dt
    heat = lambda v: semigroup_apply(v, dt, lam, psi, grid)
    values = [u0]
    g, hist = u0.copy(), np.zeros(grid.nx)
    for k in range(1, grid.n_steps + 1):
        g = heat(g)
        hist = heat(hist + (0.5 * u0**2 if k == 1 else values[-1] ** 2))
        b = np.maximum(g - lam * dt * hist, 0.0)
        values.append(2.0 * b / (1.0 + np.sqrt(1.0 + 2.0 * lam * dt * b)))
    return np.array(values)


@pytest.mark.parametrize("refined", [False, True])
@pytest.mark.parametrize(
    "f", [GAUSS, ONE, lambda a, x: 5.0 * ONE(a, x), parse_test_function("age-exp")],
    ids=["gauss", "const1", "const5", "age-exp"],
)
def test_one_carried_field_matches_two_field_march(f, refined):
    grid = default_grid(1.0, 1.0, 1.0)
    if refined:
        grid = grid.refined()
    new = solve_u(f, 1.0, 1.0, grid).values
    old = _two_field_solve(f, 1.0, 1.0, grid)
    assert new.shape == old.shape
    assert np.all(np.max(np.abs(new - old), axis=1) <= 1e-12 * np.max(old, axis=1))


def test_one_convolution_per_step(monkeypatch):
    import branchlab.loglaplace as loglaplace

    calls = []
    real = loglaplace.semigroup_apply
    monkeypatch.setattr(loglaplace, "semigroup_apply", lambda *a: calls.append(1) or real(*a))
    grid = default_grid(1.0, 1.0, 0.5)
    solve_u(GAUSS, 1.0, 1.0, grid)
    assert len(calls) == grid.n_steps


def test_riccati_oracle():
    grid = default_grid(1.0, 1.0, 1.0)
    sol = solve_u(ONE, 1.0, 1.0, grid)
    assert np.max(np.abs(sol.final() - 0.5)) < 1e-4
    # interior times too
    k = grid.n_steps // 2
    assert np.max(np.abs(sol.values[k] - constant_oracle(1.0, 1.0, 0.5))) < 1e-4


def test_zero_function():
    grid = default_grid(1.0, 1.0, 0.5, nx=128, dt=0.05)
    sol = solve_u(lambda a, x: np.zeros(np.broadcast_shapes(np.shape(a), np.shape(x))), 1.0, 1.0, grid)
    assert np.all(sol.values == 0.0)


def test_nonpositive_lambda_rejected():
    # lam scales both the heat flow and the age law, so lam -> 0 has no limit
    # the solver could march; heat flow alone is checked through semigroup_apply
    grid = default_grid(1.0, 1.0, 0.5)
    for lam in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError, match="lam must be positive"):
            solve_u(GAUSS, lam, 1.0, grid)


def test_positivity_and_bound():
    grid = default_grid(1.0, 1.0, 1.0)
    sol = solve_u(GAUSS, 1.0, 1.0, grid)
    assert np.all(sol.values >= 0.0)
    assert np.all(sol.values <= sol.values[0].max() * (1 + 1e-12) + 1e-15)


def test_monotonicity_in_f():
    grid = default_grid(1.0, 1.0, 0.5, nx=512, dt=2e-3)
    lo = solve_u(GAUSS, 1.0, 1.0, grid).final()
    hi = solve_u(lambda a, x: GAUSS(a, x) + 0.3 * ONE(a, x), 1.0, 1.0, grid).final()
    assert np.all(hi >= lo - 1e-10)


def test_self_convergence():
    nu = Intensity()
    grid = default_grid(1.0, 1.0, 0.5)
    base = integrate_against(solve_u(GAUSS, 1.0, 1.0, grid).final(), grid, nu)
    ref = grid.refined()
    fine = integrate_against(solve_u(GAUSS, 1.0, 1.0, ref).final(), ref, nu)
    assert abs(fine - base) < 1e-3 * abs(base)


def test_solution_csv_header_and_size():
    grid = GridSpec(-2.0, 2.0, 16, 0.25, 0.5)
    sol = solve_u(ONE, 1.0, 1.0, grid)
    text = solution_csv(sol, grid.n_steps + 1)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + grid.nx * (grid.n_steps + 1)


def test_named_test_functions():
    a = np.array([0.0, 1.0, 2.0])
    x = np.array([[-1.0], [0.0], [0.5]])
    const = parse_test_function("const:2.5")(a, x)
    assert const.shape == (3, 3) and np.all(const == 2.5)
    assert np.array_equal(parse_test_function("gauss")(a, x), np.exp(-x**2) * np.ones((1, 3)))
    assert np.array_equal(parse_test_function("age-exp")(a, x), np.exp(-a) * np.ones((3, 1)))
    ind = parse_test_function("indicator")(a, x)
    assert ind.dtype == float and ind.tolist() == [[1.0] * 3, [1.0] * 3, [0.0] * 3]
    for bad in ("const:-1", "nope"):
        with pytest.raises(ConfigError):
            parse_test_function(bad)
