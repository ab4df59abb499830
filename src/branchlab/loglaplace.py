"""Deterministic solver for the limiting log-Laplace integral equation.

The unknown u_t(x) satisfies u_t = H_t u_0 - lam * int_0^t H_{t-s}(u_s^2) ds,
where H_t is the heat semigroup with variance lam*psi per unit time and u_0
is the test function averaged over the exponential age marginal.  Time
marching uses trapezoidal Volterra quadrature with the implicit endpoint
solved in closed form (the nonnegative root of a quadratic).  H is linear
and H_{t+dt} = H_dt H_t, so the free term and the quadrature history advance
together as one carried field, and each step costs one Gaussian convolution
regardless of how long the history is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.ndimage import gaussian_filter1d
from scipy.special import roots_laguerre

from .model import ConfigError


class GridTooCoarse(ConfigError):
    pass


class StepTooLarge(ConfigError):
    pass


_LAGUERRE_NODES = 80


@dataclass(frozen=True)
class GridSpec:
    x_lo: float
    x_hi: float
    nx: int
    dt: float
    T: float

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ConfigError("need x_lo < x_hi")
        if self.nx < 16:
            raise ConfigError("need nx >= 16")
        if not (0 < self.dt < math.inf and 0 < self.T < math.inf):
            raise ConfigError("dt and T must be positive and finite")
        steps = round(self.T / self.dt)
        if steps < 1 or abs(steps * self.dt - self.T) > 1e-12 * max(1.0, self.T):
            raise ConfigError(f"dt={self.dt} does not divide T={self.T}")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.nx)

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.nx - 1)

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)

    def refined(self) -> "GridSpec":
        """Halved time step, doubled spatial resolution (for convergence checks)."""
        return GridSpec(self.x_lo, self.x_hi, 2 * self.nx, self.dt / 2.0, self.T)


def _check_coefficients(lam: float, psi: float) -> None:
    if not (0 < lam < math.inf and 0 <= psi < math.inf):
        raise ConfigError(f"lam must be positive and psi nonnegative, both finite, got lam={lam}, psi={psi}")


def default_grid(lam: float, psi: float, T: float, nx: int = 1024, dt: float = 1e-3) -> GridSpec:
    """Domain wide enough that the heat kernel's Gaussian tail at the boundary
    is ~1e-22, and at least [-7, 7], beyond which the intensity's standard
    normal leaves 2.6e-12 of its mass.  GridTooCoarse if one step's kernel is
    narrower than the spacing, so the error comes before any solve."""
    _check_coefficients(lam, psi)
    half = max(10.0 * math.sqrt(lam * psi * T), 7.0)
    grid = GridSpec(-half, half, nx, dt, T)
    if lam * psi:
        _kernel_std(lam * psi * dt, grid)
    return grid


@dataclass(frozen=True)
class GridSolution:
    times: np.ndarray
    values: np.ndarray  # shape (n_steps + 1, nx)
    grid: GridSpec

    def final(self) -> np.ndarray:
        return self.values[-1]


def age_average(f: Callable, lam: float, grid: GridSpec) -> np.ndarray:
    """Average f(age, x) over the exponential(lam) age marginal, per grid node.

    Gauss-Laguerre quadrature: int_0^inf lam e^{-lam a} f(a, x) da with nodes
    y/lam; exact for smooth f to high order, vectorized over the grid."""
    nodes, weights = roots_laguerre(_LAGUERRE_NODES)
    xs = grid.xs
    vals = np.asarray(f(nodes[:, None] / lam, xs[None, :]), dtype=float)
    if vals.shape != (nodes.size, xs.size):
        vals = np.broadcast_to(vals, (nodes.size, xs.size))
    return weights @ vals


def semigroup_apply(g: np.ndarray, t: float, lam: float, psi: float, grid: GridSpec) -> np.ndarray:
    """Heat-semigroup action on a spatial vector: Gaussian convolution with
    variance lam*psi*t, constant extrapolation at the edges."""
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.nx,):
        raise ValueError(f"expected vector of length {grid.nx}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0 or lam * psi == 0:
        return g.copy()
    return gaussian_filter1d(g, _kernel_std(lam * psi * t, grid) / grid.dx, mode="nearest", truncate=10.0)


def _kernel_std(variance: float, grid: GridSpec) -> float:
    """The heat kernel's std, or GridTooCoarse if it is below the spacing."""
    std = math.sqrt(variance)
    if std < grid.dx:
        raise GridTooCoarse(f"kernel std {std:.3g} below grid spacing {grid.dx:.3g}; refine nx or increase t")
    return std


def solve_u(
    f: Callable,
    lam: float,
    psi: float,
    grid: GridSpec,
) -> GridSolution:
    """March the nonlinear Volterra equation to T on the given grid.

    f maps (age, position) to nonnegative reals (broadcastable); lam must be
    positive and psi nonnegative, both finite.  Raises StepTooLarge when
    lam * dt * max(u_0) >= 1: the step would not resolve the fastest decay
    rate lam * u of the quadratic term (the maximum principle keeps
    ||u_t|| <= ||u_0||).
    """
    _check_coefficients(lam, psi)
    u0 = age_average(f, lam, grid)
    if np.any(u0 < 0):
        raise ValueError("test function must be nonnegative")
    bound = float(u0.max())
    if lam * grid.dt * bound >= 1.0:
        raise StepTooLarge(f"lam*dt*||u0|| = {lam * grid.dt * bound:.3g} >= 1")

    n_steps = grid.n_steps
    dt = grid.dt
    times = np.linspace(0.0, grid.T, n_steps + 1)
    values = np.empty((n_steps + 1, grid.nx))
    values[0] = u0

    # c_k = H_{t_k} u0 - lam*dt*(0.5*H_{t_k}(u0^2) + sum_{j=1}^{k-1} H_{t_k - t_j}(u_j^2));
    # H is linear, so c_k = H_dt(c_{k-1} - lam*dt*w_k*u_{k-1}^2), w_1 = 1/2, else 1
    c = u0
    for k in range(1, n_steps + 1):
        w = 0.5 if k == 1 else 1.0
        c = semigroup_apply(c - lam * dt * w * values[k - 1] ** 2, dt, lam, psi, grid)
        # nonnegative root of 0.5*lam*dt*u^2 + u = b, free of cancellation
        b = np.maximum(c, 0.0)
        values[k] = 2.0 * b / (1.0 + np.sqrt(1.0 + 2.0 * lam * dt * b))
    return GridSolution(times, values, grid)


def _ones(a, x):
    return np.ones(np.broadcast_shapes(np.shape(a), np.shape(x)))


# bounded nonnegative test functions f(age, position), by name
_TEST_FUNCTIONS = {
    "gauss": lambda a, x: np.exp(-np.asarray(x, dtype=float) ** 2) * np.ones_like(np.asarray(a, dtype=float)),
    "age-exp": lambda a, x: np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float)),
    "indicator": lambda a, x: (np.asarray(x, dtype=float) <= 0.0) * _ones(a, x),
}


def parse_test_function(name: str) -> Callable:
    """const:<c> (finite c >= 0), gauss = exp(-x^2), age-exp = exp(-a) or
    indicator = 1{x <= 0}, as f(age, position)."""
    if name.startswith("const:"):
        try:
            c = float(name.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad constant in test function {name!r}") from None
        if not 0 <= c < math.inf:
            raise ConfigError(f"const test function {c!r} must be finite and nonnegative")
        return lambda a, x: c * _ones(a, x)
    if name not in _TEST_FUNCTIONS:
        raise ConfigError(f"unknown test function {name!r}; use const:<c>, {', '.join(_TEST_FUNCTIONS)}")
    return _TEST_FUNCTIONS[name]


def constant_oracle(c: float, lam: float, t: float) -> float:
    """Closed form for constant test functions: u' = -lam u^2, u_0 = c."""
    return c / (1.0 + lam * c * t)


def integrate_against(values_row: np.ndarray, grid: GridSpec, nu) -> float:
    """<u, nu> for the product intensity (age marginal integrates out)."""
    pdf = nu.spatial_pdf(grid.xs)
    return float(nu.total_mass * np.trapezoid(values_row * pdf, grid.xs))


def solution_csv(sol: GridSolution, n_times: int) -> str:
    """CSV of (t, x, u) rows at `n_times` evenly spaced steps, t = 0 and T included."""
    lines = ["t,x,u"]
    for k in np.unique(np.round(np.linspace(0, sol.times.size - 1, n_times)).astype(int)):
        t = float(sol.times[k])
        for x, u in zip(sol.grid.xs, sol.values[k]):
            lines.append(f"{t!r},{float(x)!r},{float(u)!r}")
    return "\n".join(lines) + "\n"
