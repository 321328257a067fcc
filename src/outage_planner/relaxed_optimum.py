"""Speed-unconstrained lower bound and hover plan by column generation.

Relaxing the UAV speed limit decouples the planning problem across time:
the optimum time-shares a small set of hover locations.  Over a planar
grid of candidate locations this is a linear program in the time shares,
with a column for every grid point and threshold-meeting power vector.
It is solved by Dantzig-Wolfe column generation.  A master LP over the
columns found so far maximizes the served time share subject to the
per-sensor average-power budgets.  Its budget-row duals are prices mu, at
which every grid point has a closed-form cheapest power vector that meets
the SNR threshold exactly (pricing); the cheapest grid point gives the
next column.

Pricing also evaluates the time-normalized Lagrangian dual: with v(mu)
the optimal value of the per-point subproblem (outage indicator plus
priced power cost), v(mu) - sum_k mu_k * budget_k is an outage-probability
lower bound.  The master's outage minus the best such bound certifies how
far the master is from the optimum over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from outage_planner.channel import gain_at
from outage_planner.convex_core import LinearProgram, solve_lp
from outage_planner.scenario import Scenario, ScenarioError

# prices at or below this are treated as zero (degenerate branch)
EPS_MU = 1e-12
DEFAULT_GRID_POINTS = 81   # default location grid resolution per axis
# column generation stops once the master's outage is this close to the
# best dual bound
GAP_TOL = 1e-9
# cap on column-generation iterations (pricing passes)
_MAX_ITERATIONS = 5000


@dataclass(frozen=True)
class GridSpec:
    """Rectangular search grid for the 2D location subproblem.

    Points are ordered row-major with the y index outermost: the flat index
    of (ix, iy) is iy * nx + ix.  Ties in grid searches resolve to the first
    point in this order.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ScenarioError(
                "grid", f"need at least one point per axis, got {self.nx} x {self.ny}"
            )

    @classmethod
    def from_scenario(
        cls, scenario: Scenario, resolution: int = DEFAULT_GRID_POINTS
    ) -> "GridSpec":
        """Bounding box of the sensors expanded by the altitude on each side."""
        xy = scenario.sensor_xy
        h = scenario.altitude
        return cls(
            x_min=float(xy[:, 0].min() - h),
            x_max=float(xy[:, 0].max() + h),
            y_min=float(xy[:, 1].min() - h),
            y_max=float(xy[:, 1].max() + h),
            nx=int(resolution),
            ny=int(resolution),
        )

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1) if self.nx > 1 else 0.0

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1) if self.ny > 1 else 0.0

    def points(self) -> np.ndarray:
        """All grid points, shape (nx * ny, 2), row-major (y outer)."""
        xs = np.linspace(self.x_min, self.x_max, self.nx)
        ys = np.linspace(self.y_min, self.y_max, self.ny)
        gx, gy = np.meshgrid(xs, ys)  # shape (ny, nx)
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class DualPoint:
    """Dual evaluation: prices, dual value, and a supergradient there.

    ``grid_index`` is the flat index of the grid minimizer on the transmit
    branch and None on the outage branch.  ``maximize_dual`` also reports
    its iteration count, the certificate ``gap`` (the master's outage
    minus ``value``; infinite for a single evaluation) and the master's
    positive-time columns, at most K + 1: their grid indices ``columns``,
    powers ``column_powers`` (V, K, watts) and time shares ``shares``.
    """

    mu: np.ndarray
    value: float
    subgradient: np.ndarray
    grid_index: int | None = None
    iterations: int = 0
    gap: float = math.inf
    columns: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    column_powers: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    shares: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass(frozen=True)
class HoverPlan:
    """Time-shared hover locations from the master's optimal columns.

    ``durations`` are seconds per location; unassigned time is outage.
    """

    locations: np.ndarray   # (V, 2)
    powers: np.ndarray      # (V, K) watts while hovering at each location
    durations: np.ndarray   # (V,) seconds, >= 0, sum <= T
    outage: float           # (T - sum durations) / T
    mu: np.ndarray          # prices of the dual bound the plan is checked against


def _amp_target(scenario: Scenario) -> float:
    """Received-amplitude target: sqrt(gamma_min * noise_power)."""
    return math.sqrt(scenario.gamma_min * scenario.noise_power)


def _slot_caps(scenario: Scenario) -> np.ndarray:
    """Per-slot power cap for zero-priced sensors: the whole-horizon budget."""
    return scenario.n_slots * scenario.power_budgets


def _powers_from_gains(
    mu: np.ndarray, g_row: np.ndarray, scenario: Scenario
) -> np.ndarray:
    """Cheapest powers meeting the SNR threshold at one location.

    With all prices positive this is the stationarity solution
    rho_k = amp_target * sqrt(g_k) / (mu_k * sum_j g_j / mu_j), which meets
    the threshold with equality.  Zero-priced sensors are pinned at the
    per-slot cap (they are free, so maximal contribution is optimal) and
    the priced sensors split the residual amplitude the same way.  If no
    sensor is priced and the caps cannot reach the threshold, the caps are
    returned; callers detect that case by checking the achieved SNR.
    """
    b_amp = _amp_target(scenario)
    priced = mu > EPS_MU
    if priced.all():
        s_val = float((g_row / mu).sum())
        rho = b_amp * np.sqrt(g_row) / (mu * s_val)
        return rho**2

    caps = _slot_caps(scenario)
    powers = np.zeros_like(mu)
    free = ~priced
    powers[free] = caps[free]
    amp_free = float(np.sqrt(g_row[free] * caps[free]).sum())
    resid = b_amp - amp_free
    if priced.any() and resid > 0.0:
        s_val = float((g_row[priced] / mu[priced]).sum())
        rho = resid * np.sqrt(g_row[priced]) / (mu[priced] * s_val)
        powers[priced] = rho**2
    return powers


def _checked_prices(mu, scenario: Scenario) -> np.ndarray:
    """mu as a float array; ValueError unless K finite nonnegative prices."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (scenario.n_sensors,):
        raise ValueError(f"mu must have shape ({scenario.n_sensors},)")
    if not np.isfinite(mu).all():
        raise ValueError("prices must be finite")
    if np.any(mu < 0.0):
        raise ValueError("prices must be nonnegative")
    return mu


def powers_given_location(
    mu: np.ndarray, q, scenario: Scenario
) -> np.ndarray:
    """Transmit-branch optimal powers (watts) at planar location q."""
    mu = _checked_prices(mu, scenario)
    g_row = gain_at(np.asarray(q, dtype=float)[None, :], scenario)[0]
    return _powers_from_gains(mu, g_row, scenario)


def _transmit_costs(
    mu: np.ndarray, scenario: Scenario, gains: np.ndarray
) -> np.ndarray:
    """Minimal priced transmit cost at every grid point, shape (M,).

    Infinite entries mark points where the threshold is unreachable (only
    possible when every sensor is zero-priced and capped).
    """
    b_amp = _amp_target(scenario)
    priced = mu > EPS_MU
    if priced.all():
        s_vals = gains @ (1.0 / mu)
        return (b_amp**2) / s_vals

    caps = _slot_caps(scenario)
    free = ~priced
    amp_free = np.sqrt(gains[:, free] * caps[free]).sum(axis=1)
    resid = np.maximum(b_amp - amp_free, 0.0)
    if priced.any():
        s_vals = gains[:, priced] @ (1.0 / mu[priced])
        return resid**2 / s_vals
    costs = np.zeros(gains.shape[0])
    costs[resid > 0.0] = np.inf
    return costs


def _price(mu: np.ndarray, scenario: Scenario, gains: np.ndarray):
    """The dual at checked prices mu over the grid points with channel
    ``gains``, as (value, powers, grid index or None).

    ``powers`` are the cheapest threshold-meeting powers at the first
    (row-major) cheapest grid point, or zeros on the outage branch.
    """
    budgets = scenario.power_budgets
    costs = _transmit_costs(mu, scenario, gains)
    idx = int(costs.argmin())
    cost_min = float(costs[idx])
    if cost_min < 1.0:
        powers = _powers_from_gains(mu, gains[idx], scenario)
        return cost_min - float(mu @ budgets), powers, idx
    return 1.0 - float(mu @ budgets), np.zeros_like(budgets), None


def dual_function(
    mu: np.ndarray, scenario: Scenario, gains: np.ndarray
) -> DualPoint:
    """Evaluate the time-normalized dual and one supergradient at mu.

    ``gains`` is ``gain_at(grid.points(), scenario)``.  The per-point
    subproblem either transmits at the grid point of cheapest priced
    threshold-meeting power (ties resolve to the first point in row-major
    order) or stays silent in outage at cost exactly 1.  value =
    min(1, cheapest transmit cost) - mu @ budgets; the supergradient is the
    minimizing power vector minus the budgets (zero powers on the outage
    branch).  Raises ValueError unless mu holds K finite nonnegative prices.
    """
    mu = _checked_prices(mu, scenario)
    value, powers, idx = _price(mu, scenario, gains)
    return DualPoint(mu.copy(), value, powers - scenario.power_budgets, idx)


def maximize_dual(scenario: Scenario, grid: GridSpec) -> DualPoint:
    """Maximize the dual over the grid by column generation.

    A column is a grid point with its cheapest threshold-meeting powers at
    the prices it was priced at.  The master LP gives each column a time
    share x_j >= 0 and maximizes sum_j x_j subject to one row per budget,
    sum_j powers_jk x_j <= budget_k, and one for the total time, sum_j
    x_j <= 1.  Its budget-row duals are the next prices, starting from
    zero; each iteration prices the whole grid there (``dual_function``),
    keeps the best dual value as the bound, and adds the cheapest point's
    column.  Each master solve goes on from the previous solve's final
    tableau with the new column appended, which leaves it primal feasible.

    The loop stops once the master's outage, 1 - sum_j x_j, is within
    ``GAP_TOL`` of the bound, when no grid point can transmit, or after
    ``_MAX_ITERATIONS`` pricing passes.  Returns the best-bound evaluation
    with the iteration count, the final ``gap`` and the master's
    positive-time columns.
    """
    k = scenario.n_sensors
    budgets = scenario.power_budgets
    gains = gain_at(grid.points(), scenario)
    rows = np.append(budgets, 1.0)
    points: list[int] = []
    table = np.ones((k + 1, _MAX_ITERATIONS))   # column powers over a ones row
    mu = np.zeros(k)
    shares = np.zeros(0)
    master = None
    best: DualPoint | None = None
    for iterations in range(1, _MAX_ITERATIONS + 1):
        value, column, idx = _price(mu, scenario, gains)
        if best is None or value > best.value:
            best = DualPoint(mu, value, column - budgets, idx)
        gap = 1.0 - float(shares.sum()) - best.value
        if gap <= GAP_TOL or idx is None or iterations == _MAX_ITERATIONS:
            break
        table[:k, len(points)] = column
        points.append(idx)
        n = len(points)
        master = solve_lp(
            LinearProgram(-np.ones(n), table[:, :n], rows), start=master
        )
        shares = master.x
        mu = master.duals[:k]

    used = np.flatnonzero(shares > 0.0)
    return replace(
        best,
        iterations=iterations,
        gap=gap,
        columns=np.array(points, dtype=int)[used],
        column_powers=table[:k, used].T,
        shares=shares[used],
    )


def build_hover_plan(
    dual: DualPoint, scenario: Scenario, grid: GridSpec
) -> HoverPlan:
    """Turn the master's positive-time columns into a hover plan.

    ``dual`` is a result of ``maximize_dual`` on ``grid``.  Columns at the
    same grid point merge into one hover location, in row-major grid
    order, with their time-weighted mean powers: the received amplitude is
    concave in the powers, so the mean still meets the threshold up to
    rounding.  Durations are the time shares times the mission duration;
    the unassigned time fraction is the outage.
    """
    k = scenario.n_sensors
    sites, site_of = np.unique(dual.columns, return_inverse=True)
    shares = np.zeros(sites.size)
    np.add.at(shares, site_of, dual.shares)
    energy = np.zeros((sites.size, k))
    np.add.at(
        energy, site_of, dual.shares[:, None] * dual.column_powers.reshape(-1, k)
    )
    t_total = scenario.duration
    durations = t_total * shares
    outage = max(0.0, (t_total - float(durations.sum())) / t_total)
    return HoverPlan(
        grid.points()[sites],
        energy / shares[:, None],
        durations,
        outage,
        dual.mu.copy(),
    )


def solve_relaxed(
    scenario: Scenario, grid: GridSpec | None = None
) -> tuple[DualPoint, HoverPlan]:
    """Full relaxed pipeline: maximize the dual, then build the hover plan."""
    if grid is None:
        grid = GridSpec.from_scenario(scenario)
    dual = maximize_dual(scenario, grid)
    return dual, build_hover_plan(dual, scenario, grid)


def hover_plan_record(plan: HoverPlan, scenario: Scenario) -> dict:
    """JSON-ready summary of a hover plan (powers reported in dBm)."""
    def to_dbm(w: float) -> float | None:
        return None if w <= 0.0 else 10.0 * math.log10(w) + 30.0

    return {
        "outage": plan.outage,
        "mu": [float(v) for v in plan.mu],
        "hover_locations": [
            {
                "x": float(x),
                "y": float(y),
                "duration_s": float(tau),
                "powers_dbm": [to_dbm(float(p)) for p in row],
            }
            for (x, y), tau, row in zip(
                plan.locations, plan.durations, plan.powers
            )
        ],
    }
