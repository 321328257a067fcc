"""Speed-unconstrained lower bound and hover plan by column generation.

Relaxing the UAV speed limit decouples the planning problem across time:
the optimum time-shares a small set of hover locations.  Over a planar
grid of candidate locations this is a linear program in the time shares,
with a column for every grid point and threshold-meeting power vector.
It is solved by Dantzig-Wolfe column generation.  A master LP over the
columns found so far maximizes the served time share subject to the
per-sensor average-power budgets.  At any prices mu every grid point has
a closed-form cheapest power vector that meets the SNR threshold exactly
(pricing); the cheapest grid point gives the next column.  The first pass
prices at zero and the second at uniform prices that spend exactly 1.
After that each pass prices halfway between the master's budget-row
duals and the stability center, the best-bound prices so far after the
first pass (Wentges' dual smoothing), and falls back to the duals
themselves when that column does not improve the master.

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
from outage_planner.scenario import Scenario, ScenarioError, watts_to_dbm

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


def _cap_amplitudes(scenario: Scenario, gains: np.ndarray) -> np.ndarray:
    """Received amplitudes sqrt(g_k * N * B_k) at each point (row of
    ``gains``) of sensors transmitting at their per-slot cap N * B_k, the
    whole-horizon budget."""
    return np.sqrt(gains * (scenario.n_slots * scenario.power_budgets))


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


def _transmit(
    mu: np.ndarray, scenario: Scenario, gains: np.ndarray, amps=None
):
    """Cheapest threshold-meeting powers at checked prices mu over points
    with channel ``gains`` and cap amplitudes ``amps`` (both (M, K); the
    amplitudes are computed here if None and some price is zero).

    Zero-priced sensors are free, so they transmit at their per-slot cap.
    The priced ones split the leftover amplitude r = max(0, b - sum of the
    free amplitudes), b = sqrt(gamma_min * noise_power), as
    rho_k = r * sqrt(g_k) / (mu_k * s) with s = sum_j g_j / mu_j over the
    priced sensors; this meets the threshold with equality at priced cost
    r^2 / s.  Returns (costs, index, powers): that cost at every point,
    shape (M,), infinite where nothing is priced and the caps fall short;
    the first cheapest point's index; and its powers (watts).
    """
    b_amp = math.sqrt(scenario.gamma_min * scenario.noise_power)
    priced = mu > EPS_MU
    all_priced = priced.all()
    if all_priced:
        resid, s_vals = b_amp, gains @ (1.0 / mu)
    else:
        if amps is None:
            amps = _cap_amplitudes(scenario, gains)
        resid = np.maximum(b_amp - amps[:, ~priced].sum(axis=1), 0.0)
        s_vals = gains[:, priced] @ (1.0 / mu[priced])
    with np.errstate(divide="ignore", invalid="ignore"):
        costs = resid**2 / s_vals
    # with nothing priced s = 0: r^2 / 0 is inf where the caps fall short,
    # and 0 / 0 where they reach
    if not priced.any():
        costs[resid == 0.0] = 0.0
    idx = int(costs.argmin())
    r = resid if all_priced else resid[idx]
    powers = np.where(priced, 0.0, scenario.n_slots * scenario.power_budgets)
    if r > 0.0 and priced.any():
        g = gains[idx, priced]
        s_val = float((g / mu[priced]).sum())
        powers[priced] = (r * np.sqrt(g) / (mu[priced] * s_val)) ** 2
    return costs, idx, powers


def powers_given_location(
    mu: np.ndarray, q, scenario: Scenario
) -> np.ndarray:
    """Transmit-branch optimal powers (watts) at planar location q.

    Raises ValueError unless mu holds K finite nonnegative prices and q
    two finite numbers.  If no sensor is priced and the caps cannot reach
    the threshold, the caps are returned; callers detect that case by
    checking the achieved SNR.
    """
    mu = _checked_prices(mu, scenario)
    q = np.asarray(q, dtype=float)
    if q.shape != (2,) or not np.isfinite(q).all():
        raise ValueError("q must be two finite numbers")
    return _transmit(mu, scenario, gain_at(q[None, :], scenario))[2]


def _price(mu: np.ndarray, scenario: Scenario, gains: np.ndarray, amps=None):
    """The dual at checked prices mu over the grid points with channel
    ``gains`` and cap amplitudes ``amps`` (see ``_transmit``), as (value,
    powers, grid index or None).

    ``powers`` are the cheapest threshold-meeting powers at the first
    (row-major) cheapest grid point, or zeros on the outage branch.
    """
    budgets = scenario.power_budgets
    costs, idx, powers = _transmit(mu, scenario, gains, amps)
    if costs[idx] < 1.0:
        return float(costs[idx]) - float(mu @ budgets), powers, idx
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
    """Maximize the dual over the grid by stabilized column generation.

    A column is a grid point with its cheapest threshold-meeting powers at
    the prices it was priced at.  The master LP gives each column a time
    share x_j >= 0 and maximizes sum_j x_j subject to one row per budget,
    sum_j powers_jk x_j <= budget_k, and one for the total time, sum_j
    x_j <= 1; its duals are y (budget rows) and y0 (time row).  Each
    pricing pass prices the whole grid (``dual_function``) and keeps the
    best dual value as the bound.  Each master solve goes on from the
    previous solve's final tableau with the new column appended, which
    leaves it primal feasible.

    The passes are smoothed (Wentges 1997):

    * Start: the first pass prices at zero and adds its column; the second
      prices at the uniform budget-normalized prices 1 / (K * budget_k),
      which spend exactly 1, and adds its column if it transmits.  The
      second is skipped when those prices overflow.
    * Center: the best-bound prices among the passes after the first.  The
      zero-price bound would hold the center at zero for about half the
      passes.
    * Each later pass prices at (center + y) / 2 and adds the column if it
      prices out at the master's duals, 1 - y @ powers - y0 > 0.  If it
      does not, or if nothing transmits there, the next pass prices at y
      itself and adds its column.

    The loop stops once the master's outage, 1 - sum_j x_j, is within
    ``GAP_TOL`` of the bound, when no grid point can transmit at the
    master's duals, or after ``_MAX_ITERATIONS`` pricing passes.  Returns
    the best-bound evaluation with the iteration count, the final ``gap``
    and the master's positive-time columns.
    """
    k = scenario.n_sensors
    budgets = scenario.power_budgets
    gains = gain_at(grid.points(), scenario)
    amps = _cap_amplitudes(scenario, gains)
    rows = np.append(budgets, 1.0)
    with np.errstate(over="ignore"):
        uniform = 1.0 / (k * budgets)
    points: list[int] = []
    table = np.ones((k + 1, _MAX_ITERATIONS))   # column powers over a ones row
    duals = np.zeros(k + 1)   # the master's budget-row duals, then y0
    shares = np.zeros(0)
    master = None
    best: DualPoint | None = None
    center, center_value = None, -math.inf
    # each pass prices at the master's duals, at the uniform prices or at
    # the smoothed prices; an empty master's duals are zero
    mu, kind = np.zeros(k), "duals"
    for iterations in range(1, _MAX_ITERATIONS + 1):
        value, column, idx = _price(mu, scenario, gains, amps)
        if best is None or value > best.value:
            best = DualPoint(mu, value, column - budgets, idx)
        if iterations > 1 and value > center_value:
            center, center_value = mu, value
        gap = 1.0 - float(shares.sum()) - best.value
        if gap <= GAP_TOL or iterations == _MAX_ITERATIONS:
            break
        if idx is not None and (
            kind != "smoothed" or 1.0 - duals[:k] @ column - duals[k] > 0.0
        ):
            table[:k, len(points)] = column
            points.append(idx)
            n = len(points)
            master = solve_lp(
                LinearProgram(-np.ones(n), table[:, :n], rows), start=master
            )
            shares, duals = master.x, master.duals
        elif kind == "smoothed":   # Wentges' fallback
            mu, kind = duals[:k], "duals"
            continue
        elif kind == "duals":   # nothing transmits at the master's duals
            break
        if iterations > 1:
            mu, kind = 0.5 * (center + duals[:k]), "smoothed"
        elif np.isfinite(uniform).all():
            mu, kind = uniform, "uniform"
        else:
            mu = duals[:k]

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
    """JSON-ready summary of a hover plan (powers in dBm, None when zero)."""
    return {
        "outage": plan.outage,
        "mu": [float(v) for v in plan.mu],
        "hover_locations": [
            {
                "x": float(x),
                "y": float(y),
                "duration_s": float(tau),
                "powers_dbm": [
                    None if p <= 0.0 else watts_to_dbm(float(p)) for p in row
                ],
            }
            for (x, y), tau, row in zip(
                plan.locations, plan.durations, plan.powers
            )
        ],
    }
