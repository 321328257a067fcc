"""Speed-unconstrained lower bound via Lagrangian duality.

Relaxing the UAV speed limit decouples the planning problem across time:
the optimum time-shares a small set of hover locations.  Dualizing the
per-sensor average-power budgets with prices mu gives, at each candidate
location, a closed-form cheapest power vector that meets the SNR threshold
exactly.  The dual function is maximized with the ellipsoid method over the
price box, and a primal hover plan is recovered from the near-tied grid
minimizers by a small time-sharing LP.

The dual is time-normalized: with v(mu) the optimal value of the per-point
subproblem (outage indicator plus priced power cost), the dual value is
v(mu) - sum_k mu_k * budget_k, an outage-probability lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from outage_planner.channel import gain_at, snr
from outage_planner.convex_core import LinearProgram, solve_lp
from outage_planner.scenario import Scenario, ScenarioError

# prices at or below this are treated as zero (degenerate branch)
EPS_MU = 1e-12
# relative tie tolerance for collecting grid minimizers into the hover set
EPS_TIE = 1e-6
DEFAULT_GRID_POINTS = 81   # default location grid resolution per axis
# grid steps within which candidate pruning looks for a dominating point;
# on paper.json's 81 x 81 grid 2 keeps 1,738 points, 3 keeps 1,686 but
# doubles the search
_REACH = 2
# a dominator that follows a point in row-major order must beat each of its
# gains by this factor, so that no rounding can let the point cost less
_STRICT = 1.0 + 1e-12
# the candidate table ends with the grid's last rows, aligned modulo this
_TAIL = 16


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
    branch and None on the outage branch.
    """

    mu: np.ndarray
    value: float
    subgradient: np.ndarray
    grid_index: int | None = None
    iterations: int = 0


@dataclass(frozen=True)
class HoverPlan:
    """Time-shared hover locations recovered from the dual optimum.

    ``durations`` are seconds per location; unassigned time is outage.
    """

    locations: np.ndarray   # (V, 2)
    powers: np.ndarray      # (V, K) watts while hovering at each location
    durations: np.ndarray   # (V,) seconds, >= 0, sum <= T
    outage: float           # (T - sum durations) / T
    mu: np.ndarray          # prices the plan was built from


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


def _undominated(gains: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mask of the grid points that can be the cheapest with every price
    positive, flat in row-major order.

    There a point's transmit cost b^2 / (gains @ (1 / mu)) falls as any of
    its gains rises, and float rounding is monotone, so a point never costs
    less than another whose gains are >= its own in every component.  A
    point is masked out when such a dominator within ``_REACH`` grid steps
    comes first in row-major order (it wins a tie) or beats every one of
    its gains by the factor ``_STRICT`` (no rounding can close the gap).
    """
    k = gains.shape[1]
    cube = gains.reshape(grid.ny, grid.nx, k)
    strict = cube * _STRICT
    dominated = np.zeros((grid.ny, grid.nx), dtype=bool)

    def overlap(size, step):  # the ranges of p and p + step, both on grid
        lo = max(0, -step)
        hi = max(lo, min(size, size - step))
        return slice(lo, hi), slice(lo + step, hi + step)

    for ddy in range(-_REACH, _REACH + 1):
        py, dy = overlap(grid.ny, ddy)
        for ddx in range(-_REACH, _REACH + 1):
            if ddy == ddx == 0:
                continue
            px, dx = overlap(grid.nx, ddx)
            first = ddy < 0 or (ddy == 0 and ddx < 0)
            beaten = cube if first else strict
            dominated[py, px] |= (cube[dy, dx] >= beaten[py, px]).all(axis=2)
    return ~dominated.ravel()


def _candidate_table(
    gains: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``gains`` that ``keep`` marks, laid out so that their
    products with a weight vector equal those of the whole array bit for
    bit, as (table, rows): rows[j] is the index in ``gains`` of table row j.

    BLAS gemv kernels round the last few rows of an array (its length
    modulo the kernel's block of rows) differently from the rest.  So the
    table ends with the last ``_TAIL`` rows of ``gains``, kept or not,
    behind filler rows that make its length congruent to that of ``gains``
    modulo ``_TAIL``: every row then sits where both products round it
    alike.  Filler rows (rows entry -1) hold half the least gain of each
    column, so with positive weights they cost at least twice what any
    point costs.
    """
    m, k = gains.shape
    tail = max(m - _TAIL, 0)
    head = np.flatnonzero(keep[:tail])
    n_fill = (tail - head.size) % _TAIL
    table = np.concatenate([
        gains[head],
        np.broadcast_to(0.5 * gains.min(axis=0), (n_fill, k)),
        gains[tail:],
    ])
    rows = np.concatenate([head, np.full(n_fill, -1), np.arange(tail, m)])
    return table, rows


def _dual_evaluator(
    scenario: Scenario, gains: np.ndarray, keep: np.ndarray | None = None
):
    """The dual over the grid points with channel ``gains``, as a function
    mu -> (value, supergradient, grid index or None) of checked prices.

    Prices that are all above ``EPS_MU`` are charged only on the points
    that ``keep`` marks (all by default), through ``_candidate_table``;
    ``keep`` must hold every point that can be the first cheapest one, as
    ``_undominated`` does.  With a zero-priced sensor the capped costs can
    tie at 0 between any points, so such prices are charged on every point.
    """
    budgets = scenario.power_budgets
    b_amp = _amp_target(scenario)
    b2 = b_amp**2
    if keep is None:
        keep = np.ones(gains.shape[0], dtype=bool)
    table, rows = _candidate_table(gains, keep)
    roots = np.sqrt(table)

    def evaluate(mu):
        if mu.min() > EPS_MU:
            # the all-priced branches of _transmit_costs and
            # _powers_from_gains, on the table
            costs = b2 / (table @ (1.0 / mu))
            j = int(costs.argmin())
            cost_min = float(costs[j])
            if cost_min < 1.0:
                s_val = float((table[j] / mu).sum())
                rho = b_amp * roots[j] / (mu * s_val)
                value = cost_min - float(mu @ budgets)
                return value, rho**2 - budgets, int(rows[j])
        else:
            costs = _transmit_costs(mu, scenario, gains)
            idx = int(costs.argmin())
            cost_min = float(costs[idx])
            if cost_min < 1.0:
                powers = _powers_from_gains(mu, gains[idx], scenario)
                return cost_min - float(mu @ budgets), powers - budgets, idx
        return 1.0 - float(mu @ budgets), -budgets, None

    return evaluate


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
    value, subgradient, idx = _dual_evaluator(scenario, gains)(mu)
    return DualPoint(mu.copy(), value, subgradient, idx)


def default_mu_box(scenario: Scenario) -> float:
    """Upper edge of the price box searched by the ellipsoid method."""
    k = scenario.n_sensors
    return 2.0 / (k * float(scenario.power_budgets.min()))


def maximize_dual(scenario: Scenario, grid: GridSpec) -> DualPoint:
    """Maximize the dual over the price box with the ellipsoid method.

    The initial ellipsoid is the ball circumscribing [0, mu_max]^K with
    mu_max = 2 / (K * min_k budget_k).  Centers with a negative component
    receive a feasibility cut on the lowest violating coordinate; feasible
    centers receive an objective cut from the supergradient.  The search
    stops when the ellipsoid volume has shrunk by ``vol_tol`` = 1e-8**K
    relative to the start (an 1e-8 per-axis length scale) or after
    ``max_iter`` cuts, and returns the best evaluated center.

    Each objective cut prices only the grid points that can be the
    cheapest (``_undominated``: on ``paper.json``'s 81 x 81 grid, about a
    quarter of them), except at centers with a price at or below
    ``EPS_MU``, which price the whole grid.  The result is bit for bit the
    one of pricing every grid point at every cut.
    """
    k = scenario.n_sensors
    vol_tol = float(1e-8**k)
    # twice the central-cut iteration estimate for this vol_tol
    max_iter = int(75 * k * (k + 1)) + 500

    gains = gain_at(grid.points(), scenario)
    evaluate = _dual_evaluator(scenario, gains, _undominated(gains, grid))
    mu_max = default_mu_box(scenario)

    center = np.full(k, mu_max / 2.0)
    radius = (mu_max / 2.0) * math.sqrt(k)
    shape = np.eye(k) * radius**2  # ellipsoid {z: (z-c)^T shape^-1 (z-c) <= 1}

    if k == 1:
        shrink_log = math.log(0.5)
    else:
        shrink_log = math.log(k / (k + 1.0)) + 0.5 * (k - 1) * math.log(
            k**2 / (k**2 - 1.0)
        )
    log_ratio = 0.0
    log_tol = math.log(vol_tol)

    best: DualPoint | None = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if center.min() < 0.0:
            h = np.zeros(k)
            h[(center < 0.0).argmax()] = -1.0  # feasibility cut: z_k >= center_k
        else:
            value, subgradient, idx = evaluate(center)
            if best is None or value > best.value:
                best = DualPoint(center, value, subgradient, idx)
            h = -subgradient  # maximize: cut along -supergradient

        hph = float(h @ shape @ h)
        if not (math.isfinite(hph) and hph > 0.0):
            break
        gdir = (shape @ h) / math.sqrt(hph)
        if k == 1:
            center = center - 0.5 * gdir
            shape = shape / 4.0
        else:
            center = center - gdir / (k + 1.0)
            # shape starts symmetric and each term of the update is exactly
            # symmetric in float arithmetic, so it stays symmetric bit for bit
            shape = (k**2 / (k**2 - 1.0)) * (
                shape - (2.0 / (k + 1.0)) * (gdir[:, None] * gdir[None, :])
            )
        log_ratio += shrink_log
        if log_ratio < log_tol:
            break

    if best is None:  # pathological: every center was cut infeasible
        zero = np.zeros(k)
        best = DualPoint(zero, *evaluate(zero))
    return replace(best, iterations=iterations)


def _cluster_tie_points(tie_flat: np.ndarray, grid: GridSpec) -> list[np.ndarray]:
    """Group tied grid indices whose (ix, iy) offsets are within two steps."""
    order = np.sort(tie_flat)
    coords = {int(m): (int(m % grid.nx), int(m // grid.nx)) for m in order}
    parent = {int(m): int(m) for m in order}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    lookup = {coords[m]: m for m in coords}
    for m in coords:
        ix, iy = coords[m]
        for ddy in range(-2, 3):
            for ddx in range(-2, 3):
                other = lookup.get((ix + ddx, iy + ddy))
                if other is not None and other != m:
                    ra, rb = find(m), find(other)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)

    groups: dict[int, list[int]] = {}
    for m in coords:
        groups.setdefault(find(m), []).append(m)
    return [np.array(sorted(v)) for _, v in sorted(groups.items())]


def build_hover_plan(
    mu: np.ndarray, scenario: Scenario, grid: GridSpec
) -> HoverPlan:
    """Recover a primal hover plan from prices mu.

    Grid points whose transmit cost is within a relative tie tolerance of
    the grid minimum are clustered (merging points within two grid steps),
    each cluster is represented by its centroid with powers re-evaluated
    there, and a time-sharing LP assigns hover durations subject to the
    average-power budgets.  The un-assigned time fraction is the outage.
    """
    mu = _checked_prices(mu, scenario)
    points = grid.points()
    gains = gain_at(points, scenario)
    costs = _transmit_costs(mu, scenario, gains)
    cost_min = float(costs.min())
    k = scenario.n_sensors
    if not np.isfinite(cost_min):
        return HoverPlan(
            np.zeros((0, 2)), np.zeros((0, k)), np.zeros(0), 1.0, mu.copy()
        )

    tie = np.flatnonzero(costs <= cost_min * (1.0 + EPS_TIE))
    clusters = _cluster_tie_points(tie, grid)

    locations = []
    powers = []
    gamma = scenario.gamma_min
    for members in clusters:
        centroid = points[members].mean(axis=0)
        cand_powers = powers_given_location(mu, centroid, scenario)
        if snr(centroid, cand_powers, scenario) < gamma * (1.0 - 1e-9):
            # centroid fell outside the feasible tie region (possible in the
            # zero-priced branch); fall back to the cheapest member point
            best_member = members[int(np.argmin(costs[members]))]
            centroid = points[best_member]
            cand_powers = powers_given_location(mu, centroid, scenario)
        locations.append(centroid)
        powers.append(cand_powers)
    loc_arr = np.array(locations).reshape(-1, 2)
    pow_arr = np.array(powers).reshape(-1, k)

    # time-sharing LP: maximize assigned time subject to the power budgets
    n_cand = loc_arr.shape[0]
    t_total = scenario.duration
    a_ub = np.vstack([pow_arr.T, np.ones((1, n_cand))])
    b_ub = np.concatenate(
        [t_total * scenario.power_budgets, [t_total]]
    )
    lp = LinearProgram(c=-np.ones(n_cand), a_ub=a_ub, b_ub=b_ub)
    outcome = solve_lp(lp)
    durations = np.maximum(outcome.x, 0.0)
    outage = max(0.0, (t_total - float(durations.sum())) / t_total)
    return HoverPlan(loc_arr, pow_arr, durations, outage, mu.copy())


def solve_relaxed(
    scenario: Scenario, grid: GridSpec | None = None
) -> tuple[DualPoint, HoverPlan]:
    """Full relaxed pipeline: maximize the dual, then recover a hover plan."""
    if grid is None:
        grid = GridSpec.from_scenario(scenario)
    dual = maximize_dual(scenario, grid)
    plan = build_hover_plan(dual.mu, scenario, grid)
    return dual, plan


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
