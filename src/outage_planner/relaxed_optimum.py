"""Speed-unconstrained lower bound and hover plan over a grid.

Relaxing the UAV speed limit decouples the planning problem across time:
the optimum time-shares a small set of hover locations.  Powers are
counted in shares of each sensor's budget, e_k = p_k / budget_k, and
priced per share, nu_k = mu_k * budget_k, so that every price is O(1) in
any unit of power.  At any prices nu every grid point has a closed-form
cheapest share vector that meets the SNR threshold exactly (pricing).
With v(nu) the optimal value of the per-point subproblem (outage
indicator plus priced share cost) at the cheapest grid point,
v(nu) - sum_k nu_k is the time-normalized Lagrangian dual, an
outage-probability lower bound.

In the reciprocal prices u = 1 / nu a grid point q costs 1 / (e_q . u),
with e_q the full-budget received powers in units of gamma_min *
noise_power, so the dual's maximum over the grid is 1 - min{sum_k 1 /
u_k : e_q . u <= 1 for every q}, floored at 0: a smooth convex program
over a polytope.  ``maximize_dual`` solves it by fully corrective column
generation: the restricted program over a few grid points is solved
exactly, and one pricing pass over the grid at its prices gives the
bound and the next point.  The restricted optimum is also a hover plan:
it time-shares its points, meets the threshold exactly at each and
spends every budget, and its outage minus the best bound certifies how
far it is from the optimum over the grid.  Where the budgets serve the
whole mission the optimum is not unique, and the hover plan is chosen by
LP column generation with dual smoothing.  The public entries take and
return prices per watt, mu = nu / budget, and powers in watts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from outage_planner.channel import gain_at
from outage_planner.convex_core import LinearProgram, solve_lp
from outage_planner.scenario import Scenario, ScenarioError, watts_to_dbm

# prices per budget share at or below this are treated as zero
# (degenerate branch)
EPS_MU = 1e-12
DEFAULT_GRID_POINTS = 81   # default location grid resolution per axis
# the relaxation stops once its hover columns' outage is this close to
# the best dual bound
GAP_TOL = 1e-9
# cap on column-generation iterations (pricing passes)
_MAX_ITERATIONS = 5000
# the restricted problem's active-set Newton method (_restricted_optimum),
# in units of gamma_min * noise_power: a cap on its steps, the Newton
# decrement below which a face is solved and above which a step
# backtracks, the least gradient with which a point enters the face, and
# the singular-value ratio below which an entering row depends on the
# face's rows
_NEWTON_MAX = 100
_DECREMENT_TOL = 1e-26
_NEWTON_FAR = 1e-8
_SUPPORT_TOL = 1e-12
_RANK_TOL = 1e-10


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


@dataclass(frozen=True, slots=True)
class DualPoint:
    """Dual evaluation: prices, dual value, and a supergradient there.

    ``grid_index`` is the flat index of the grid minimizer on the transmit
    branch and None on the outage branch.  ``maximize_dual`` also reports
    its pricing passes ``iterations``, the certificate ``gap`` (the
    outage of its hover columns minus ``value``; infinite for a single
    evaluation) and those positive-time columns, at most K + 1: their
    grid indices ``columns``, powers ``column_powers`` (V, K, watts) and
    time shares ``shares``.
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


@dataclass(frozen=True, slots=True)
class HoverPlan:
    """Time-shared hover locations from the relaxation's optimal columns.

    ``durations`` are seconds per location; unassigned time is outage.
    """

    locations: np.ndarray   # (V, 2)
    powers: np.ndarray      # (V, K) watts while hovering at each location
    durations: np.ndarray   # (V,) seconds, >= 0, sum <= T
    outage: float           # (T - sum durations) / T
    mu: np.ndarray          # prices of the dual bound the plan is checked against


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


def _transmit(nu: np.ndarray, scenario: Scenario, gains: np.ndarray):
    """Cheapest threshold-meeting budget shares at checked share prices nu
    over points with share ``gains`` e = g * budget, shape (M, K).

    Zero-priced sensors are free, so they transmit at their per-slot cap
    of N shares, received amplitude sqrt(N * e_k).  The priced ones split
    the leftover amplitude r = max(0, b - sum of the free amplitudes),
    b = sqrt(gamma_min * noise_power), as rho_k = r * sqrt(e_k) / (nu_k * s)
    with s = sum_j e_j / nu_j over the priced sensors; this meets the
    threshold with equality at priced cost r^2 / s.  Returns (costs,
    index, shares): that cost at every point, shape (M,), infinite where
    nothing is priced and the caps fall short; the first cheapest point's
    index; and its shares.
    """
    b_amp = math.sqrt(scenario.gamma_min * scenario.noise_power)
    n = scenario.n_slots
    priced = nu > EPS_MU
    all_priced = priced.all()
    if all_priced:
        resid, s_vals = b_amp, gains @ (1.0 / nu)
    else:
        caps = np.sqrt(n * gains[:, ~priced]).sum(axis=1)
        resid = np.maximum(b_amp - caps, 0.0)
        s_vals = gains[:, priced] @ (1.0 / nu[priced])
    with np.errstate(divide="ignore", invalid="ignore"):
        costs = resid**2 / s_vals
    # with nothing priced s = 0: r^2 / 0 is inf where the caps fall short,
    # and 0 / 0 where they reach
    if not priced.any():
        costs[resid == 0.0] = 0.0
    idx = int(costs.argmin())
    r = resid if all_priced else resid[idx]
    shares = np.where(priced, 0.0, float(n))
    if r > 0.0 and priced.any():
        e = gains[idx, priced]
        s_val = float((e / nu[priced]).sum())
        shares[priced] = (r * np.sqrt(e) / (nu[priced] * s_val)) ** 2
    return costs, idx, shares


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
    budgets = scenario.power_budgets
    gains = gain_at(q[None, :], scenario) * budgets
    return _transmit(mu * budgets, scenario, gains)[2] * budgets


def _price(nu: np.ndarray, scenario: Scenario, gains: np.ndarray):
    """The dual at checked share prices nu over the grid points with share
    ``gains`` (see ``_transmit``), as (value, shares, grid index or None).

    ``shares`` are the cheapest threshold-meeting shares at the first
    (row-major) cheapest grid point, or zeros on the outage branch.
    """
    costs, idx, shares = _transmit(nu, scenario, gains)
    if costs[idx] < 1.0:
        return float(costs[idx]) - float(nu.sum()), shares, idx
    return 1.0 - float(nu.sum()), np.zeros_like(shares), None


def dual_function(
    mu: np.ndarray, scenario: Scenario, gains: np.ndarray
) -> DualPoint:
    """Evaluate the time-normalized dual and one supergradient at mu.

    ``gains`` is ``gain_at(grid.points(), scenario)``.  The per-point
    subproblem either transmits at the grid point of cheapest priced
    threshold-meeting power (ties resolve to the first point in row-major
    order) or stays silent in outage at cost exactly 1.  value =
    min(1, cheapest transmit cost) - mu @ budgets, priced in budget shares
    at nu = mu * budgets; the supergradient is the minimizing power vector
    minus the budgets (zero powers on the outage branch), in watts.
    Raises ValueError unless mu holds K finite nonnegative prices.
    """
    mu = _checked_prices(mu, scenario)
    budgets = scenario.power_budgets
    value, shares, idx = _price(mu * budgets, scenario, gains * budgets)
    return DualPoint(mu.copy(), value, (shares - 1.0) * budgets, idx)


def _column_generation(
    scenario: Scenario, gains: np.ndarray, zero: tuple, spent: int
) -> DualPoint:
    """The stabilized column generation of ``maximize_dual``, in budget
    shares over the grid's share ``gains``.

    It goes on from the zero-price pass ``zero``, ``_price``'s result, after
    ``spent`` other pricing passes, which count toward the returned
    iterations and ``_MAX_ITERATIONS``.  A column is a grid point with its
    cheapest threshold-meeting budget shares at the share prices it was
    priced at.  The master LP gives each column a time share x_j >= 0 and
    maximizes sum_j x_j subject to one row per budget, sum_j shares_jk x_j
    <= 1, and one for the total time, sum_j x_j <= 1; its duals are y
    (budget rows, per share) and y0 (time row).  Each master solve goes on
    from the previous solve's final tableau with the new column appended,
    which leaves it primal feasible.  The passes are smoothed (Wentges
    1997):

    * Start: the zero-price pass adds its column; the next pass prices at
      the uniform share prices 1 / K, which spend exactly 1, and adds its
      column if it transmits.
    * Center: the best-bound prices among the passes after the zero one,
      which would hold the center at zero for about half the passes.
    * Each later pass prices at (center + y) / 2 and adds the column if it
      prices out at the master's duals, 1 - y @ shares - y0 > 0.  If it
      does not, or if nothing transmits there, the next pass prices at y
      itself and adds its column.

    The loop stops once the master's outage, 1 - sum_j x_j, is within
    ``GAP_TOL`` of the best bound, when no grid point can transmit at the
    master's duals, or at the pass cap.
    """
    k = scenario.n_sensors
    budgets = scenario.power_budgets
    cap = _MAX_ITERATIONS - spent
    rows = np.ones(k + 1)
    points: list[int] = []
    table = np.ones((k + 1, cap))   # column shares over a ones row
    duals = np.zeros(k + 1)   # the master's budget-row duals, then y0
    shares = np.zeros(0)
    master = None
    best: DualPoint | None = None
    center, center_value = None, -math.inf
    # each pass prices at the master's duals, at the uniform prices or at
    # the smoothed prices; an empty master's duals are zero
    nu, kind = np.zeros(k), "duals"
    for iterations in range(1, cap + 1):
        value, column, idx = _price(nu, scenario, gains) if iterations > 1 else zero
        if best is None or value > best.value:
            best = DualPoint(nu, value, column - 1.0, idx)
        if iterations > 1 and value > center_value:
            center, center_value = nu, value
        gap = 1.0 - float(shares.sum()) - best.value
        if gap <= GAP_TOL or iterations == cap:
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
            nu, kind = duals[:k], "duals"
            continue
        elif kind == "duals":   # nothing transmits at the master's duals
            break
        if iterations > 1:
            nu, kind = 0.5 * (center + duals[:k]), "smoothed"
        else:
            nu, kind = np.full(k, 1.0 / k), "uniform"

    used = np.flatnonzero(shares > 0.0)
    return replace(
        best,
        mu=best.mu / budgets,
        subgradient=best.subgradient * budgets,
        iterations=iterations + spent,
        gap=gap,
        columns=np.array(points, dtype=int)[used],
        column_powers=table[:k, used].T * budgets,
        shares=shares[used],
    )


def _restricted_optimum(e: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Time shares lam >= 0 maximizing 2 sum_k sqrt((e^T lam)_k) - sum(lam).

    ``e`` (m, K) holds the full-budget received powers of m grid points in
    units of gamma_min * noise_power, all positive, and ``lam`` (m,) a
    start: the shares of a face optimum, or zeros.  A primal active-set
    method: damped Newton steps on the face of positive shares, cut where
    a share reaches zero, which then leaves the face; at a face optimum
    the point off the face with the largest gradient e_q . u - 1 > 0,
    u = (e^T lam)^(-1/2), enters it.  Its gradient points into the
    feasible side, so it enters at share zero; where its row depends on
    the face's, a ratio test along the null direction swaps it for the
    face point whose share first reaches zero, a simplex pivot along
    which the objective rises linearly.  Ends at a face optimum where no
    other point enters, or after ``_NEWTON_MAX`` steps.
    """
    lam = lam.copy()
    face = list(np.flatnonzero(lam > 0.0))
    if not face:   # the one-point optimum of the first point
        lam[0], face = np.sqrt(e[0]).sum() ** 2, [0]
    for _ in range(_NEWTON_MAX):
        rows, shares = e[face], lam[face]
        u = (shares @ rows) ** -0.5
        grad = rows @ u - 1.0
        step = np.linalg.solve(0.5 * (rows * u**3) @ rows.T, grad)
        decrement = float(grad @ step)
        if decrement > _DECREMENT_TOL:
            blocking = np.flatnonzero(step < 0.0)
            ratios = shares[blocking] / -step[blocking]
            limit = ratios.min() if blocking.size else math.inf
            alpha = min(1.0, limit)
            if decrement > _NEWTON_FAR:   # backtrack (Armijo) far out
                start = _restricted_value(rows, shares)
                while (
                    _restricted_value(rows, shares + alpha * step)
                    < start + 0.25 * alpha * decrement
                ):
                    alpha *= 0.5
            lam[face] = shares + alpha * step
            if alpha == limit:   # a share reaches zero and leaves the face
                out = face[int(blocking[ratios.argmin()])]
                lam[out] = 0.0
                face.remove(out)
            continue
        slopes = e @ u - 1.0
        slopes[face] = -math.inf
        q = int(slopes.argmax())
        if slopes[q] <= _SUPPORT_TOL:
            return lam
        left, sing, _ = np.linalg.svd(e[face + [q]])
        null = left[:, -1]
        # q's row depends on the face's (a zero null[-1] would mean the
        # face's rows depend on each other, which the pivots rule out)
        if (len(face) == e.shape[1] or sing[-1] <= _RANK_TOL * sing[0]) and (
            null[-1] != 0.0
        ):
            null = null / null[-1]   # q's share grows along it
            blocking = np.flatnonzero(null[:-1] < 0.0)
            ratios = shares[blocking] / -null[blocking]
            t = float(ratios.min())
            out = face[int(blocking[ratios.argmin()])]
            lam[face] = shares + t * null[:-1]
            lam[q], lam[out] = t, 0.0
            face.remove(out)
        face.append(q)
    return lam


def _restricted_value(rows: np.ndarray, shares: np.ndarray) -> float:
    """The restricted program's objective at time shares ``shares``."""
    return 2.0 * float(np.sqrt(shares @ rows).sum()) - float(shares.sum())


def maximize_dual(scenario: Scenario, grid: GridSpec) -> DualPoint:
    """Maximize the dual over the grid by fully corrective column generation.

    Write u_k = 1 / nu_k for the reciprocal share prices and e_q =
    g(q) * budgets / (gamma_min * noise_power) for the full-budget received
    powers at grid point q.  At prices nu every point costs 1 / (e_q . u),
    so the dual's maximum is 1 - min{sum_k 1 / u_k : e_q . u <= 1 for
    every grid point q}, floored at 0: a smooth convex program over a
    polytope.  Its Lagrange dual over a support S of grid points is
    max over lam >= 0 of 2 sum_k sqrt((E_S^T lam)_k) - sum(lam), with lam_q
    point q's time share; at its optimum u = (E_S^T lam)^(-1/2), point q's
    budget shares e_qk * u_k^2 meet the threshold exactly, every budget
    is spent, and the served time sum(lam) equals sum_k nu_k.

    * The first pass prices the grid at zero prices.  If no point reaches
      the threshold at the caps, the bound is 1 and the loop ends there.
      Otherwise its point starts S.
    * Each later pass solves the restricted problem over S exactly
      (``_restricted_optimum``, at most K + 1 unknowns), drops the points
      of zero share, and prices the whole grid once at nu = 1 / u
      (``dual_function``'s closed form).  That gives a bound, valid at
      every pass, and the cheapest point, which joins S while it prices
      out (simplicial decomposition; von Hohenbalken 1977).

    The loop stops once the restricted outage 1 - sum(lam) is within
    ``GAP_TOL`` of the best bound, when the cheapest point no longer
    prices out, or after ``_MAX_ITERATIONS`` pricing passes.  If the
    budgets alone serve the whole mission (sum(lam) >= 1 on some S), the
    bound and the relaxed outage are 0 and the optimum is not unique;
    the stabilized LP column generation (``_column_generation``) then
    picks the hover plan, going on from the zero-price pass, in a few
    more passes.

    Returns the best-bound evaluation in prices per watt, with the
    number of pricing passes (all of them), the final ``gap`` and the
    positive-time columns: here at most K + 1 distinct grid points, their
    powers in watts and time shares.
    """
    k = scenario.n_sensors
    budgets = scenario.power_budgets
    gains = gain_at(grid.points(), scenario) * budgets
    zero = _price(np.zeros(k), scenario, gains)
    value, column, idx = zero
    best = DualPoint(np.zeros(k), value, (column - 1.0) * budgets, idx)
    e = gains / (scenario.gamma_min * scenario.noise_power)
    support, lam, shares = np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, k))
    iterations, gap = 1, 1.0 - value
    while (
        idx is not None and idx not in support
        and gap > GAP_TOL and iterations < _MAX_ITERATIONS
    ):
        lam = _restricted_optimum(e[np.append(support, idx)], np.append(lam, 0.0))
        support = np.append(support, idx)[lam > 0.0]
        lam = lam[lam > 0.0]
        rows = e[support]
        nu = np.sqrt(lam @ rows)
        # each point's cheapest shares at nu meet the threshold exactly;
        # at the optimum they spend every budget, and the scaling keeps the
        # rounding from spending more
        shares = rows / nu**2 / ((rows / nu).sum(axis=1) ** 2)[:, None]
        lam /= max(1.0, float((lam @ shares).max()))
        if lam.sum() >= 1.0:   # the budgets serve the whole mission
            return _column_generation(scenario, gains, zero, iterations - 1)
        mu = nu / budgets   # priced as dual_function prices mu, bit for bit
        value, column, idx = _price(mu * budgets, scenario, gains)
        iterations += 1
        if value > best.value:
            best = DualPoint(mu, value, (column - 1.0) * budgets, idx)
        gap = 1.0 - float(lam.sum()) - best.value
    return replace(
        best,
        iterations=iterations,
        gap=gap,
        columns=support,
        column_powers=shares * budgets,
        shares=lam,
    )


def build_hover_plan(
    dual: DualPoint, scenario: Scenario, grid: GridSpec
) -> HoverPlan:
    """Turn the relaxation's positive-time columns into a hover plan.

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
