"""Finite-duration planning by successive convex approximation.

The discretized joint problem maximizes the per-slot received power clipped
at the SNR threshold (a smooth stand-in for the outage count) over the
trajectory and the power schedule.  Each round alternates two convex
subproblems obtained from two global tangent bounds:

* per-sensor amplitude versus UAV position: the map
  w -> (w + h^2)^(-alpha/4) of the squared planar distance is convex, so
  its tangent at the current position is a global lower bound that is
  concave (quadratic) in position;
* received power versus summed amplitude: x -> x^2 bounded below by its
  tangent at the current amplitude sum.

Both subproblems therefore maximize a lower bound that is tight at the
current iterate, which makes the clipped objective monotone across
accepted steps.  The trajectory step is solved with the log-barrier Newton
method.  The power step is solved in price space: at prices on the K
budgets each slot's best powers have a closed form, so only the K prices
are searched.  A step is rejected (iterate kept) if the solver fails to
converge or the exact objective would regress beyond rounding tolerance.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from outage_planner.channel import gain_at
from outage_planner.convex_core import (
    BoundBlock,
    GenericBlock,
    STATUS_OPTIMAL,
    SmoothConvexProgram,
    ascend_in_orthant,
    newton_direction,
    solve_barrier,
    solve_price_feasibility,
)
from outage_planner.relaxed_optimum import HoverPlan
from outage_planner.scenario import PowerSchedule, Scenario, Trajectory

OBJ_TOL_REL = 1e-9     # accepted steps may regress at most this (relative)
DEFAULT_ROUNDS = 50
DEFAULT_REL_IMPROVEMENT = 1e-4
_PRICE_STEP_MAX_NEWTON = 50   # dual Newton steps of the power step
_PRICE_STEP_BOUNDARY = 0.5    # their fraction to the boundary nu = 0; 0.99
                              # can land on the all-capped plateau and stall


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    objective: float
    step_kind: str   # "trajectory" | "power"
    accepted: bool


@dataclass
class ScaState:
    """Current iterate of the alternating optimization.

    ``amplitudes`` always holds the exact received amplitudes of the
    current plan (the linearization point of the next step).
    ``objective`` is the mean SNR clipped at gamma_min, a number in
    [0, gamma_min] that increases weakly across accepted steps.
    """

    trajectory: Trajectory
    powers: np.ndarray        # (K, N) watts
    amplitudes: np.ndarray    # (K, N)
    objective: float
    trace: list[TraceEntry] = field(default_factory=list)

    @property
    def schedule(self) -> PowerSchedule:
        return PowerSchedule(self.powers)


def amplitude_lower_bound(
    power: float, q, q_ref, sensor_xy, scenario: Scenario
) -> float:
    """Global lower bound on the received amplitude from one sensor.

    Tangent (in the squared planar distance) at q_ref of
    sqrt(power * beta0) * (|q - s|^2 + h^2)^(-alpha/4); exact whenever
    |q - s| = |q_ref - s|.
    """
    s = np.asarray(sensor_xy, dtype=float)
    w = float(np.sum((np.asarray(q, dtype=float) - s) ** 2))
    w_ref = float(np.sum((np.asarray(q_ref, dtype=float) - s) ** 2))
    u = w_ref + scenario.altitude**2
    quarter = scenario.alpha / 4.0
    base = u**-quarter
    slope = quarter * u ** (-quarter - 1.0)
    return math.sqrt(power * scenario.beta0) * (base - slope * (w - w_ref))


def square_sum_lower_bound(amplitudes, amplitudes_ref) -> float:
    """Tangent bound (sum a_ref)^2 + 2 (sum a_ref)(sum a - sum a_ref)."""
    s = float(np.sum(amplitudes))
    s_ref = float(np.sum(amplitudes_ref))
    return s_ref**2 + 2.0 * s_ref * (s - s_ref)


def _state_from_plan(
    trajectory: Trajectory,
    powers: np.ndarray,
    scenario: Scenario,
    trace: list[TraceEntry] | None = None,
) -> ScaState:
    gains = gain_at(trajectory.slot_positions, scenario)  # (N, K)
    amps = np.sqrt(powers * gains.T)
    received = amps.sum(axis=0) ** 2
    cap = scenario.gamma_min * scenario.noise_power
    objective = float(np.minimum(received, cap).mean() / scenario.noise_power)
    return ScaState(
        trajectory, powers.copy(), amps, objective,
        trace if trace is not None else [],
    )


def _accept(old: ScaState, candidate: ScaState) -> tuple[ScaState, bool]:
    """(candidate, True) unless its objective regresses, else (old, False)."""
    floor = old.objective - OBJ_TOL_REL * max(1.0, abs(old.objective))
    return (candidate, True) if candidate.objective >= floor else (old, False)


def trajectory_step(state: ScaState, scenario: Scenario) -> tuple[ScaState, bool]:
    """One SCA trajectory update with the power schedule held fixed.

    Maximizes the slot-mean of auxiliary received powers A_n subject to
    A_n <= gamma * noise, A_n below the tangent-bound surrogate of the
    received power at waypoint n, and the per-slot speed constraints.
    Summed-amplitude variables are eliminated exactly: the surrogate is
    affine and increasing in them, so they sit at their position-dependent
    upper bounds, leaving a concave quadratic cap in the waypoint.
    """
    n = scenario.n_slots
    wp = state.trajectory.waypoints
    delta = state.trajectory.slot_length
    leg = scenario.v_max * delta
    q_i = np.asarray(scenario.q_start)
    q_f = np.asarray(scenario.q_final)
    cap = scenario.gamma_min * scenario.noise_power

    if n == 1:
        # both waypoints pinned; nothing to optimize
        new = _state_from_plan(state.trajectory, state.powers, scenario, state.trace)
        return new, True

    direct = np.linalg.norm(q_f - q_i) / n
    if leg - direct <= 1e-6 * leg:
        return state, False  # speed budget leaves no interior to search

    # tangent data at the current iterate
    pos = state.trajectory.slot_positions          # (N, 2)
    w_ref = (
        (pos[:, None, :] - scenario.sensor_xy[None, :, :]) ** 2
    ).sum(axis=2)                                  # (N, K) squared distances
    u_ref = w_ref + scenario.altitude**2
    quarter = scenario.alpha / 4.0
    sqrt_pb = np.sqrt(state.powers.T * scenario.beta0)   # (N, K)
    slope = sqrt_pb * quarter * u_ref ** (-quarter - 1.0)  # m_k[n] >= 0
    const = sqrt_pb * u_ref**-quarter + slope * w_ref      # amp0_k[n]
    a0 = const.sum(axis=1)                         # (N,)
    msum = slope.sum(axis=1)                       # (N,)
    msens = slope[:, :, None] * scenario.sensor_xy[None, :, :]
    msens = msens.sum(axis=1)                      # (N, 2)
    mconst = (slope * (scenario.sensor_xy**2).sum(axis=1)[None, :]).sum(axis=1)
    s_ref = state.amplitudes.sum(axis=0)           # (N,)
    c0 = 2.0 * s_ref * a0 - s_ref**2               # cap constant term

    n_free = n - 1                                 # waypoints 1..N-1 vary
    nq = 2 * n_free
    nv = nq + n                                    # plus A' per slot

    def q_of(z):
        return z[:nq].reshape(n_free, 2)

    def cap_norm(slot, q):                         # G_n(q) in units of cap
        w = msum[slot] * (q * q).sum(-1) - 2.0 * (msens[slot] * q).sum(-1) \
            + mconst[slot]
        return (c0[slot] - 2.0 * s_ref[slot] * w) / cap

    slots_var = np.arange(1, n)                    # slots with a free waypoint
    idx_a = nq + np.arange(n)

    def surrogate_value(z):
        q = q_of(z)
        return z[idx_a[slots_var - 1]] - cap_norm(slots_var - 1, q)

    def surrogate_jacobian(z):
        q = q_of(z)
        jac = np.zeros((n_free, nv))
        coef = (4.0 * s_ref[slots_var - 1] / cap)[:, None] * (
            msum[slots_var - 1][:, None] * q - msens[slots_var - 1]
        )
        rows = np.arange(n_free)
        jac[rows, 2 * rows] = coef[:, 0]
        jac[rows, 2 * rows + 1] = coef[:, 1]
        jac[rows, idx_a[slots_var - 1]] = 1.0
        return jac

    def surrogate_hessian(z, w):
        h = np.zeros((nv, nv))
        diag = h.ravel()[:: nv + 1]
        per_q = w * 4.0 * s_ref[slots_var - 1] * msum[slots_var - 1] / cap
        diag[0:nq:2] += per_q
        diag[1:nq:2] += per_q
        return h

    leg2 = leg * leg

    def chain(z):
        q = q_of(z)
        return np.vstack([q_i[None, :], q, q_f[None, :]])

    def speed_value(z):
        diffs = np.diff(chain(z), axis=0)
        return (diffs * diffs).sum(axis=1) / leg2 - 1.0

    # segment row r runs from chain point r to r + 1; free waypoint j is
    # chain point j + 1, so it is the head of row j and the tail of row j + 1
    heads = np.arange(n_free)

    def speed_jacobian(z):
        d = 2.0 * np.diff(chain(z), axis=0) / leg2  # (N, 2)
        jac = np.zeros((n, nv))
        per_wp = jac[:, :nq].reshape(n, n_free, 2)
        per_wp[heads, heads] = d[:-1]
        per_wp[heads + 1, heads] = -d[1:]
        return jac

    def speed_hessian(z, w):
        val = 2.0 * w / leg2                       # (N,)
        h = np.zeros((nv, nv))
        per_wp = h[:nq, :nq].reshape(n_free, 2, n_free, 2)
        j, xy = heads[:, None], np.arange(2)
        per_wp[j, xy, j, xy] = (val[:-1] + val[1:])[:, None]
        # rows 1..N-2 couple waypoints j and j + 1 in each coordinate
        per_wp[j[1:], xy, j[:-1], xy] = -val[1:-1, None]
        per_wp[j[:-1], xy, j[1:], xy] = -val[1:-1, None]
        return h

    blocks = [
        BoundBlock(idx_a, +1.0, 1.0),                       # A' <= 1
        GenericBlock(surrogate_value, surrogate_jacobian, surrogate_hessian),
        BoundBlock(idx_a[-1:], +1.0, cap_norm(n - 1, q_f[None, :])),
        GenericBlock(speed_value, speed_jacobian, speed_hessian),
    ]

    # strictly feasible start: bend slightly toward the uniform direct path
    direct_path = np.linspace(q_i, q_f, n + 1)[1:-1]
    q_start = 0.99 * wp[1:-1] + 0.01 * direct_path
    z0 = np.zeros(nv)
    z0[:nq] = q_start.ravel()
    start_caps = np.minimum(1.0, cap_norm(np.arange(n - 1), q_start))
    z0[idx_a[:-1]] = start_caps - 0.01
    z0[idx_a[-1]] = min(1.0, float(cap_norm(n - 1, q_f[None, :])[0])) - 0.01

    gamma = scenario.gamma_min
    grad_f = np.zeros(nv)
    grad_f[idx_a] = -gamma / n

    program = SmoothConvexProgram(
        objective=lambda z: float(grad_f @ z),
        gradient=lambda z: grad_f,
        x0=z0,
        blocks=blocks,
    )
    try:
        outcome = solve_barrier(
            program, gap_tol=1e-10 * max(1.0, gamma), max_newton=400
        )
    except ValueError:
        return state, False
    if outcome.status != STATUS_OPTIMAL:
        return state, False

    new_wp = wp.copy()
    new_wp[1:-1] = q_of(outcome.x)
    return _accept(state, _state_from_plan(
        Trajectory(new_wp, delta), state.powers, scenario, state.trace
    ))


def power_step(state: ScaState, scenario: Scenario) -> tuple[ScaState, bool]:
    """One SCA power update with the trajectory held fixed.

    In budget shares p' = P / B the step maximizes (gamma / N) sum_n A'_n
    subject to A'_n <= 1, A'_n <= beta_n S_n - off_n and the budgets
    mean_n p'_kn <= 1.  S_n = sum_k e_kn sqrt(p'_kn), e_kn = sqrt(g_kn B_k),
    is the summed amplitude and beta_n S_n - off_n the tangent bound of
    S_n^2 at the current sum s_n, in units of gamma * noise.  The step is
    solved in price space by ``_optimal_shares``.
    """
    cap = scenario.gamma_min * scenario.noise_power
    budgets = scenario.power_budgets
    gains = gain_at(state.trajectory.slot_positions, scenario)  # (N, K)
    s_ref = state.amplitudes.sum(axis=0)                        # (N,)
    off = s_ref**2 / cap
    shares = _optimal_shares(
        gains.T * budgets[:, None], 2.0 * s_ref / cap, off, scenario.gamma_min
    )
    if shares is None:
        return state, False
    return _accept(state, _state_from_plan(
        state.trajectory, shares * budgets[:, None], scenario, state.trace
    ))


def _optimal_shares(e2, beta, off, gamma):
    """Optimal shares p' (K, N) of the power step, or None on failure.

    At prices nu on the budgets the cheapest shares reaching S_n cost
    S_n^2 / w_n, w_n = sum_k e2_kn / nu_k (the paper's per-slot power
    structure), so slot n's best amplitude is
    S_n = min(gamma beta_n w_n / 2, t_n), where t_n = (1 + off_n) / beta_n
    caps A'_n at 1.  If recovery's price test finds every t_n reachable,
    its shares are optimal; a zero price caps every slot, so this covers
    every slack budget.  Otherwise Newton's method minimizes the convex
    dual g(nu) = sum_k nu_k + mean_n [gamma min(1, beta_n S_n - off_n)
    - S_n^2 / w_n] over nu > 0.  Its gradient is 1 - usage of the shares
    p'_kn = (S_n / w_n)^2 e2_kn / nu_k^2, and it stops once g exceeds the
    value of those shares, scaled per sensor into the budget, by at most
    1e-10 max(1, gamma).  None after ``_PRICE_STEP_MAX_NEWTON`` steps.
    """
    n = e2.shape[1]
    top = (1.0 + off) / beta
    shares = solve_price_feasibility(n * e2 / top**2)
    if shares is not None:
        return n * shares

    def dual(nu):
        w = (e2 / nu[:, None]).sum(axis=0)
        amp = np.minimum(0.5 * gamma * beta * w, top)
        value = nu.sum() + np.mean(
            gamma * np.minimum(1.0, beta * amp - off) - amp**2 / w
        )
        return float(value), w, amp

    tol = 1e-10 * max(1.0, gamma)
    nu = 0.5 * gamma * np.sqrt((beta**2 * e2).mean(axis=1))
    for _ in range(_PRICE_STEP_MAX_NEWTON):
        g, w, amp = dual(nu)
        a = e2 / (nu**2)[:, None]            # -dw_n / dnu_k
        ratio2 = (amp / w) ** 2
        p = a * ratio2
        usage = p.mean(axis=1)
        p /= np.maximum(1.0, usage)[:, None]
        primal = gamma * np.mean(
            np.minimum(1.0, beta * np.sqrt(p * e2).sum(axis=0) - off)
        )
        if min(g, gamma) - primal <= tol:
            return p

        # capped slots add -2 S^2 / w^3 a a^T to the Hessian.  Where every
        # slot is capped g is linear along nu and the Hessian singular:
        # the ridge of newton_direction then turns the step into descent
        curv = np.where(amp < top, 0.0, 2.0 * ratio2 / w)
        diag = 2.0 * usage / nu
        hess = np.diag(diag) - (a * curv) @ a.T / n
        step = newton_direction(hess, 1.0 - usage, diag.mean())
        if step is None:
            return None
        # the search accepts a rise of g within its round-off, so Newton
        # steps still shrink the gradient once g has settled (the
        # approximate Armijo test of Hager & Zhang, SIAM J. Optim. 2005)
        nu = ascend_in_orthant(
            lambda v: -dual(v)[0], nu, step, -g - 1e-12 * abs(g),
            float((usage - 1.0) @ step), _PRICE_STEP_BOUNDARY,
        )
        if nu is None:
            return None
    return None


def plan_sca(
    scenario: Scenario,
    init: Trajectory,
    *,
    steps: Sequence[tuple[str, Callable]] | None = None,
    max_rounds: int = DEFAULT_ROUNDS,
) -> ScaState:
    """Run rounds of SCA steps from a feasible initialization.

    ``steps`` is a sequence of ``(kind, step_fn)`` pairs run in order each
    round; the default alternates ``trajectory_step`` and ``power_step``.
    Powers start uniformly at the budgets.  The loop stops when no step of
    a round is accepted, when a round improves the clipped objective by at
    most ``DEFAULT_REL_IMPROVEMENT`` (relative), or after ``max_rounds``
    rounds.  The trace records every step.
    """
    if steps is None:
        steps = (("trajectory", trajectory_step), ("power", power_step))
    powers0 = np.broadcast_to(
        scenario.power_budgets[:, None],
        (scenario.n_sensors, scenario.n_slots),
    ).copy()
    state = _state_from_plan(init, powers0, scenario)
    for _ in range(max_rounds):
        before = state.objective
        accepted = False
        for kind, step_fn in steps:
            state, ok = step_fn(state, scenario)
            accepted |= ok
            state.trace.append(
                TraceEntry(len(state.trace) + 1, state.objective, kind, ok)
            )
        if not accepted:
            break
        gain = state.objective - before
        if gain <= DEFAULT_REL_IMPROVEMENT * max(abs(before), 1e-12):
            break
    return state


# ---------------------------------------------------------------------------
# Initial trajectories
# ---------------------------------------------------------------------------

def direct_flight(scenario: Scenario) -> Trajectory:
    """Straight constant-speed flight from start to finish."""
    wp = np.linspace(
        np.asarray(scenario.q_start, dtype=float),
        np.asarray(scenario.q_final, dtype=float),
        scenario.n_slots + 1,
    )
    return Trajectory(wp, scenario.slot_length)


def _tour_length(order, locs, q_i, q_f) -> float:
    pts = [q_i] + [locs[i] for i in order] + [q_f]
    return float(
        sum(math.dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1))
    )


def _tsp_order(locs: np.ndarray, q_i, q_f) -> list[int]:
    """Visiting order minimizing the open path q_i -> all locs -> q_f.

    Exact enumeration up to eight stops, nearest-neighbor plus 2-opt beyond.
    """
    m = len(locs)
    if m <= 1:
        return list(range(m))
    if m <= 8:
        best, best_len = None, math.inf
        for perm in itertools.permutations(range(m)):
            length = _tour_length(perm, locs, q_i, q_f)
            if length < best_len - 1e-12:
                best, best_len = perm, length
        return list(best)

    remaining = set(range(m))
    order: list[int] = []
    cur = np.asarray(q_i, dtype=float)
    while remaining:
        nxt = min(remaining, key=lambda j: (math.dist(cur, locs[j]), j))
        order.append(nxt)
        remaining.remove(nxt)
        cur = locs[nxt]

    improved = True
    while improved:
        improved = False
        for i in range(m - 1):
            for j in range(i + 1, m):
                cand = order[:i] + order[i : j + 1][::-1] + order[j + 1 :]
                if _tour_length(cand, locs, q_i, q_f) < _tour_length(
                    order, locs, q_i, q_f
                ) - 1e-12:
                    order = cand
                    improved = True
    return order


def itinerary_trajectory(
    scenario: Scenario, stops, hover_times
) -> Trajectory:
    """Waypoints for a stop-and-go itinerary sampled on the slot grid.

    Flies start -> stops -> finish with every leg at maximum speed and
    hovers at stop i for ``hover_times[i]`` seconds.  Arriving early means
    hovering at the final position for the remaining slots.  Raises
    ValueError if the legs alone do not fit in the mission duration.
    """
    q_i = np.asarray(scenario.q_start, dtype=float)
    q_f = np.asarray(scenario.q_final, dtype=float)
    stops = [np.asarray(s, dtype=float) for s in stops]
    hover = np.asarray(hover_times, dtype=float)
    if hover.shape != (len(stops),) or (hover < 0.0).any():
        raise ValueError("need one nonnegative hover time per stop")

    path = [q_i] + stops + [q_f]
    leg_lengths = [
        math.dist(path[i], path[i + 1]) for i in range(len(path) - 1)
    ]
    t_fly = sum(leg_lengths) / scenario.v_max
    if t_fly > scenario.duration * (1.0 + 1e-9):
        raise ValueError("itinerary legs exceed the mission duration")

    seg_start, seg_end, seg_t0, seg_dt = [], [], [], []
    clock = 0.0
    for i in range(len(path) - 1):
        dt = leg_lengths[i] / scenario.v_max
        seg_start.append(path[i])
        seg_end.append(path[i + 1])
        seg_t0.append(clock)
        seg_dt.append(dt)
        clock += dt
        if i < len(stops):
            seg_start.append(path[i + 1])
            seg_end.append(path[i + 1])
            seg_t0.append(clock)
            seg_dt.append(hover[i])
            clock += hover[i]

    seg_t0 = np.asarray(seg_t0)
    seg_dt = np.asarray(seg_dt)
    seg_start = np.asarray(seg_start, dtype=float)
    seg_end = np.asarray(seg_end, dtype=float)

    times = np.arange(scenario.n_slots + 1) * scenario.slot_length
    seg_idx = np.clip(
        np.searchsorted(seg_t0, times, side="right") - 1, 0, len(seg_t0) - 1
    )
    frac = np.zeros_like(times)
    nonzero = seg_dt[seg_idx] > 0.0
    frac[nonzero] = np.clip(
        (times[nonzero] - seg_t0[seg_idx][nonzero]) / seg_dt[seg_idx][nonzero],
        0.0,
        1.0,
    )
    wp = seg_start[seg_idx] + frac[:, None] * (
        seg_end[seg_idx] - seg_start[seg_idx]
    )
    wp[0] = q_i
    wp[-1] = q_f
    return Trajectory(wp, scenario.slot_length)


def init_shf(scenario: Scenario, plan: HoverPlan) -> Trajectory:
    """Sequential hover-and-fly initialization from a hover plan.

    Visits the positive-duration hover locations in shortest-path order,
    flying each leg at maximum speed; remaining time is spent hovering,
    split proportionally to the plan durations.  When the mission is too
    short to complete the tour (or there is nothing to visit) the direct
    constant-speed flight is returned instead.
    """
    keep = np.flatnonzero(
        plan.durations > 1e-12 * max(scenario.duration, 1.0)
    )
    if keep.size == 0:
        return direct_flight(scenario)
    locs = plan.locations[keep]
    taus = plan.durations[keep]
    q_i = np.asarray(scenario.q_start, dtype=float)
    q_f = np.asarray(scenario.q_final, dtype=float)

    order = _tsp_order(locs, q_i, q_f)
    stops = [locs[i] for i in order]
    stop_taus = np.array([taus[i] for i in order])

    path = [q_i] + stops + [q_f]
    t_fly = sum(
        math.dist(path[i], path[i + 1]) for i in range(len(path) - 1)
    ) / scenario.v_max
    if scenario.duration < t_fly * (1.0 + 1e-12):
        return direct_flight(scenario)

    spare = scenario.duration - t_fly
    total_tau = float(stop_taus.sum())
    if total_tau > 0.0:
        hover = spare * stop_taus / total_tau
    else:
        hover = np.full(len(stops), spare / len(stops))
    return itinerary_trajectory(scenario, stops, hover)
