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
method; its Newton system is block-tridiagonal once the per-slot
auxiliaries are eliminated, so each Newton step costs O(N) scalar
operations.  The power step is solved in price space: at prices on the K
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
    GenericBlock,
    STATUS_OPTIMAL,
    SmoothConvexProgram,
    ascend_in_orthant,
    dense_solver,
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
# symmetric 2 x 2 blocks of the trajectory step are (xx, xy, yy) rows
_XXY = np.array([0, 0, 1])     # u[:, _XXY] * u[:, _XYY] is u u^T
_XYY = np.array([0, 1, 1])
_EYE = np.array([1.0, 0.0, 1.0])


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

    The barrier's Newton system is built from its structure (``newton``
    below).  Each A'_n appears only in its own bound and surrogate rows,
    so it is eliminated per slot by a scalar Schur complement; the last
    slot's waypoint is pinned, so its A' decouples entirely.  The speed
    rows couple free waypoint j only to j - 1 and j + 1, which leaves a
    symmetric block-tridiagonal system with 2 x 2 blocks, solved by
    ``_solve_block_tridiagonal``.
    """
    n = scenario.n_slots
    wp = state.trajectory.waypoints
    delta = state.trajectory.slot_length
    leg = scenario.v_max * delta
    q_i = np.asarray(scenario.q_start, dtype=float)
    q_f = np.asarray(scenario.q_final, dtype=float)
    cap = scenario.gamma_min * scenario.noise_power

    if n == 1:
        # both waypoints pinned; nothing to optimize
        new = _state_from_plan(state.trajectory, state.powers, scenario, state.trace)
        return new, True

    direct = math.dist(q_f, q_i) / n
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

    # unknowns z: free waypoints 1..N-1 (slot j < N - 1 sits at free
    # waypoint j), then A'_n per slot in units of cap.  Slot n's surrogate
    # cap at position q is G_n(q) = g0 + g1 . q + g2 |q|^2 in units of cap
    m = n - 1
    nq = 2 * m
    g2 = -2.0 * s_ref * msum / cap
    g1 = 4.0 * s_ref[:, None] * msens / cap
    g0 = (c0 - 2.0 * s_ref * mconst) / cap
    leg2 = leg * leg
    rate = scenario.gamma_min / n    # the objective is -rate sum_n A'_n
    chain = np.empty((n + 1, 2))     # q_i, the free waypoints, q_f
    chain[0], chain[-1] = q_i, q_f

    def cap_norm(pos):            # G_n at slot positions pos (N, 2)
        return g0 + ((g1 + g2[:, None] * pos) * pos).sum(axis=1)

    last = [None, None]  # the iterate slacks last saw, and its result

    def slacks(z):
        """-g of every row, (3, N): A' <= 1, surrogates, speed limits.

        The barrier never changes an iterate in place, and its line search
        passes the point it accepts on to ``newton`` as the same array, so
        a repeat call with that array returns the stored result.
        """
        if z is last[0]:
            return last[1]
        chain[1:-1] = z[:nq].reshape(m, 2)
        d = chain[1:] - chain[:-1]                # (N, 2) legs
        a = z[nq:]
        out = np.empty((3, n))
        out[0] = 1.0 - a
        out[1] = cap_norm(chain[1:]) - a
        out[2] = 1.0 - (d * d).sum(axis=1) / leg2
        last[:] = z, (out, d)
        return out, d

    def newton(z, t):
        s, d = slacks(z)
        w = 1.0 / s                    # barrier weights; gradient terms
        w2 = w * w                     # are w grad(g), Hessian terms
        wb, ws, wv = w                 # w2 grad(g) grad(g)^T + w hess(g)
        w2b, w2s, w2v = w2
        q = z[:nq].reshape(m, 2)
        # the surrogate row A'_j - G_j(q_j) has gradient c in q_j and
        # Hessian -2 g2 I; speed row r has gradient u_r in its head point
        c = -(g1[:-1] + 2.0 * g2[:-1, None] * q)
        u = (2.0 / leg2) * d
        grad = np.empty(z.size)
        grad[:nq] = (
            ws[:-1, None] * c + wv[:-1, None] * u[:-1] - wv[1:, None] * u[1:]
        ).ravel()
        grad[nq:] = -t * rate + wb + ws
        # 2 x 2 blocks as (xx, xy, yy) rows.  Speed row r adds
        # w2v u u^T + iso_v I to the blocks of both its end points and the
        # negative to the block between them
        outer = w2v[:, None] * u[:, _XXY] * u[:, _XYY]
        iso_v = (2.0 / leg2) * wv
        iso = -2.0 * ws[:-1] * g2[:-1] + iso_v[:-1] + iso_v[1:]
        diag = outer[:-1] + outer[1:] + iso[:, None] * _EYE
        off = -(outer[1:-1] + iso_v[1:-1, None] * _EYE)
        cc = c[:, _XXY] * c[:, _XYY]
        a_diag = w2b + w2s
        trace = float(
            diag[:, ::2].sum() + (w2s[:-1] * (cc[:, 0] + cc[:, 2])).sum()
            + a_diag.sum()
        )

        def solve(rhs, ridge):
            piv = a_diag + ridge                   # the A' diagonal
            if not ((piv > 0.0) & (piv < np.inf)).all():
                return None
            r_a = rhs[nq:]
            # A'_j's row, piv_j dA_j + w2s_j c_j . dq_j = r_a_j, eliminated;
            # w2s (w2b + ridge) / piv is w2s - w2s^2 / piv without cancellation
            k = w2s[:-1] / piv[:-1]
            keep = k * (w2b[:-1] + ridge)
            r = rhs[:nq].reshape(m, 2) - (k * r_a[:-1])[:, None] * c
            dq = _solve_block_tridiagonal(
                diag + ridge * _EYE + keep[:, None] * cc, off, r
            )
            if dq is None:
                return None
            step = np.empty_like(rhs)
            step[:nq] = dq.ravel()
            step[nq:] = r_a / piv
            step[nq:-1] -= k * (c * dq).sum(axis=1)
            return step

        return grad, trace, solve

    # strictly feasible start: bend slightly toward the uniform direct path
    direct_path = np.linspace(q_i, q_f, n + 1)[1:-1]
    q_start = 0.99 * wp[1:-1] + 0.01 * direct_path
    z0 = np.empty(nq + n)
    z0[:nq] = q_start.ravel()
    chain[1:-1] = q_start
    z0[nq:] = np.minimum(1.0, cap_norm(chain[1:])) - 0.01

    grad_f = np.zeros(z0.size)
    grad_f[nq:] = -rate
    gamma = scenario.gamma_min
    program = SmoothConvexProgram(
        objective=lambda z: -rate * float(z[nq:].sum()),
        gradient=lambda z: grad_f,
        x0=z0,
        blocks=[GenericBlock(lambda z: -slacks(z)[0].ravel())],
        newton=newton,
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
    new_wp[1:-1] = outcome.x[:nq].reshape(m, 2)
    return _accept(state, _state_from_plan(
        Trajectory(new_wp, delta), state.powers, scenario, state.trace
    ))


def _solve_block_tridiagonal(diag, off, r):
    """Solve a symmetric block-tridiagonal system with 2 x 2 blocks.

    ``diag`` (m, 3) holds diagonal block j as its (xx, xy, yy) entries;
    ``off`` (m - 1, 3) holds the symmetric block coupling unknown j to
    j + 1 (both ways); ``r`` is the (m, 2) right-hand side.  Block LDL^T,
    the block Thomas algorithm (Golub & Van Loan, Matrix Computations,
    sec. 4.5), written out in scalar float arithmetic, so no BLAS is
    involved and the result does not depend on a thread count.  Returns
    the (m, 2) solution, or None when a pivot block is not positive
    definite or not finite.
    """
    m = len(diag)
    rows = np.empty((m, 8))    # D_j, r_j and E_{j-1} (zero for j = 0)
    rows[:, :3] = diag
    rows[:, 3:5] = r
    rows[0, 5:] = 0.0
    rows[1:, 5:] = off
    forward = []     # inverse pivot, eliminated right side and E_{j-1}
    i11 = i12 = i22 = bx = by = 0.0
    for sxx, sxy, syy, rx, ry, e11, e12, e22 in rows.tolist():
        # L = E S^-1 with the previous pivot S; S_j = D_j - L E and
        # y_j = r_j - L y_{j-1}
        l11 = e11 * i11 + e12 * i12
        l12 = e11 * i12 + e12 * i22
        l21 = e12 * i11 + e22 * i12
        l22 = e12 * i12 + e22 * i22
        sxx -= l11 * e11 + l12 * e12
        sxy -= l11 * e12 + l12 * e22
        syy -= l21 * e12 + l22 * e22
        bx, by = rx - (l11 * bx + l12 * by), ry - (l21 * bx + l22 * by)
        det = sxx * syy - sxy * sxy
        if not (sxx > 0.0 and 0.0 < det < math.inf):
            return None
        i11, i12, i22 = syy / det, -sxy / det, sxx / det
        forward.append((i11, i12, i22, bx, by, e11, e12, e22))

    out = [0.0] * (2 * m)
    x = y = f11 = f12 = f22 = 0.0
    j = 2 * m
    for i11, i12, i22, bx, by, e11, e12, e22 in reversed(forward):
        # x_j = S_j^-1 (y_j - E_j x_{j+1}), with E_j = 0 for the last j
        bx -= f11 * x + f12 * y
        by -= f12 * x + f22 * y
        x, y = i11 * bx + i12 * by, i12 * bx + i22 * by
        j -= 2
        out[j], out[j + 1] = x, y
        f11, f12, f22 = e11, e12, e22
    return np.array(out).reshape(m, 2)


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
        step = newton_direction(dense_solver(hess), 1.0 - usage, diag.mean())
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
    rounds.  The trace records every step.  Raises ScenarioError when
    ``init`` has a non-finite waypoint.
    """
    init.require_finite()
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
