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
accepted steps.  The trajectory step is a second-order cone program
(the speed limits and the per-slot concave quadratic caps are cones),
solved by the primal-dual method of ``convex_core.solve_socp``; its
scaled normal system is block-tridiagonal once the per-slot auxiliaries
are eliminated, so each iteration costs O(N) scalar operations.  Each
surrogate is solved only as far as SCA needs: its solution is used
through the exact objective alone, so its solve stops once the duality
gap is a tenth of the gain it has captured over the current plan.  The
power step is solved in price space: at prices on the K budgets each
slot's best powers have a closed form, so only the K prices are
searched.  A step is rejected (iterate kept) if its solver breaks down
(a singular system, a stalled line search, or a power-price search that
settles nothing), or if the exact objective would regress beyond
rounding tolerance; a trajectory solve that stops short of the current
plan on the surrogate keeps the plan as an accepted step instead.  Each
step records why in ``ScaState.status`` and the trace.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from outage_planner.channel import gain_at
# solve_barrier is not called here, but stays a module attribute: the
# benchmark's tracer (perfbench/tracing.py) wraps it under this module
from outage_planner.convex_core import (  # noqa: F401
    STATUS_MAX_ITERS,
    STATUS_OPTIMAL,
    ConeProgram,
    minimize_prices,
    solve_barrier,
    solve_price_feasibility,
    solve_socp,
)
from outage_planner.relaxed_optimum import HoverPlan
from outage_planner.scenario import PowerSchedule, Scenario, Trajectory

OBJ_TOL_REL = 1e-9     # accepted steps may regress at most this (relative)
DEFAULT_ROUNDS = 50
DEFAULT_REL_IMPROVEMENT = 1e-4
# How far solve_socp solves each trajectory surrogate.  SCA reads the
# solution only through _accept, which checks the exact objective, and
# every iterate of solve_socp is strictly feasible, so a looser solve
# cannot make a plan unsound; inexact SCA still converges while the
# surrogate errors shrink with the gains (Facchinei, Scutari & Sagratella,
# IEEE TSP 2015).  So a solve stops once its duality gap s . z is at most
# a tenth of the surrogate gain it has captured, ref - c @ x, where ref
# is the surrogate's value at the current plan: the minorant makes that
# gain a lower bound on the exact one.  With no dual-residual test s . z
# only estimates the gain left, so the share captured is measured, not
# guaranteed: at least 95.4 % on the measured sets, and the tests check
# 90 %.  A step whose gain is below the round gain that ends SCA stops at
# a gap of a tenth of that gain instead, relative like that gain, and may
# stop short of the current plan.  20 iterations still end a solve,
# whose x is kept whenever _accept passes it.
_SURROGATE_GAP_SHARE = 0.1
_SURROGATE_MAX_ITERS = 20
_PRICE_STEP_MAX_NEWTON = 50   # dual Newton steps of the power step
_PRICE_STEP_BOUNDARY = 0.5    # their fraction to the boundary nu = 0; 0.99
                              # can land on the all-capped plateau and stall


STATUS_REGRESSED = "regressed"      # the exact objective would fall
STATUS_NO_INTERIOR = "no-interior"  # the trajectory program has no interior
STATUS_FAILED = "failed"            # the power step's price search failed
_SOLVED = (STATUS_OPTIMAL, STATUS_MAX_ITERS)  # solves whose x _accept judges


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    objective: float
    step_kind: str   # "trajectory" | "power"
    accepted: bool
    status: str      # why the step was kept or rejected: ScaState.status


@dataclass
class ScaState:
    """Current iterate of the alternating optimization.

    ``amplitudes`` always holds the exact received amplitudes of the
    current plan (the linearization point of the next step).
    ``objective`` is the mean SNR clipped at gamma_min, a number in
    [0, gamma_min] that increases weakly across accepted steps.
    ``status`` says how the step that returned this state ended.  A
    trajectory step reports its cone solve's status: optimal or
    max-iters when accepted (also when it keeps the plan because its
    solve stopped short of it), singular or stalled when rejected, or
    no-interior when the speed limits leave nothing to solve.  A power
    step reports optimal, or failed when its price search settles
    nothing.  Either reports regressed when the exact objective would
    fall.  A rejected step returns the old plan with its own status.
    """

    trajectory: Trajectory
    powers: np.ndarray        # (K, N) watts
    amplitudes: np.ndarray    # (K, N)
    objective: float
    trace: list[TraceEntry] = field(default_factory=list)
    status: str = STATUS_OPTIMAL

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


def _rejected(old: ScaState, status: str) -> tuple[ScaState, bool]:
    """(old plan, False), with ``status`` saying why."""
    return replace(old, status=status), False


def _accept(old: ScaState, candidate: ScaState) -> tuple[ScaState, bool]:
    """(candidate, True) unless its objective regresses, else the old plan
    with status regressed and False."""
    floor = old.objective - OBJ_TOL_REL * max(1.0, abs(old.objective))
    if candidate.objective >= floor:
        return candidate, True
    return _rejected(old, STATUS_REGRESSED)


def trajectory_step(state: ScaState, scenario: Scenario) -> tuple[ScaState, bool]:
    """One SCA trajectory update with the power schedule held fixed.

    Maximizes the slot-mean of auxiliary received powers A_n subject to
    A_n <= gamma * noise, A_n below the tangent-bound surrogate of the
    received power at waypoint n, and the per-slot speed constraints.
    Summed-amplitude variables are eliminated exactly: the surrogate is
    affine and increasing in them, so they sit at their position-dependent
    upper bounds, leaving a concave quadratic cap in the waypoint.

    The program is solved in cone form by ``solve_socp`` with a stop tied
    to the gain over the current plan (``_SURROGATE_GAP_SHARE``): see
    ``_trajectory_cones``.  Returns the old plan and False when the solver
    breaks down (singular or stalled), and otherwise the new plan unless
    its exact objective regresses.  A solve stopped at the iteration cap
    counts: its x is feasible, and ``_accept`` judges it on the exact
    objective like any other.  A solve that stops short of the current
    plan on the surrogate (c @ x above its value there) has found nothing
    better than the plan, itself a feasible point; when its x regresses,
    the step keeps the plan and returns True with the solve's status.
    """
    n = scenario.n_slots
    wp = state.trajectory.waypoints
    delta = state.trajectory.slot_length
    if n == 1:
        # both waypoints pinned; nothing to optimize
        new = _state_from_plan(state.trajectory, state.powers, scenario, state.trace)
        return new, True

    leg = scenario.v_max * delta
    direct = math.dist(scenario.q_final, scenario.q_start) / n
    if leg - direct <= 1e-6 * leg:
        # speed budget leaves no interior to search
        return _rejected(state, STATUS_NO_INTERIOR)

    program, waypoints = _trajectory_cones(state, scenario)
    ref = -state.objective         # c @ x at the plan: both tangents are tight
    floor = DEFAULT_REL_IMPROVEMENT * max(abs(ref), 1e-12)   # plan_sca's end

    def enough(gap, objective):
        return gap <= _SURROGATE_GAP_SHARE * max(ref - objective, floor)

    try:
        outcome = solve_socp(program, enough=enough, max_iters=_SURROGATE_MAX_ITERS)
    except ValueError:
        return _rejected(state, STATUS_NO_INTERIOR)
    if outcome.status not in _SOLVED:
        return _rejected(state, outcome.status)

    new_wp = wp.copy()
    new_wp[1:-1] = waypoints(outcome.x)
    new, ok = _accept(state, _state_from_plan(
        Trajectory(new_wp, delta), state.powers, scenario, state.trace
    ))
    if ok:
        new.status = outcome.status
    elif outcome.objective >= ref:
        return replace(state, status=outcome.status), True
    return new, ok


def _trajectory_cones(state: ScaState, scenario: Scenario):
    """The trajectory step as a ``ConeProgram``, and x -> free waypoints.

    Slot n's surrogate cap at position q is G_n(q) = g0 + g1 . q - kappa
    |q|^2 in units of gamma * noise, kappa >= 0.  The unknowns x are the
    displacements d_j of the free waypoints 1..N-1 from the strictly
    feasible start q0 (slot j < N - 1 sits at free waypoint j; the last
    slot's waypoint is pinned), then A'_n per slot in units of gamma *
    noise; the objective is -(gamma / N) sum_n A'_n.  With u_j =
    G_j(q0_j) + grad G_j(q0_j) . d_j - A'_j, the cone rows are, in order:

    * linear: A'_n <= 1 (N rows), then the last slot's A' <= G(q_final);
    * slot j: the rotated cone (u_j + tau_j, 2 sqrt(kappa_j tau_j) d_j,
      u_j - tau_j), that is u_j >= kappa_j |d_j|^2, or A'_j <= G_j(q_j),
      in the unit tau_j = min(1, G_j(q0_j)); a linear row u_j >= 0 where
      kappa_j = 0 (such as a slot without power);
    * leg r: the cone (v_max delta, leg_r), the speed limit, in metres,
      so that the iterate's strict feasibility is the comparison
      ``validate_plan`` makes.

    Linear rows and leg cones are padded to the slot cones' dimension 4.
    ``factor`` exploits the structure.  Each A'_j appears only in the rows
    of its own slot, so it is eliminated per slot, and each leg's scaled
    cone adds a 2 x 2 positive definite spring between its two waypoints.
    What is left is a chain of springs with a grounding block per
    waypoint, factored by ``_factor_spring_chain``.
    """
    n = scenario.n_slots
    m = n - 1
    nq = 2 * m
    leg = scenario.v_max * state.trajectory.slot_length
    q_i = np.asarray(scenario.q_start, dtype=float)
    q_f = np.asarray(scenario.q_final, dtype=float)
    cap = scenario.gamma_min * scenario.noise_power

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
    kappa = 2.0 * s_ref * msum / cap
    g1 = 4.0 * s_ref[:, None] * msens / cap
    g0 = (2.0 * s_ref * a0 - s_ref**2 - 2.0 * s_ref * mconst) / cap

    # strictly feasible start: bend slightly toward the uniform direct path
    direct_path = np.linspace(q_i, q_f, n + 1)[1:-1]
    q0 = 0.99 * state.trajectory.waypoints[1:-1] + 0.01 * direct_path
    at = np.vstack([q0, q_f])                      # slot positions at the start
    cap0 = g0 + ((g1 - kappa[:, None] * at) * at).sum(axis=1)   # G_n(q0_n)
    grad = g1[:m] - 2.0 * kappa[:m, None] * q0     # grad G_j(q0_j)
    curved = (kappa[:m] > 0.0).astype(float)       # 1 for a cone, 0 for a row
    # u +- tau keeps u only to eps * tau, so tau follows the cap's own
    # scale, near 1e-10 when gamma is out of reach
    tau = curved * np.where(cap0[:m] > 0.0, np.minimum(1.0, cap0[:m]), 1.0)
    root = 2.0 * np.sqrt(kappa[:m] * tau)
    minus_root, root2, weight = -root, root**2, 1.0 + curved
    grad_t = np.ascontiguousarray(grad.T)          # cone data component-major
    slots = slice(n + 1, n + 1 + m)
    legs = slice(n + 1 + m, 3 * n)
    chain = np.empty((2, n + 1))                   # q_i, the free waypoints, q_f
    chain[:, 0], chain[:, -1] = q_i, q_f

    def waypoints(x):
        return q0 + x[:nq].reshape(m, 2)

    def slacks(x):
        d = x[:nq].reshape(m, 2).T
        np.add(q0.T, d, out=chain[:, 1:-1])
        a = x[nq:]
        u = cap0[:m] + (grad_t * d).sum(axis=0) - a[:m]
        out = np.zeros((4, 3 * n))
        np.subtract(1.0, a, out=out[0, :n])
        out[0, n] = cap0[-1] - a[-1]
        np.add(u, tau, out=out[0, slots])
        np.multiply(root, d, out=out[1:3, slots])
        np.multiply(curved, u - tau, out=out[3, slots])
        out[0, legs] = leg
        np.subtract(chain[:, 1:], chain[:, :-1], out=out[1:3, legs])
        return out

    def g_mul(dx):
        d = dx[:nq].reshape(m, 2).T
        da = dx[nq:]
        out = np.zeros((4, 3 * n))
        du = out[0, slots]                         # G dx on the u rows
        np.subtract(da[:m], (grad_t * d).sum(axis=0), out=du)
        out[0, :n] = da
        out[0, n] = da[-1]
        np.multiply(minus_root, d, out=out[1:3, slots])
        np.multiply(curved, du, out=out[3, slots])
        step = out[1:3, legs]                      # leg r: d_r-1 - d_r
        np.negative(d, out=step[:, :-1])
        step[:, 1:] += d
        return out

    def g_tmul(v):
        row = v[:, slots]
        on_u = row[0] + curved * row[3]            # weight of each u
        along = v[1:3, legs]
        out = np.empty(nq + n)
        gd = out[:nq].reshape(m, 2).T
        np.subtract(along[:, 1:], along[:, :-1], out=gd)
        gd -= root * row[1:3]
        gd -= on_u * grad_t
        ga = out[nq:]
        ga[:] = v[0, :n]
        ga[:m] += on_u
        ga[-1] += v[0, n]
        return out

    def factor(nt):
        # G^T H^2 G from H^2 = (2 J w w^T J - J) / beta^2 per cone
        w, inv_b2 = nt.point, nt.beta**-2.0
        bound = inv_b2[:m]                         # the A' <= 1 rows
        # slot j's rows add omega g g^T + iso diag(I, 0) on (d_j, A'_j),
        # g = (g_d, g_a); a linear row has w = e, so g = (-grad_j, 1)
        ws = w[:, slots]
        omega = weight * inv_b2[slots]
        g_a = ws[0] - ws[3]
        g_d = root * ws[1:3] - g_a * grad_t
        # eliminate A'_j: pivot omega g_a^2 + bound, coupling omega g_a g_d,
        # leaving the ground iso I + (omega bound / pivot) g_d g_d^T
        pivot = omega * g_a**2 + bound
        couple = (omega * g_a) * g_d
        ground = np.empty((3, m))
        ground[0] = root2 * inv_b2[slots]
        ground[1:] = np.sqrt(omega * bound / pivot) * g_d
        last = inv_b2[n - 1] + inv_b2[n]
        # leg r's spring (I + 2 w_1: w_1:^T) / beta^2
        springs = np.empty((3, n))
        springs[0] = inv_b2[legs]
        springs[1:] = np.sqrt(2.0 * springs[0]) * w[1:3, legs]
        chol = _factor_spring_chain(ground.T, springs.T)
        if chol is None or not 0.0 < last < math.inf:
            return None

        def solve(r):
            ra = r[nq:]
            rd = r[:nq].reshape(m, 2).T - (ra[:m] / pivot) * couple
            out = np.empty(nq + n)
            out[:nq] = _solve_spring_chain(chol, rd.T)
            d = out[:nq].reshape(m, 2).T
            da = out[nq:]
            da[:m] = (ra[:m] - (couple * d).sum(axis=0)) / pivot
            da[-1] = ra[-1] / last
            return out

        return solve

    # A' starts 0.01 below its cap, or tau below it on a cone row whose
    # unit tau is smaller: u0 +- tau must resolve tau at any gamma
    below = np.full(n, 0.01)
    below[:m] = np.where(curved > 0.0, np.minimum(0.01, tau), 0.01)
    x0 = np.zeros(nq + n)
    x0[nq:] = np.minimum(1.0, cap0) - below
    c = np.zeros(nq + n)
    c[nq:] = -scenario.gamma_min / n
    return ConeProgram(c, x0, slacks, g_mul, g_tmul, factor), waypoints


def _compress(c, x1, y1, x2, y2, x3, y3):
    """c I + sum_i p_i p_i^T, three 2-vectors p_i, as (c', rx, ry).

    The sum equals c' I + r r^T: the outer products have eigenvalues
    lo <= hi with hi - lo = |(xx - yy, 2 xy)| and, by Cauchy-Binet,
    lo hi = sum_{i<j} (p_i x p_j)^2, so lo is formed from positive terms.
    """
    xx = x1 * x1 + x2 * x2 + x3 * x3
    yy = y1 * y1 + y2 * y2 + y3 * y3
    xy = x1 * y1 + x2 * y2 + x3 * y3
    diff = xx - yy
    spread = math.hypot(diff, 2.0 * xy)
    hi = 0.5 * (xx + yy + spread)
    if hi > 0.0:
        a, b, e = x1 * y2 - y1 * x2, x1 * y3 - y1 * x3, x2 * y3 - y2 * x3
        c += (a * a + b * b + e * e) / hi
    # the top eigenvector, from the larger of the two diagonal entries
    vx, vy = (diff + spread, 2.0 * xy) if diff >= 0.0 else (2.0 * xy, spread - diff)
    norm = math.hypot(vx, vy)
    if norm == 0.0:
        return c, 0.0, 0.0
    f = math.sqrt(spread) / norm
    return c, f * vx, f * vy


def _factor_spring_chain(ground, springs):
    """Block LDL^T of a chain of 2 x 2 springs between pinned ends.

    Free point j (of m) is grounded by the positive semidefinite block
    ``ground[j]`` and joined to its neighbours by ``springs[j]`` (to point
    j - 1, or the pinned start for j = 0) and ``springs[j + 1]`` (to point
    j + 1, or the pinned end).  Every block is given as (c, px, py), the
    matrix c I + p p^T, with c > 0 for the springs.  The system matrix is
    block-tridiagonal with diagonal G_j + K_j + K_j+1 and off-diagonal
    -K_j+1 (Golub & Van Loan, Matrix Computations, sec. 4.5).  The pivots
    are formed in series-spring form, S_j = A_j + K_j+1 with
    A_0 = G_0 + K_0 and A_j = G_j + A (A + K_j)^-1 K_j, A = A_j-1, where
    A (A + K)^-1 K = (det(A) K + det(K) A) / det(A + K).  Only positive
    terms are summed, where D_j - K_j S_j-1^-1 K_j cancels: every A stays
    in the (c, p) form (``_compress``), every determinant of a sum
    c I + p p^T + q q^T is (c + |p|^2 + |q|^2) c + (p x q)^2, and the
    multipliers L_j+1 = K_j+1 S_j^-1 are formed from adjugates.  Written
    out in scalar float arithmetic, so no BLAS is involved and the result
    does not depend on a thread count.  Returns the factor for
    ``_solve_spring_chain``, or None when a pivot is not positive
    definite or not finite.
    """
    inverse, mult = [], []
    g, gx, gy, k, kx, ky = ground[0].tolist() + springs[0].tolist()
    a, ax, ay = _compress(g + k, gx, gy, kx, ky, 0.0, 0.0)
    rows = np.hstack([ground, springs[:-1], springs[1:]]).tolist()
    for j, (g, gx, gy, k, kx, ky, n, nx, ny) in enumerate(rows):
        if j:
            # A = G + (det(A) K + det(K) A) / det(A + K), compressed
            pp, qq, cross = ax * ax + ay * ay, kx * kx + ky * ky, ax * ky - ay * kx
            det_a, det_k = a * (a + pp), k * (k + qq)
            det_t = (a + k) * (a + k + pp + qq) + cross * cross
            fa, fk = math.sqrt(det_a / det_t), math.sqrt(det_k / det_t)
            a, ax, ay = _compress(
                g + (det_a * k + det_k * a) / det_t, gx, gy,
                fa * kx, fa * ky, fk * ax, fk * ay,
            )
        # S = A + K_j+1 = s I + p p^T + v v^T, adj(S) = s I + p' p'^T
        # + v' v'^T with p' = (-py, px), and L = (n I + v v^T) adj(S) / det
        s = a + n
        c = ax * ny - ay * nx                      # p x v, or v . p'
        det = s * (s + ax * ax + ay * ay + nx * nx + ny * ny) + c * c
        if not (s > 0.0 and det < math.inf):
            return None
        i11 = s + ay * ay + ny * ny
        i22 = s + ax * ax + nx * nx
        i12 = -(ax * ay + nx * ny)
        inverse.append((i11 / det, i12 / det, i22 / det))
        mult.append((
            (n * i11 + s * nx * nx - c * nx * ay) / det,
            (n * i12 + s * nx * ny + c * nx * ax) / det,
            (n * i12 + s * nx * ny - c * ny * ay) / det,
            (n * i22 + s * ny * ny + c * ny * ax) / det,
        ))
    return inverse, mult


def _solve_spring_chain(chol, r):
    """Solve the system factored by ``_factor_spring_chain`` for r (m, 2).

    With L_j+1 = K_j+1 S_j^-1: forward y_j = r_j + L_j y_j-1, then back
    x_j = S_j^-1 y_j + L_j+1^T x_j+1.  Returns the solution as one flat
    list, point by point.
    """
    inverse, mult = chol
    b = r.ravel().tolist()                         # x_0, y_0, x_1, ...
    x = y = l11 = l12 = l21 = l22 = 0.0
    i = 0
    for step in mult:
        x, y = b[i] + l11 * x + l12 * y, b[i + 1] + l21 * x + l22 * y
        b[i], b[i + 1] = x, y
        l11, l12, l21, l22 = step
        i += 2
    x = y = 0.0
    for (i11, i12, i22), (l11, l12, l21, l22) in zip(
        reversed(inverse), reversed(mult)
    ):
        i -= 2
        bx, by = b[i], b[i + 1]
        x, y = (
            i11 * bx + i12 * by + l11 * x + l21 * y,
            i12 * bx + i22 * by + l12 * x + l22 * y,
        )
        b[i], b[i + 1] = x, y
    return b


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
        return _rejected(state, STATUS_FAILED)
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
    every slack budget.  Otherwise ``minimize_prices`` minimizes the convex
    dual g(nu) = sum_k nu_k + mean_n [gamma min(1, beta_n S_n - off_n)
    - S_n^2 / w_n] over nu > 0.  Its gradient is 1 - usage of the shares
    p'_kn = (S_n / w_n)^2 e2_kn / nu_k^2, and it stops once g exceeds the
    value of those shares, scaled per sensor into the budget, by at most
    1e-10 max(1, gamma).  None after ``_PRICE_STEP_MAX_NEWTON`` steps.
    A silent slot (s_n = 0, so beta_n = 0) has a flat tangent bound: A'_n
    <= 0 whatever its powers.  Its target, zero, is already met, so it
    has t_n = inf, no column in the price test and zero shares there.
    """
    k, n = e2.shape
    live = beta > 0.0
    top = np.divide(1.0 + off, beta, out=np.full(n, np.inf), where=live)
    reach = (
        solve_price_feasibility(n * e2[:, live] / top[live] ** 2)
        if live.any() else np.zeros((k, 0))
    )
    if reach is not None:
        shares = np.zeros_like(e2)
        shares[:, live] = n * reach
        return shares

    def dual(nu):
        w = (e2 / nu[:, None]).sum(axis=0)
        amp = np.minimum(0.5 * gamma * beta * w, top)
        value = nu.sum() + np.mean(
            gamma * np.minimum(1.0, beta * amp - off) - amp**2 / w
        )
        return float(value), w, amp

    tol = 1e-10 * max(1.0, gamma)

    def model(nu):
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
            return p, None
        # capped slots add -2 S^2 / w^3 a a^T to the Hessian.  Where every
        # slot is capped g is linear along nu and the Hessian singular:
        # the ridge of newton_step, scaled by the mean of the diagonal
        # term, then turns the step into descent
        curv = np.where(amp < top, 0.0, 2.0 * ratio2 / w)
        diag = 2.0 * usage / nu
        hess = np.diag(diag) - (a * curv) @ a.T / n
        return None, (g, 1.0 - usage, hess, diag.mean())

    return minimize_prices(
        model, lambda v: dual(v)[0],
        0.5 * gamma * np.sqrt((beta**2 * e2).mean(axis=1)),
        _PRICE_STEP_MAX_NEWTON, _PRICE_STEP_BOUNDARY,
    )


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
    ``init`` has a non-finite waypoint or does not fit the scenario.
    """
    init.require_finite()
    init.require_fit(scenario)
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
            state.trace.append(TraceEntry(
                len(state.trace) + 1, state.objective, kind, ok, state.status
            ))
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


def itinerary_waypoints(scenario: Scenario, stops, hovers) -> np.ndarray:
    """Waypoints of M stop-and-go itineraries sampled on the slot grid.

    Itinerary m flies start -> stops[m, 0] -> ... -> stops[m, S - 1] ->
    finish with every leg at maximum speed and hovers ``hovers[m, i]``
    seconds at stop i; ``stops`` has shape (M, S, 2), ``hovers`` (M, S)
    and the result (M, N + 1, 2).  Arriving early means hovering at the
    finish for the remaining slots.  Legs are measured with ``math.dist``
    and each segment starts at the cumulative sum of the times before it,
    so a row has the same bits in any batch.  Raises ValueError for a
    non-finite stop or hover time, a negative hover time, or legs plus
    hovers longer than the mission duration T (1 + 1e-9): any longer
    would make some slot outrun the speed limit.
    """
    hovers = np.asarray(hovers, dtype=float)
    stops = np.asarray(stops, dtype=float)
    if stops.size == 0:
        stops = stops.reshape(hovers.shape + (2,))
    if hovers.ndim != 2 or stops.shape != hovers.shape + (2,):
        raise ValueError("need one hover time per stop")
    if not (np.isfinite(stops).all() and np.isfinite(hovers).all()):
        raise ValueError("itinerary stops and hover times must be finite")
    if (hovers < 0.0).any():
        raise ValueError("hover times must be nonnegative")
    m, s = hovers.shape
    q_i = np.asarray(scenario.q_start, dtype=float)
    q_f = np.asarray(scenario.q_final, dtype=float)
    ends = np.concatenate(
        [np.broadcast_to(q_i, (m, 1, 2)), stops, np.broadcast_to(q_f, (m, 1, 2))],
        axis=1,
    )
    legs = np.array(
        [[math.dist(a, b) for a, b in zip(path, path[1:])] for path in ends.tolist()]
    ).reshape(m, s + 1)
    # segment j runs from point (j + 1) // 2 of the path to point
    # j // 2 + 1: legs at even j, hovers at odd j
    seg_dt = np.empty((m, 2 * s + 1))
    seg_dt[:, 0::2] = legs / scenario.v_max
    seg_dt[:, 1::2] = hovers
    clock = np.cumsum(seg_dt, axis=1)
    if (clock[:, -1] > scenario.duration * (1.0 + 1e-9)).any():
        raise ValueError("itinerary legs and hovers exceed the mission duration")
    seg_t0 = np.zeros_like(seg_dt)
    seg_t0[:, 1:] = clock[:, :-1]
    j = np.arange(2 * s + 1)
    seg_from, seg_to = (j + 1) // 2, j // 2 + 1

    times = np.arange(scenario.n_slots + 1) * scenario.slot_length
    seg = (seg_t0[:, None, :] <= times[None, :, None]).sum(axis=2) - 1
    t0 = np.take_along_axis(seg_t0, seg, axis=1)
    dt = np.take_along_axis(seg_dt, seg, axis=1)
    frac = np.clip(
        np.divide(times - t0, dt, out=np.zeros_like(dt), where=dt > 0.0),
        0.0,
        1.0,
    )
    rows = np.arange(m)[:, None]
    start = ends[rows, seg_from[seg]]
    wp = start + frac[:, :, None] * (ends[rows, seg_to[seg]] - start)
    wp[:, 0] = q_i
    wp[:, -1] = q_f
    return wp


def itinerary_trajectory(
    scenario: Scenario, stops, hover_times
) -> Trajectory:
    """The stop-and-go itinerary start -> stops -> finish on the slot grid.

    ``itinerary_waypoints`` for one itinerary: every leg at maximum speed,
    ``hover_times[i]`` seconds at stop i, any time left at the finish.
    Raises ValueError as that does.
    """
    wp = itinerary_waypoints(scenario, [stops], [hover_times])
    return Trajectory(wp[0], scenario.slot_length)


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

    t_fly = _tour_length(order, locs, q_i, q_f) / scenario.v_max
    if scenario.duration < t_fly * (1.0 + 1e-12):
        return direct_flight(scenario)

    spare = scenario.duration - t_fly
    hover = spare * stop_taus / stop_taus.sum()
    return itinerary_trajectory(scenario, stops, hover)
