"""Shared fixtures: the bundled demo scenario, randomized and degenerate
small instances, the dense log-barrier references for the cheapest-power
subproblem, the recovery feasibility test and the two SCA steps, the
dense cone form of the trajectory step with an exact rational solve of
its scaled normal system, and the full-grid ellipsoid method whose dual
value ``maximize_dual`` must reach."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from outage_planner import power_recovery
from outage_planner.channel import gain_at, snr, snr_series
from outage_planner.convex_core import (
    BoundBlock,
    GenericBlock,
    STATUS_OPTIMAL,
    SmoothConvexProgram,
    solve_barrier,
)
from outage_planner.relaxed_optimum import DualPoint, dual_function
from outage_planner.sca_planner import _accept, _state_from_plan, direct_flight
from outage_planner.scenario import (
    PowerSchedule,
    Scenario,
    Trajectory,
    dbm_to_watts,
    load_scenario,
    watts_to_dbm,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMO_SCENARIO = REPO_ROOT / "scenarios" / "paper.json"


@pytest.fixture(scope="session")
def demo_scenario() -> Scenario:
    return load_scenario(DEMO_SCENARIO)


def smallest_normal_budget_dbm() -> float:
    """The least budget in dBm that converts to at least the smallest
    normal float in watts, about -3046.5 dBm (2.2e-308 W): the least
    budget a scenario accepts."""
    tiny = float(np.finfo(float).tiny)
    p_dbm = watts_to_dbm(tiny)
    while dbm_to_watts(p_dbm) < tiny:       # round-off of the dB conversion
        p_dbm = math.nextafter(p_dbm, math.inf)
    return p_dbm


def small_doc(**overrides) -> dict:
    """A hand-sized two-sensor instance; fields replaceable per test."""
    doc = {
        "sensors": [
            {"x": 20.0, "y": 10.0, "p_ave_dbm": 27.0},
            {"x": 60.0, "y": 40.0, "p_ave_dbm": 27.0},
        ],
        "h_m": 30.0,
        "beta0_db": -30.0,
        "alpha": 2.8,
        "noise_dbm": -60.0,
        "gamma_min": 100.0,
        "vmax_mps": 30.0,
        "t_s": 8.0,
        "n_slots": 8,
        "q_i": [0.0, 0.0],
        "q_f": [80.0, 50.0],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def small_scenario() -> Scenario:
    return load_scenario(small_doc())


def random_scenario(seed: int, k_hi: int = 4, n_hi: int = 16) -> Scenario:
    """A feasible randomized instance with a non-trivial threshold.

    gamma_min is drawn as a fraction of the best overhead full-budget SNR,
    so serving at least some slots is always possible but never free.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, k_hi + 1))
    sensors = [
        {
            "x": float(rng.uniform(0.0, 60.0)),
            "y": float(rng.uniform(0.0, 60.0)),
            "p_ave_dbm": float(rng.uniform(24.0, 30.0)),
        }
        for _ in range(k)
    ]
    q_i = [float(rng.uniform(0.0, 60.0)), float(rng.uniform(0.0, 60.0))]
    q_f = [float(rng.uniform(0.0, 60.0)), float(rng.uniform(0.0, 60.0))]
    v_max = float(rng.uniform(10.0, 25.0))
    span = float(np.hypot(q_f[0] - q_i[0], q_f[1] - q_i[1]))
    duration = max(span / v_max * float(rng.uniform(1.3, 2.2)), 4.0)
    doc = small_doc(
        sensors=sensors,
        h_m=float(rng.uniform(20.0, 40.0)),
        alpha=float(rng.uniform(2.2, 3.0)),
        gamma_min=1.0,
        vmax_mps=v_max,
        t_s=duration,
        n_slots=int(rng.integers(6, n_hi + 1)),
        q_i=q_i,
        q_f=q_f,
    )
    base = load_scenario(doc)
    best = max(
        snr(s.position, base.power_budgets, base) for s in base.sensors
    )
    doc["gamma_min"] = best * float(rng.uniform(0.25, 0.7))
    return load_scenario(doc)


def full_budget_schedule(scn) -> PowerSchedule:
    return PowerSchedule(
        np.repeat(scn.power_budgets[:, None], scn.n_slots, axis=1)
    )


def with_threshold(doc: dict, fraction: float) -> dict:
    """``doc`` with gamma at a fraction of its best full-budget slot SNR."""
    scn = load_scenario(doc)
    series = snr_series(direct_flight(scn), full_budget_schedule(scn), scn)
    return dict(doc, gamma_min=float(series.max()) * fraction)


DEGENERATE = {
    "one sensor": with_threshold(
        small_doc(sensors=[{"x": 30.0, "y": 20.0, "p_ave_dbm": 27.0}]), 0.8
    ),
    "one slot": with_threshold(small_doc(n_slots=1), 0.8),
    "co-located sensors": with_threshold(
        small_doc(
            sensors=[
                {"x": 40.0, "y": 25.0, "p_ave_dbm": 27.0},
                {"x": 40.0, "y": 25.0, "p_ave_dbm": 24.0},
            ]
        ),
        0.8,
    ),
    "free-space loss": with_threshold(small_doc(alpha=2.0), 1.0),
    "stationary": with_threshold(small_doc(q_f=[0.0, 0.0]), 0.8),
    "trivial threshold": small_doc(gamma_min=1e-6),
    "unreachable threshold": small_doc(gamma_min=1e12),
}


def barrier_power_oracle(mu, q, scenario):
    """Independent interior-point solve of the cheapest-power subproblem.

    Parameterized in received amplitudes rho_k = sqrt(P_k): minimize
    sum mu_k rho_k^2 subject to sum c_k rho_k >= amplitude target.
    """
    cvec = np.sqrt(gain_at(np.asarray(q, dtype=float)[None, :], scenario)[0])
    b_amp = math.sqrt(scenario.gamma_min * scenario.noise_power)
    k = scenario.n_sensors
    x0 = np.full(k, 1.1 * b_amp / (k * cvec.min()))
    prog = SmoothConvexProgram(
        objective=lambda x: float(mu @ x**2),
        gradient=lambda x: 2.0 * mu * x,
        x0=x0,
        blocks=[
            GenericBlock(
                value=lambda x: np.array([b_amp - cvec @ x]),
                jacobian=lambda x: -cvec[None, :],
            ),
            BoundBlock(np.arange(k), -1.0, 0.0),
        ],
        hessian=lambda x: np.diag(2.0 * mu),
    )
    out = solve_barrier(prog, gap_tol=1e-13, max_newton=600)
    assert out.status == STATUS_OPTIMAL
    return out.x**2


BARRIER_ACCEPT_SHORTFALL = 1e-9   # max phase-1 shortfall the reference accepts


def barrier_feasibility_reference(scenario, trajectory, slots, budget_norm):
    """Verdict of the phase-1 log-barrier feasibility program for ``slots``.

    The reference for ``power_recovery.feasibility_for_subset``: minimize the
    shared threshold shortfall t over powers p' (in units of budget * N / m)
    subject to 1 - t - amplitude/b <= 0 per slot, the average-power budgets
    and p' >= 0; the subset is feasible when the optimum has t <= 1e-9.
    Returns (feasible, powers) like the function it checks.
    """
    slots = np.asarray(slots, dtype=int)
    n = scenario.n_slots
    k = scenario.n_sensors
    m = slots.size
    cap_mean = 1.0 if budget_norm == "horizon" else m / n
    b = power_recovery._solver_threshold(scenario)
    gains = gain_at(trajectory.slot_positions[slots], scenario)  # (m, K)
    scale = scenario.power_budgets * n / m                       # (K,)
    e_over_b = np.sqrt(gains * scale[None, :]).T / b             # (K, m)

    nv = k * m + 1
    idx_t = nv - 1
    cols = np.arange(k)[:, None] * m + np.arange(m)[None, :]
    rows = np.broadcast_to(np.arange(m), (k, m))

    def p_of(z):
        return z[: k * m].reshape(k, m)

    def thresh_value(z):
        amp = (e_over_b * np.sqrt(np.maximum(p_of(z), 0.0))).sum(axis=0)
        return 1.0 - z[idx_t] - amp

    def budget_value(z):
        return p_of(z).mean(axis=1) - cap_mean

    def thresh_jacobian(z):
        jac = np.zeros((m, nv))
        jac[rows, cols] = -e_over_b / (2.0 * np.sqrt(p_of(z)))
        jac[:, idx_t] = -1.0
        return jac

    def thresh_hessian(z, w):
        curv = (w * e_over_b) / (4.0 * p_of(z) ** 1.5)
        return np.diag(np.concatenate([curv.ravel(), [0.0]]))

    budget_jac = np.zeros((k, nv))
    budget_jac[np.arange(k)[:, None], cols] = 1.0 / m

    blocks = [
        GenericBlock(thresh_value, thresh_jacobian, thresh_hessian),
        GenericBlock(budget_value, lambda z: budget_jac),
        BoundBlock(np.arange(k * m), -1.0, 0.0),
    ]

    z0 = np.empty(nv)
    z0[: k * m] = 0.45 * cap_mean
    amp0 = (e_over_b * np.sqrt(p_of(z0))).sum(axis=0)
    z0[idx_t] = max(0.0, float((1.0 - amp0).max())) + 0.5

    grad_f = np.zeros(nv)
    grad_f[idx_t] = 1.0
    program = SmoothConvexProgram(
        objective=lambda z: float(z[idx_t]),
        gradient=lambda z: grad_f,
        x0=z0,
        blocks=blocks,
    )
    outcome = solve_barrier(program, gap_tol=1e-11, max_newton=400)
    if outcome.status != STATUS_OPTIMAL:
        return False, None
    if outcome.x[idx_t] > BARRIER_ACCEPT_SHORTFALL:
        return False, None
    powers = np.zeros((k, n))
    powers[:, slots] = p_of(outcome.x) * scale[:, None]
    return True, powers


def power_step_objective(state, scenario, powers):
    """The power step's objective at ``powers`` (K, N), in watts.

    That is (gamma / N) sum_n min(1, beta_n S_n - off_n), the clipped
    tangent bound taken at ``state``'s amplitude sums.
    """
    cap = scenario.gamma_min * scenario.noise_power
    s_ref = state.amplitude_sums
    gains = gain_at(state.trajectory.slot_positions, scenario)
    amp = np.sqrt(powers * gains.T).sum(axis=0)
    clipped = np.minimum(1.0, (2.0 * s_ref * amp - s_ref**2) / cap)
    return scenario.gamma_min * float(clipped.mean())


def barrier_power_step_reference(state, scenario):
    """Optimal powers (K, N) of the SCA power step's program, or None.

    The reference for ``sca_planner.power_step``: the log-barrier program
    over budget shares p' = P / B and auxiliaries A'_n (in units of
    gamma * noise), maximizing (gamma / N) sum_n A'_n subject to A'_n <= 1,
    A'_n <= beta_n sum_k e_kn sqrt(p'_kn) - off_n, p' >= 0 and the budgets
    mean_n p'_kn <= 1, solved to a duality gap of 1e-10 max(1, gamma) with
    a dense Newton system.  None when the barrier stops short of optimal.
    """
    n, k = scenario.n_slots, scenario.n_sensors
    nv = k * n + n
    idx_a = k * n + np.arange(n)
    cap = scenario.gamma_min * scenario.noise_power
    budgets = scenario.power_budgets
    gains = gain_at(state.trajectory.slot_positions, scenario)   # (N, K)
    e = np.sqrt(gains * budgets[None, :]).T                      # (K, N)
    s_ref = state.amplitude_sums
    beta = 2.0 * s_ref / cap
    off = s_ref**2 / cap
    cols = np.arange(k)[:, None] * n + np.arange(n)[None, :]
    rows = np.broadcast_to(np.arange(n), (k, n))

    def p_of(z):
        return z[: k * n].reshape(k, n)

    def surrogate_value(z):
        # negative powers are rejected by the bound block; clip so the
        # amplitude stays finite during infeasible line-search probes
        amp = (e * np.sqrt(np.maximum(p_of(z), 0.0))).sum(axis=0)
        return z[idx_a] + off - beta * amp

    def surrogate_jacobian(z):
        jac = np.zeros((n, nv))
        jac[rows, cols] = -(beta * e) / (2.0 * np.sqrt(p_of(z)))
        jac[np.arange(n), idx_a] = 1.0
        return jac

    def surrogate_hessian(z, w):
        curv = w * beta * e / (4.0 * p_of(z) ** 1.5)
        return np.diag(np.concatenate([curv.ravel(), np.zeros(n)]))

    budget_jac = np.zeros((k, nv))
    budget_jac[np.arange(k)[:, None], cols] = 1.0 / n

    blocks = [
        BoundBlock(idx_a, +1.0, 1.0),
        GenericBlock(surrogate_value, surrogate_jacobian, surrogate_hessian),
        BoundBlock(np.arange(k * n), -1.0, 0.0),
        GenericBlock(lambda z: p_of(z).mean(axis=1) - 1.0, lambda z: budget_jac),
    ]

    p0 = np.maximum(0.99 * state.powers / budgets[:, None], 1e-9)
    z0 = np.zeros(nv)
    z0[: k * n] = p0.ravel()
    amp0 = (e * np.sqrt(p0)).sum(axis=0)
    z0[idx_a] = np.minimum(1.0, beta * amp0 - off) - 0.01

    gamma = scenario.gamma_min
    grad_f = np.zeros(nv)
    grad_f[idx_a] = -gamma / n
    program = SmoothConvexProgram(
        objective=lambda z: float(grad_f @ z),
        gradient=lambda z: grad_f,
        x0=z0,
        blocks=blocks,
    )
    outcome = solve_barrier(
        program, gap_tol=1e-10 * max(1.0, gamma), max_newton=400
    )
    if outcome.status != STATUS_OPTIMAL:
        return None
    return p_of(outcome.x) * budgets[:, None]


def speed_rows_loop_reference(scenario, state):
    """Per-row loops for the speed constraints' Jacobian and Hessian."""
    n = scenario.n_slots
    nv = 2 * (n - 1) + n
    leg2 = (scenario.v_max * state.trajectory.slot_length) ** 2
    q_i, q_f = np.asarray(scenario.q_start), np.asarray(scenario.q_final)

    def jacobian(z):
        chain = np.vstack([q_i, z[: 2 * (n - 1)].reshape(-1, 2), q_f])
        diffs = np.diff(chain, axis=0)
        jac = np.zeros((n, nv))
        for row in range(n):
            d = 2.0 * diffs[row] / leg2
            if row + 1 <= n - 1:                   # head endpoint is free
                jac[row, 2 * row : 2 * row + 2] = d
            if row >= 1:                           # tail endpoint is free
                jac[row, 2 * (row - 1) : 2 * row] = -d
        return jac

    def hessian(z, w):
        h = np.zeros((nv, nv))
        for row in range(n):
            free = [b for b, ok in ((2 * row, row + 1 <= n - 1),
                                    (2 * (row - 1), row >= 1)) if ok]
            val = 2.0 * w[row] / leg2
            for b in free:
                h[b, b] += val
                h[b + 1, b + 1] += val
            if len(free) == 2:
                b1, b2 = free
                for c in (0, 1):
                    h[b1 + c, b2 + c] -= val
                    h[b2 + c, b1 + c] -= val
        return h

    return jacobian, hessian


def surrogate_caps(state, scenario):
    """Each slot's surrogate cap on the received power, as in the paper.

    The tangent bounds at the current iterate give slot n the concave
    quadratic cap G_n(q) on its received power at position q, in units of
    gamma * noise.  Returns (value(slot, q), gradient(slot, q), kappa),
    where kappa_n >= 0 and -2 kappa_n I is G_n's Hessian.
    """
    cap = scenario.gamma_min * scenario.noise_power
    pos = state.trajectory.slot_positions
    w_ref = (
        (pos[:, None, :] - scenario.sensor_xy[None, :, :]) ** 2
    ).sum(axis=2)
    u_ref = w_ref + scenario.altitude**2
    quarter = scenario.alpha / 4.0
    sqrt_pb = np.sqrt(state.powers.T * scenario.beta0)
    slope = sqrt_pb * quarter * u_ref ** (-quarter - 1.0)
    const = sqrt_pb * u_ref**-quarter + slope * w_ref
    a0 = const.sum(axis=1)
    msum = slope.sum(axis=1)
    msens = (slope[:, :, None] * scenario.sensor_xy[None, :, :]).sum(axis=1)
    mconst = (slope * (scenario.sensor_xy**2).sum(axis=1)[None, :]).sum(axis=1)
    s_ref = state.amplitude_sums
    c0 = 2.0 * s_ref * a0 - s_ref**2

    def value(slot, q):
        w = msum[slot] * (q * q).sum(-1) - 2.0 * (msens[slot] * q).sum(-1) \
            + mconst[slot]
        return (c0[slot] - 2.0 * s_ref[slot] * w) / cap

    def gradient(slot, q):
        return (4.0 * s_ref[slot] / cap)[..., None] * (
            msens[slot] - msum[slot][..., None] * q
        )

    return value, gradient, 2.0 * s_ref * msum / cap


def dense_trajectory_program(state, scenario):
    """The SCA trajectory step's barrier program with dense blocks.

    Unknowns are the free waypoints 1..N-1 followed by A'_n per slot (in
    units of gamma * noise); the blocks are A' <= 1, the surrogate rows
    A'_n <= G_n(q_n) of the slots with a free waypoint, the pinned last
    slot's bound, and the speed rows, whose Jacobian and Hessian come
    from ``speed_rows_loop_reference``.  Returns None where the step has
    nothing to solve (one slot, or no speed slack).
    """
    n = scenario.n_slots
    wp = state.trajectory.waypoints
    leg = scenario.v_max * state.trajectory.slot_length
    q_i = np.asarray(scenario.q_start, dtype=float)
    q_f = np.asarray(scenario.q_final, dtype=float)
    if n == 1 or leg - math.dist(q_f, q_i) / n <= 1e-6 * leg:
        return None
    cap_norm, cap_grad, kappa = surrogate_caps(state, scenario)

    n_free = n - 1
    nq = 2 * n_free
    nv = nq + n

    def q_of(z):
        return z[:nq].reshape(n_free, 2)

    slots_var = np.arange(1, n)
    idx_a = nq + np.arange(n)

    def surrogate_value(z):
        return z[idx_a[slots_var - 1]] - cap_norm(slots_var - 1, q_of(z))

    def surrogate_jacobian(z):
        jac = np.zeros((n_free, nv))
        coef = -cap_grad(slots_var - 1, q_of(z))
        rows = np.arange(n_free)
        jac[rows, 2 * rows] = coef[:, 0]
        jac[rows, 2 * rows + 1] = coef[:, 1]
        jac[rows, idx_a[slots_var - 1]] = 1.0
        return jac

    def surrogate_hessian(z, w):
        h = np.zeros((nv, nv))
        diag = h.ravel()[:: nv + 1]
        per_q = w * 2.0 * kappa[slots_var - 1]
        diag[0:nq:2] += per_q
        diag[1:nq:2] += per_q
        return h

    def speed_value(z):
        diffs = np.diff(np.vstack([q_i, q_of(z), q_f]), axis=0)
        return (diffs * diffs).sum(axis=1) / leg**2 - 1.0

    blocks = [
        BoundBlock(idx_a, +1.0, 1.0),
        GenericBlock(surrogate_value, surrogate_jacobian, surrogate_hessian),
        BoundBlock(idx_a[-1:], +1.0, cap_norm(n - 1, q_f[None, :])),
        GenericBlock(speed_value, *speed_rows_loop_reference(scenario, state)),
    ]

    direct_path = np.linspace(q_i, q_f, n + 1)[1:-1]
    q_start = 0.99 * wp[1:-1] + 0.01 * direct_path
    z0 = np.zeros(nv)
    z0[:nq] = q_start.ravel()
    start_caps = np.minimum(1.0, cap_norm(np.arange(n - 1), q_start))
    z0[idx_a[:-1]] = start_caps - 0.01
    z0[idx_a[-1]] = min(1.0, float(cap_norm(n - 1, q_f[None, :])[0])) - 0.01

    grad_f = np.zeros(nv)
    grad_f[idx_a] = -scenario.gamma_min / n
    return SmoothConvexProgram(
        objective=lambda z: float(grad_f @ z),
        gradient=lambda z: grad_f,
        x0=z0,
        blocks=blocks,
    )


def dense_trajectory_cones(state, scenario):
    """The SCA trajectory step's cone program, assembled row by row.

    The reference for ``sca_planner._trajectory_cones``: the unknowns are
    the displacements of the free waypoints from the start q0 = 0.99 q +
    0.01 (direct path), then A'_n per slot; the rows, each padded to 4
    entries, are A'_n <= 1, the last slot's A' <= G(q_final), per free
    slot the rotated cone (u + tau, 2 sqrt(kappa tau) d, u - tau) with
    tau = min(1, G(q0)) (or the linear row u >= 0 where kappa = 0), and
    per leg the cone (v_max delta, leg).  Each A' starts 0.01 below its
    cap, or min(0.01, tau) below it on a cone row.  Returns (c, x0, G, h)
    with G of shape (3N, 4, 3N - 2), so that the slacks are h - G x, or
    None where the step has nothing to solve.
    """
    n = scenario.n_slots
    leg = scenario.v_max * state.trajectory.slot_length
    q_i = np.asarray(scenario.q_start, dtype=float)
    q_f = np.asarray(scenario.q_final, dtype=float)
    if n == 1 or leg - math.dist(q_f, q_i) / n <= 1e-6 * leg:
        return None
    cap_norm, cap_grad, kappa = surrogate_caps(state, scenario)
    nq = 2 * (n - 1)
    nv = nq + n
    direct_path = np.linspace(q_i, q_f, n + 1)[1:-1]
    q0 = 0.99 * state.trajectory.waypoints[1:-1] + 0.01 * direct_path
    chain = np.vstack([q_i, q0, q_f])

    g = np.zeros((3 * n, 4, nv))
    h = np.zeros((3 * n, 4))
    x0 = np.zeros(nv)
    for slot in range(n):
        g[slot, 0, nq + slot] = 1.0
        h[slot, 0] = 1.0
        at = chain[slot + 1]
        x0[nq + slot] = min(1.0, float(cap_norm(slot, at))) - 0.01
    g[n, 0, nv - 1] = 1.0
    h[n, 0] = cap_norm(n - 1, q_f)
    for j in range(n - 1):
        row = n + 1 + j
        cap0 = float(cap_norm(j, q0[j]))
        u_row = np.zeros(nv)                       # u = cap0 - u_row . x
        u_row[2 * j : 2 * j + 2] = -cap_grad(j, q0[j])
        u_row[nq + j] = 1.0
        g[row, 0] = u_row
        h[row, 0] = cap0
        if kappa[j] > 0.0:
            tau = min(1.0, cap0) if cap0 > 0.0 else 1.0
            x0[nq + j] = min(1.0, cap0) - min(0.01, tau)
            g[row, 3] = u_row
            h[row] = [cap0 + tau, 0.0, 0.0, cap0 - tau]
            root = 2.0 * math.sqrt(kappa[j] * tau)
            g[row, 1, 2 * j] = g[row, 2, 2 * j + 1] = -root
    for r in range(n):
        row = 2 * n + r
        h[row, 0] = leg
        h[row, 1:3] = chain[r + 1] - chain[r]
        if r < n - 1:                              # head point is free
            g[row, 1, 2 * r] = g[row, 2, 2 * r + 1] = -1.0
        if r > 0:                                  # tail point is free
            g[row, 1, 2 * r - 2] = g[row, 2, 2 * r - 1] = 1.0
    c = np.zeros(nv)
    c[nq:] = -scenario.gamma_min / n
    return c, x0, g, h


def exact_normal_solve(g, point, beta, r):
    """Solve (G^T H^2 G) x = r in exact rational arithmetic.

    G is (cones, 4, n); per cone H^2 = (2 J w w^T J - J) / beta^2 with
    J = diag(1, -1, -1, -1), built from the float scaling point ``point``
    and ``beta`` taken as exact.  Gaussian elimination over fractions,
    then rounded to floats: a reference whose own error is one rounding,
    whatever the condition number.
    """
    n = g.shape[2]
    sign = (1, -1, -1, -1)
    m = [[Fraction(0)] * n for _ in range(n)]
    for k in range(g.shape[0]):
        cols = [i for i in range(n) if g[k, :, i].any()]
        if not cols:
            continue
        jw = [Fraction(float(v)) * e for v, e in zip(point[k], sign)]
        b2 = Fraction(float(beta[k])) ** 2
        gk = {i: [Fraction(float(v)) for v in g[k, :, i]] for i in cols}
        for i in cols:
            # H^2 g_i = (2 (J w . g_i) J w - J g_i) / beta^2
            dot = sum(a * b for a, b in zip(jw, gk[i]))
            hg = [(2 * dot * a - e * b) / b2 for a, b, e in zip(jw, gk[i], sign)]
            for j in cols:
                m[j][i] += sum(a * b for a, b in zip(gk[j], hg))
    return exact_solve(m, [Fraction(float(v)) for v in r])


def exact_solve(m, x):
    """Solve m z = x for square lists of Fractions (both are overwritten)
    by Gaussian elimination, and round z to floats."""
    n = len(x)
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(m[i][col]))
        m[col], m[piv] = m[piv], m[col]
        x[col], x[piv] = x[piv], x[col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            if f:
                row_i, row_c = m[i], m[col]
                for j in range(col, n):
                    row_i[j] -= f * row_c[j]
                x[i] -= f * x[col]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - sum(m[i][j] * x[j] for j in range(i + 1, n))) / m[i][i]
    return np.array([float(v) for v in x])


def barrier_trajectory_solve(state, scenario, gap_tol=None):
    """The trajectory step's program solved by the dense log-barrier.

    The barrier assembles its Newton system densely from the blocks of
    ``dense_trajectory_program`` and solves it down to ``gap_tol``
    (default 1e-10 max(1, gamma), the tolerance the planner's barrier
    used).  Returns the solver outcome, or None where the step has
    nothing to solve or the barrier fails.
    """
    program = dense_trajectory_program(state, scenario)
    if program is None:
        return None
    if gap_tol is None:
        gap_tol = 1e-10 * max(1.0, scenario.gamma_min)
    try:
        outcome = solve_barrier(program, gap_tol=gap_tol, max_newton=1000)
    except ValueError:
        return None
    return outcome if outcome.status == STATUS_OPTIMAL else None


def barrier_trajectory_step_reference(state, scenario):
    """``sca_planner.trajectory_step`` by ``barrier_trajectory_solve``.

    Same program, start and acceptance rule, solved by the dense barrier.
    """
    if scenario.n_slots == 1:
        return _state_from_plan(
            state.trajectory, state.powers, scenario, state.trace
        ), True
    outcome = barrier_trajectory_solve(state, scenario)
    if outcome is None:
        return state, False
    wp = state.trajectory.waypoints.copy()
    wp[1:-1] = outcome.x[: 2 * (scenario.n_slots - 1)].reshape(-1, 2)
    return _accept(state, _state_from_plan(
        Trajectory(wp, state.trajectory.slot_length), state.powers, scenario,
        state.trace,
    ))


def default_mu_box(scenario):
    """Upper edge of the price box searched by the ellipsoid oracle."""
    k = scenario.n_sensors
    return 2.0 / (k * float(scenario.power_budgets.min()))


def full_grid_maximize_dual(scenario, grid):
    """The dual over the grid maximized by the ellipsoid method.

    An independent oracle for ``relaxed_optimum.maximize_dual``: the ball
    circumscribing the price box [0, ``default_mu_box``]^K, feasibility
    cuts on negative centers, objective cuts along the supergradient of
    ``dual_function``, and a stop once the volume has shrunk by
    1e-8**K; returns the best evaluated center.
    """
    k = scenario.n_sensors
    vol_tol = float(1e-8**k)
    max_iter = int(75 * k * (k + 1)) + 500
    gains = gain_at(grid.points(), scenario)
    mu_max = default_mu_box(scenario)
    center = np.full(k, mu_max / 2.0)
    radius = (mu_max / 2.0) * math.sqrt(k)
    shape = np.eye(k) * radius**2
    if k == 1:
        shrink_log = math.log(0.5)
    else:
        shrink_log = math.log(k / (k + 1.0)) + 0.5 * (k - 1) * math.log(
            k**2 / (k**2 - 1.0)
        )
    log_ratio = 0.0
    log_tol = math.log(vol_tol)
    best = None
    iterations = 0
    for iterations in range(1, max_iter + 1):
        violating = np.flatnonzero(center < 0.0)
        if violating.size:
            h = np.zeros(k)
            h[violating[0]] = -1.0
        else:
            point = dual_function(center, scenario, gains)
            if best is None or point.value > best.value:
                best = point
            h = -point.subgradient
        hph = float(h @ shape @ h)
        if not np.isfinite(hph) or hph <= 0.0:
            break
        gdir = (shape @ h) / math.sqrt(hph)
        if k == 1:
            center = center - 0.5 * gdir
            shape = shape / 4.0
        else:
            center = center - gdir / (k + 1.0)
            shape = (k**2 / (k**2 - 1.0)) * (
                shape - (2.0 / (k + 1.0)) * np.outer(gdir, gdir)
            )
            shape = 0.5 * (shape + shape.T)
        log_ratio += shrink_log
        if log_ratio < log_tol:
            break
    if best is None:
        best = dual_function(np.zeros(k), scenario, gains)
    return DualPoint(best.mu, best.value, best.subgradient, best.grid_index,
                     iterations)
