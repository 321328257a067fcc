"""Solver checks against hand oracles and brute-force enumeration."""

import itertools

import numpy as np
import pytest

from outage_planner import power_recovery, sca_planner
from outage_planner.channel import gain_at
from outage_planner.convex_core import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    BoundBlock,
    GenericBlock,
    LinearProgram,
    SmoothConvexProgram,
    _dense_newton,
    bisect_max_feasible,
    solve_barrier,
    solve_bordered,
    solve_lp,
)
from outage_planner.scenario import load_scenario
from tests.conftest import DEMO_SCENARIO, captured_barrier


def vertex_oracle(c, a_ub, b_ub, lower, upper):
    """Exhaustive vertex enumeration for a box-bounded LP.

    Stacks inequality rows with both box sides, solves every square
    subsystem, keeps feasible points, and returns the best value (or None
    when the polytope is empty).
    """
    n = len(c)
    rows = np.vstack([a_ub, -np.eye(n), np.eye(n)])
    rhs = np.concatenate([b_ub, -np.asarray(lower), np.asarray(upper)])
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        sq = rows[list(subset)]
        if abs(np.linalg.det(sq)) < 1e-12:
            continue
        x = np.linalg.solve(sq, rhs[list(subset)])
        if np.all(rows @ x <= rhs + 1e-9):
            val = float(c @ x)
            if best is None or val < best:
                best = val
    return best


def test_lp_hand_cases():
    # max x (as min -x) subject to x <= 5
    out = solve_lp(LinearProgram(np.array([-1.0]), np.array([[1.0]]), np.array([5.0])))
    assert out.status == STATUS_OPTIMAL
    assert out.x[0] == pytest.approx(5.0, abs=1e-9)

    # two variables, one shared resource
    out = solve_lp(
        LinearProgram(
            np.array([-3.0, -2.0]),
            np.array([[1.0, 1.0], [1.0, 0.0]]),
            np.array([4.0, 2.0]),
        )
    )
    assert out.status == STATUS_OPTIMAL
    assert out.objective == pytest.approx(-10.0, abs=1e-9)
    np.testing.assert_allclose(out.x, [2.0, 2.0], atol=1e-9)


def test_lp_infeasible_and_unbounded():
    bad = solve_lp(
        LinearProgram(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))
    )
    assert bad.status == STATUS_INFEASIBLE

    free = solve_lp(
        LinearProgram(np.array([-1.0]), np.zeros((1, 1)), np.array([1.0]))
    )
    assert free.status == STATUS_UNBOUNDED


def test_lp_equality_via_paired_rows():
    # x1 + x2 == 3 expressed as <= and >=, minimize x1
    a = np.array([[1.0, 1.0], [-1.0, -1.0]])
    b = np.array([3.0, -3.0])
    out = solve_lp(LinearProgram(np.array([1.0, 0.0]), a, b))
    assert out.status == STATUS_OPTIMAL
    assert out.x[0] == pytest.approx(0.0, abs=1e-9)
    assert out.x.sum() == pytest.approx(3.0, abs=1e-9)


def test_lp_cycling_prone_instance_terminates():
    # a classic degenerate tableau that cycles under naive pivoting
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    a = np.array(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([0.0, 0.0, 1.0])
    out = solve_lp(LinearProgram(c, a, b))
    assert out.status == STATUS_OPTIMAL
    oracle = vertex_oracle(c, a, b, np.zeros(4), np.full(4, 1e3))
    assert out.objective == pytest.approx(oracle, abs=1e-9)


def test_lp_random_against_vertex_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 6))
        c = rng.uniform(-2.0, 2.0, size=n)
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(-0.5, 2.0, size=m)
        upper = np.full(n, 10.0)
        rows = np.vstack([a, np.eye(n)])
        rhs = np.concatenate([b, upper])
        out = solve_lp(LinearProgram(c, rows, rhs))
        oracle = vertex_oracle(c, a, b, np.zeros(n), upper)
        if oracle is None:
            assert out.status == STATUS_INFEASIBLE, f"trial {trial}"
        else:
            assert out.status == STATUS_OPTIMAL, f"trial {trial}"
            assert out.objective == pytest.approx(oracle, abs=1e-7), f"trial {trial}"


def test_barrier_clipped_quadratic():
    # min (x - 3)^2 subject to x <= 1: optimum sits on the constraint
    prog = SmoothConvexProgram(
        objective=lambda x: float((x[0] - 3.0) ** 2),
        gradient=lambda x: np.array([2.0 * (x[0] - 3.0)]),
        x0=np.array([0.0]),
        blocks=[BoundBlock([0], +1.0, 1.0)],
        hessian=lambda x: np.array([[2.0]]),
    )
    out = solve_barrier(prog, gap_tol=1e-11)
    assert out.status == STATUS_OPTIMAL
    assert out.x[0] == pytest.approx(1.0, abs=1e-6)
    assert out.x[0] < 1.0  # strictly feasible iterates


def test_barrier_separable_quadratic_matches_kkt():
    rng = np.random.default_rng(5)
    for _ in range(5):
        mu = rng.uniform(0.5, 3.0, size=3)
        target = rng.uniform(-1.0, 2.0, size=3)
        prog = SmoothConvexProgram(
            objective=lambda x, mu=mu, t=target: float(mu @ (x - t) ** 2),
            gradient=lambda x, mu=mu, t=target: 2.0 * mu * (x - t),
            x0=np.full(3, 5.0),
            blocks=[BoundBlock(np.arange(3), -1.0, 0.0)],
            hessian=lambda x, mu=mu: np.diag(2.0 * mu),
        )
        out = solve_barrier(prog, gap_tol=1e-12)
        assert out.status == STATUS_OPTIMAL
        np.testing.assert_allclose(
            out.x, np.maximum(target, 0.0), atol=2e-5
        )


def test_barrier_amplitude_constraint_matches_closed_form():
    # min sum mu_k rho_k^2 with sum c_k rho_k >= b has the stationary
    # solution rho_k = b c_k / (mu_k * sum_j c_j^2 / mu_j)
    rng = np.random.default_rng(9)
    mu = rng.uniform(0.2, 4.0, size=4)
    cvec = rng.uniform(0.5, 2.0, size=4)
    b = 3.0
    s_val = float((cvec**2 / mu).sum())
    rho_star = b * cvec / (mu * s_val)

    prog = SmoothConvexProgram(
        objective=lambda x: float(mu @ x**2),
        gradient=lambda x: 2.0 * mu * x,
        x0=np.full(4, 2.0 * b / cvec.min()),
        blocks=[
            GenericBlock(
                value=lambda x: np.array([b - cvec @ x]),
                jacobian=lambda x: -cvec[None, :],
            ),
            BoundBlock(np.arange(4), -1.0, 0.0),
        ],
        hessian=lambda x: np.diag(2.0 * mu),
    )
    out = solve_barrier(prog, gap_tol=1e-12, max_newton=400)
    assert out.status == STATUS_OPTIMAL
    np.testing.assert_allclose(out.x, rho_star, rtol=1e-6)


def test_barrier_rejects_infeasible_start():
    prog = SmoothConvexProgram(
        objective=lambda x: float(x[0] ** 2),
        gradient=lambda x: 2.0 * x,
        x0=np.array([2.0]),
        blocks=[BoundBlock([0], +1.0, 1.0)],
    )
    with pytest.raises(ValueError):
        solve_barrier(prog)


def test_barrier_reports_budget_exhaustion():
    prog = SmoothConvexProgram(
        objective=lambda x: float((x[0] - 3.0) ** 2),
        gradient=lambda x: np.array([2.0 * (x[0] - 3.0)]),
        x0=np.array([0.0]),
        blocks=[BoundBlock([0], +1.0, 1.0)],
        hessian=lambda x: np.array([[2.0]]),
    )
    out = solve_barrier(prog, gap_tol=1e-11, max_newton=2)
    assert out.status != STATUS_OPTIMAL


@pytest.mark.parametrize("ridge", [0.0, 0.3])
def test_solve_bordered_matches_dense_solve(ridge):
    rng = np.random.default_rng(17)
    nb, s, r = 6, 4, 3
    a = rng.normal(size=(nb, s, s))
    blocks = a @ a.transpose(0, 2, 1) + (0.5 + ridge) * np.eye(s)
    border = rng.normal(size=(nb, s, r))
    corner = np.zeros((r, r))
    corner[0, 0] = 40.0 + ridge                         # a primal unknown
    corner[1:, 1:] = -np.diag(rng.uniform(0.1, 1.0, size=r - 1))  # -g^2
    rhs = rng.normal(size=(nb, s))
    rhs_border = rng.normal(size=r)

    dense = np.zeros((nb * s + r, nb * s + r))
    for i in range(nb):
        dense[i * s : (i + 1) * s, i * s : (i + 1) * s] = blocks[i]
    dense[: nb * s, nb * s :] = border.reshape(-1, r)
    dense[nb * s :, : nb * s] = border.reshape(-1, r).T
    dense[nb * s :, nb * s :] = corner
    want = np.linalg.solve(dense, np.concatenate([rhs.ravel(), rhs_border]))

    x, y = solve_bordered(blocks, border, corner, rhs, rhs_border)
    assert x.shape == (nb, s) and y.shape == (r,)
    np.testing.assert_allclose(
        np.concatenate([x.ravel(), y]), want, rtol=1e-10, atol=1e-12
    )


def _power_step_dense_blocks(program, state, scn):
    """Dense Jacobians of the power step's constraints, derived by hand."""
    n, k = scn.n_slots, scn.n_sensors
    nv = k * n + n
    idx_a = k * n + np.arange(n)
    cap = scn.gamma_min * scn.noise_power
    gains = gain_at(state.trajectory.slot_positions, scn)
    e = np.sqrt(gains * scn.power_budgets[None, :]).T          # (K, N)
    beta = 2.0 * state.amplitudes.sum(axis=0) / cap             # (N,)
    cols = np.arange(k)[:, None] * n + np.arange(n)[None, :]
    rows = np.broadcast_to(np.arange(n), (k, n))

    def surrogate_jacobian(z):
        p = z[: k * n].reshape(k, n)
        jac = np.zeros((n, nv))
        jac[rows, cols] = -(beta * e) / (2.0 * np.sqrt(p))
        jac[np.arange(n), idx_a] = 1.0
        return jac

    def surrogate_hessian(z, w):
        p = z[: k * n].reshape(k, n)
        return np.diag(np.concatenate([(w * beta * e / (4.0 * p**1.5)).ravel(),
                                       np.zeros(n)]))

    budget_jac = np.zeros((k, nv))
    budget_jac[np.arange(k)[:, None], cols] = 1.0 / n
    return [
        BoundBlock(idx_a, +1.0, 1.0),
        GenericBlock(program.blocks[1].value, surrogate_jacobian, surrogate_hessian),
        BoundBlock(np.arange(k * n), -1.0, 0.0),
        GenericBlock(program.blocks[3].value, lambda z: budget_jac),
    ]


def _probe_dense_blocks(program, scn, trajectory, slots):
    """Dense Jacobians of the feasibility probe's constraints, by hand."""
    n, k, m = scn.n_slots, scn.n_sensors, len(slots)
    nv = k * m + 1
    b = power_recovery._solver_threshold(scn)
    gains = gain_at(trajectory.slot_positions[slots], scn)
    e = np.sqrt(gains * (scn.power_budgets * n / m)[None, :]).T / b  # (K, m)
    cols = np.arange(k)[:, None] * m + np.arange(m)[None, :]
    rows = np.broadcast_to(np.arange(m), (k, m))

    def thresh_jacobian(z):
        p = z[: k * m].reshape(k, m)
        jac = np.zeros((m, nv))
        jac[rows, cols] = -e / (2.0 * np.sqrt(p))
        jac[:, -1] = -1.0
        return jac

    def thresh_hessian(z, w):
        p = z[: k * m].reshape(k, m)
        return np.diag(np.append((w * e / (4.0 * p**1.5)).ravel(), 0.0))

    budget_jac = np.zeros((k, nv))
    budget_jac[np.arange(k)[:, None], cols] = 1.0 / m
    return [
        GenericBlock(program.blocks[0].value, thresh_jacobian, thresh_hessian),
        GenericBlock(program.blocks[1].value, lambda z: budget_jac),
        BoundBlock(np.arange(k * m), -1.0, 0.0),
    ]


def _assert_newton_matches_dense(program, dense_blocks, outcome):
    dense = SmoothConvexProgram(
        program.objective, program.gradient, program.x0, dense_blocks
    )
    # x0 and a point halfway to the optimum: both strictly feasible
    for z in (program.x0, 0.5 * (program.x0 + outcome.x)):
        for t in (1.0, 1e4):
            grad, trace, solve = program.newton(z, t)
            grad_d, trace_d, solve_d = _dense_newton(dense, z, t)
            assert np.linalg.norm(grad - grad_d) <= 1e-12 * np.linalg.norm(grad_d)
            assert trace == pytest.approx(trace_d, rel=1e-12)
            for ridge in (0.0, 1e-3 * trace_d / z.size):
                step = solve(-grad_d, ridge)
                step_d = solve_d(-grad_d, ridge)
                assert np.linalg.norm(step - step_d) <= 1e-9 * np.linalg.norm(step_d)


def test_power_step_newton_matches_dense_assembly(monkeypatch):
    scn = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=12)
    rng = np.random.default_rng(3)
    powers = scn.power_budgets[:, None] * rng.uniform(
        0.3, 1.0, size=(scn.n_sensors, scn.n_slots)
    )
    state = sca_planner._state_from_plan(
        sca_planner.direct_flight(scn), powers, scn
    )
    program, outcome = captured_barrier(
        monkeypatch, sca_planner, lambda: sca_planner.power_step(state, scn)
    )
    assert outcome.status == STATUS_OPTIMAL
    _assert_newton_matches_dense(
        program, _power_step_dense_blocks(program, state, scn), outcome
    )


@pytest.mark.parametrize("budget_norm", power_recovery.BUDGET_NORMS)
def test_feasibility_probe_newton_matches_dense_assembly(monkeypatch, budget_norm):
    scn = load_scenario(DEMO_SCENARIO).with_overrides(n_slots=12)
    trajectory = sca_planner.direct_flight(scn)
    slots = np.array([0, 2, 3, 5, 8, 11])
    program, outcome = captured_barrier(
        monkeypatch,
        power_recovery,
        lambda: power_recovery.feasibility_for_subset(
            scn, trajectory, slots, budget_norm
        ),
    )
    assert outcome.status == STATUS_OPTIMAL
    _assert_newton_matches_dense(
        program, _probe_dense_blocks(program, scn, trajectory, slots), outcome
    )


def test_bisect_max_feasible_monotone():
    calls = []

    def probe(v):
        calls.append(v)
        return v <= 7

    res = bisect_max_feasible(probe, 0, 20)
    assert res.value == 7
    assert not res.fallback_used
    assert res.probes == len(calls)
    assert res.probes <= 12  # log2(21) rounds plus the verification pass


def test_bisect_max_feasible_edges():
    assert bisect_max_feasible(lambda v: True, 0, 9).value == 9
    assert bisect_max_feasible(lambda v: False, 0, 9).value == 0
    with pytest.raises(ValueError):
        bisect_max_feasible(lambda v: True, 3, 2)


def test_bisect_max_feasible_nonmonotone_stays_locally_maximal():
    # a hole at 5 breaks monotonicity; the result must still be a feasible
    # value whose successor is infeasible (a maximal point, not the maximum)
    def probe(v):
        return v != 5 and v <= 6

    res = bisect_max_feasible(probe, 0, 10)
    assert probe(res.value)
    assert res.value == 10 or not probe(res.value + 1)


def test_bisect_max_feasible_fallback_on_infeasible_lo():
    res = bisect_max_feasible(lambda v: False, 3, 10)
    assert res.fallback_used
    assert res.value == 0
