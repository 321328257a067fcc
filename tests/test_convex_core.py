"""Solver checks against hand oracles and brute-force enumeration."""

import itertools

import numpy as np
import pytest

from outage_planner.convex_core import (
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    BoundBlock,
    GenericBlock,
    LinearProgram,
    SmoothConvexProgram,
    bisect_max_feasible,
    solve_barrier,
    solve_lp,
    solve_price_feasibility,
)


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
    # the simplex starts from x = 0, so a right-hand side that makes the
    # origin infeasible (negative or NaN) is rejected as input
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="b_ub"):
            solve_lp(
                LinearProgram(
                    np.array([1.0, 1.0]), np.eye(2), np.array([1.0, bad])
                )
            )

    free = solve_lp(
        LinearProgram(np.array([-1.0]), np.zeros((1, 1)), np.array([1.0]))
    )
    assert free.status == STATUS_UNBOUNDED


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
        b = rng.uniform(0.0, 2.0, size=m)  # the origin is feasible
        upper = np.full(n, 10.0)
        rows = np.vstack([a, np.eye(n)])
        rhs = np.concatenate([b, upper])
        out = solve_lp(LinearProgram(c, rows, rhs))
        oracle = vertex_oracle(c, a, b, np.zeros(n), upper)
        assert out.status == STATUS_OPTIMAL, f"trial {trial}"
        assert out.objective == pytest.approx(oracle, abs=1e-7), f"trial {trial}"


def test_lp_duals_certify_the_vertex_optimum():
    rng = np.random.default_rng(43)
    for trial in range(25):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 6))
        c = rng.uniform(-2.0, 2.0, size=n)
        a = rng.uniform(-1.0, 1.0, size=(m, n))
        b = rng.uniform(0.0, 2.0, size=m)
        upper = np.full(n, 10.0)
        rows = np.vstack([a, np.eye(n)])
        rhs = np.concatenate([b, upper])
        out = solve_lp(LinearProgram(c, rows, rhs))
        y = out.duals
        oracle = vertex_oracle(c, a, b, np.zeros(n), upper)
        assert out.status == STATUS_OPTIMAL, f"trial {trial}"
        assert y.shape == (m + n,) and np.all(y >= 0.0)
        # dual feasibility and strong duality against the enumerated optimum
        reduced = c + rows.T @ y
        assert np.all(reduced >= -1e-9), f"trial {trial}"
        assert -rhs @ y == pytest.approx(oracle, abs=1e-7), f"trial {trial}"
        # complementary slackness, for the rows and for the columns
        np.testing.assert_allclose(y * (rhs - rows @ out.x), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.x * reduced, 0.0, atol=1e-9)


def test_lp_warm_start_after_appending_columns():
    # master-like LPs: nonnegative resource rows and a total-time row
    rng = np.random.default_rng(44)
    for trial in range(40):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        extra = int(rng.integers(1, 4))
        a = np.vstack([rng.uniform(0.0, 3.0, size=(m, n + extra)),
                       np.ones(n + extra)])
        b = np.append(rng.uniform(0.1, 1.0, size=m), 1.0)
        c = -rng.uniform(0.5, 1.5, size=n + extra)
        first = solve_lp(LinearProgram(c[:n], a[:, :n], b))
        lp = LinearProgram(c, a, b)
        warm = solve_lp(lp, start=first.basis)
        cold = solve_lp(lp)
        assert warm.status == cold.status == STATUS_OPTIMAL, f"trial {trial}"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert warm.objective <= first.objective + 1e-12
        # the basis it returns restarts the same LP with nothing to do
        again = solve_lp(lp, start=warm.basis)
        assert again.iterations == len(warm.basis[0])
        assert again.objective == pytest.approx(warm.objective, abs=1e-12)


def test_lp_rejects_bad_start_bases():
    lp = LinearProgram(np.array([-1.0, -1.0]),
                       np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([1.0, 2.0]))
    assert solve_lp(lp, start=((0,), (0,))).objective == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="not primal feasible"):
        solve_lp(lp, start=((0,), (1,)))   # x0 = 2 overdraws row 0
    with pytest.raises(ValueError, match="singular"):
        solve_lp(LinearProgram(np.array([-1.0, -1.0]), np.array([[0.0, 1.0]]),
                               np.array([1.0])), start=((0,), (0,)))
    for start in (((0,), ()), ((2,), (0,)), ((0,), (5,))):
        with pytest.raises(ValueError, match="pair"):
            solve_lp(lp, start=start)


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


def test_price_feasibility_single_sensor_matches_closed_form():
    # with one sensor slot n needs the share x_n >= 1 / h_n, so the slots
    # fit into the budget exactly when sum_n 1 / h_n <= 1
    rng = np.random.default_rng(11)
    verdicts = set()
    for _ in range(20):
        h = rng.uniform(2.0, 12.0, size=(1, int(rng.integers(1, 8))))
        need = float((1.0 / h).sum())
        shares = solve_price_feasibility(h)
        assert (shares is not None) == (need <= 1.0)
        verdicts.add(shares is not None)
        if shares is not None:
            assert shares.sum() <= 1.0 + 1e-12
            assert (np.sqrt(h * shares) >= 1.0 - 1e-9).all()
    assert verdicts == {True, False}


def test_bisect_max_feasible_monotone():
    calls = []

    def probe(v):
        calls.append(v)
        return v <= 7

    res = bisect_max_feasible(probe, 20)
    assert res.value == 7
    assert not res.fallback_used
    assert res.probes == len(calls)
    assert res.probes <= 12  # log2(21) rounds plus the verification pass


def test_bisect_max_feasible_edges():
    assert bisect_max_feasible(lambda v: True, 9).value == 9
    assert bisect_max_feasible(lambda v: False, 9).value == 0
    assert bisect_max_feasible(lambda v: False, 0).value == 0
    with pytest.raises(ValueError):
        bisect_max_feasible(lambda v: True, -1)


def test_bisect_max_feasible_nonmonotone_stays_locally_maximal():
    # a hole at 5 breaks monotonicity; the result must still be a feasible
    # value whose successor is infeasible (a maximal point, not the maximum)
    def probe(v):
        return v != 5 and v <= 6

    res = bisect_max_feasible(probe, 10)
    assert probe(res.value)
    assert res.value == 10 or not probe(res.value + 1)
