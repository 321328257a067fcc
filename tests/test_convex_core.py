"""Solver checks against hand oracles and brute-force enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from outage_planner import convex_core
from outage_planner.convex_core import (
    STATUS_MAX_ITERS,
    STATUS_OPTIMAL,
    STATUS_SINGULAR,
    STATUS_STALLED,
    STATUS_UNBOUNDED,
    BoundBlock,
    ConeProgram,
    GenericBlock,
    LinearProgram,
    NtScaling,
    SmoothConvexProgram,
    backtrack,
    bisect_max_feasible,
    minimize_prices,
    newton_step,
    solve_barrier,
    solve_lp,
    solve_price_feasibility,
    solve_socp,
    start_prices,
)
from tests.conftest import exact_solve


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


def test_lp_start_extends_an_earlier_solve():
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
        warm = solve_lp(lp, start=first)
        cold = solve_lp(lp)
        assert warm.status == cold.status == STATUS_OPTIMAL, f"trial {trial}"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        np.testing.assert_allclose(warm.duals, cold.duals, rtol=0, atol=1e-12)
        assert warm.iterations <= cold.iterations, f"trial {trial}"
        assert warm.objective <= first.objective + 1e-12
        # an optimal start over the same columns has nothing left to do
        again = solve_lp(lp, start=warm)
        assert again.iterations == 0
        assert again.objective == pytest.approx(warm.objective, abs=1e-12)


def test_lp_start_extends_a_chain_of_solves():
    # one column at a time, each solve starting from the one before, as
    # column generation does; every link matches a cold solve
    rng = np.random.default_rng(45)
    a = np.vstack([rng.uniform(0.0, 3.0, size=(4, 30)), np.ones(30)])
    b = np.append(rng.uniform(0.1, 1.0, size=4), 1.0)
    c = -rng.uniform(0.5, 1.5, size=30)
    out = None
    for n in range(1, 31):
        lp = LinearProgram(c[:n], a[:, :n], b)
        out = solve_lp(lp, start=out)
        cold = solve_lp(lp)
        assert out.status == cold.status == STATUS_OPTIMAL
        assert out.objective == pytest.approx(cold.objective, abs=1e-12)
        np.testing.assert_allclose(out.duals, cold.duals, rtol=0, atol=1e-12)


def test_lp_long_chain_matches_an_exact_solve():
    """240 solves of a master-like LP (10 resource rows and a total-time
    row), each appending the column that column generation would price at
    the last solve's duals: the powers that meet sum_k sqrt(g_k p_k) = 10
    at least cost over a pool of random gains.  The chain pivots more
    than twice per solve.  The final vertex and duals match an exact
    rational solve of the final basis within 1e-11: rounding does not
    build up along the chain."""
    rng = np.random.default_rng(46)
    m, solves = 10, 240
    b = np.append(rng.uniform(0.5, 1.0, size=m), 1.0)
    gains = rng.uniform(0.0, 1.0, size=(2000, m)) ** 4
    a = np.ones((m + 1, solves))
    out, pivots, prices = None, 0, np.ones(m)
    for n in range(1, solves + 1):
        mu = np.maximum(prices, 1e-3)
        s = gains @ (1.0 / mu)
        best = int(s.argmax())
        a[:m, n - 1] = (10.0 * np.sqrt(gains[best]) / (mu * s[best])) ** 2
        out = solve_lp(LinearProgram(-np.ones(n), a[:, :n], b), start=out)
        assert out.status == STATUS_OPTIMAL
        pivots += out.iterations
        prices = out.duals[:m]
    assert pivots > 2 * solves
    vertex = np.concatenate([out.x, b - a @ out.x])
    basis = np.flatnonzero(vertex > 1e-9)
    assert basis.size == m + 1   # a nondegenerate vertex names its basis
    columns = np.hstack([a, np.eye(m + 1)])[:, basis]
    cost = np.concatenate([-np.ones(solves), np.zeros(m + 1)])[basis]

    def exact(matrix, rhs):
        return exact_solve(
            [[Fraction(float(v)) for v in row] for row in matrix],
            [Fraction(float(v)) for v in rhs],
        )

    np.testing.assert_allclose(
        vertex[basis], exact(columns, b), rtol=0, atol=1e-11
    )
    np.testing.assert_allclose(
        out.duals, -exact(columns.T, cost), rtol=0, atol=1e-11
    )


def test_lp_rejects_starts_over_other_rows_or_columns():
    a = np.array([[1.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
    b = np.array([1.0, 2.0])
    c = np.array([-1.0, -1.0, -1.5])
    first = solve_lp(LinearProgram(c[:2], a[:, :2], b))
    assert solve_lp(LinearProgram(c, a, b), start=first).objective == (
        pytest.approx(-1.0)
    )
    with pytest.raises(ValueError, match="other rows"):
        solve_lp(LinearProgram(c, a, np.array([1.0, 3.0])), start=first)
    with pytest.raises(ValueError, match="other rows"):
        solve_lp(LinearProgram(c, a[:1], b[:1]), start=first)
    moved = a.copy()
    moved[0, 1] = 0.5
    for lp in (
        LinearProgram(c, moved, b),                     # a column changed
        LinearProgram(c * 2.0, a, b),                   # a cost changed
        LinearProgram(c[[1, 0, 2]], a[:, [1, 0, 2]], b),  # reordered
        LinearProgram(c[:1], a[:, :1], b),              # fewer columns
    ):
        with pytest.raises(ValueError, match="prefix"):
            solve_lp(lp, start=first)
    with pytest.raises(ValueError, match="solve_lp"):
        solve_lp(LinearProgram(c, a, b), start=convex_core.SolveOutcome(
            np.zeros(2), 0.0, STATUS_OPTIMAL, 0))


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


J4 = np.diag([1.0, -1.0, -1.0, -1.0])


def interior_cones(rng, count, dim):
    """Random points inside 4-dimensional cones, the last 4 - dim
    entries zero (padded smaller cones; dim 1 is a linear row)."""
    x = np.zeros((count, 4))
    x[:, 1:dim] = rng.normal(size=(count, dim - 1))
    x[:, 0] = np.sqrt((x[:, 1:] ** 2).sum(axis=1)) + rng.uniform(0.01, 2.0, count)
    return x


def squared_scaling(nt):
    """H^2 per cone from the scaling point, (2 J w w^T J - J) / beta^2,
    as (cones, 4, 4)."""
    jw = nt.point.T @ J4
    return (2.0 * jw[:, :, None] * jw[:, None, :] - J4) / nt.beta[:, None, None] ** 2


def cone_det(x):
    """x_0^2 - |x_1:|^2 of each cone of x (cones, 4)."""
    return x[:, 0] ** 2 - (x[:, 1:] ** 2).sum(axis=1)


def test_det_is_none_unless_every_cone_is_strictly_inside():
    rng = np.random.default_rng(5)
    x = interior_cones(rng, 6, 4)
    np.testing.assert_allclose(convex_core._det(x.T), cone_det(x), rtol=1e-12)
    for row, value in [
        (2, [3.0, 0.0, 4.0, 0.0]),        # on the boundary
        (3, [-1.0, 0.0, 0.0, 0.0]),
        (1, [1.0, 0.0, np.nan, 0.0]),
        (4, [np.nan, 0.0, 0.0, 0.0]),
        (5, [1.0, 0.0, 0.0, np.inf]),
        (0, [np.inf, 0.0, 0.0, 0.0]),
        (2, [1e-200, 0.0, 0.0, 0.0]),     # inside, but det underflows to 0
    ]:
        bad = x.copy()
        bad[row] = value
        assert convex_core._det(bad.T) is None, value


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_nt_scaling_identities(dim):
    rng = np.random.default_rng(dim)
    s, z = interior_cones(rng, 6, dim), interior_cones(rng, 6, dim)
    nt = NtScaling(s.T, z.T, cone_det(s), cone_det(z))
    lam = nt.lam.T

    def apply(u):
        return nt.apply(u.T).T

    h = np.stack([apply(np.tile(e, (6, 1))) for e in np.eye(4)], axis=2)
    np.testing.assert_allclose(apply(s), lam, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        np.linalg.solve(h, z[:, :, None])[:, :, 0], lam, rtol=1e-12,
        atol=1e-12,
    )
    np.testing.assert_allclose(h @ h, squared_scaling(nt), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        np.einsum("kab,kb->ka", squared_scaling(nt), s), z, rtol=1e-11,
        atol=1e-12,
    )
    assert (lam[:, dim:] == 0.0).all()         # padding stays exactly zero
    np.testing.assert_allclose(
        nt.det_lam, (lam[:, 0] ** 2 - (lam[:, 1:] ** 2).sum(axis=1)),
        rtol=1e-12,
    )


def dense_cone_program(c, g, h, x0):
    """A ConeProgram over a dense G (cones, 4, n) and h (cones, 4): slacks
    h - G x, and a factor that solves G^T H^2 G densely.  Its cone
    vectors are the (4, cones) transposes of the dense rows."""
    def factor(nt):
        m = np.einsum("kai,kab,kbj->ij", g, squared_scaling(nt), g)
        return lambda r: np.linalg.solve(m, r)

    return ConeProgram(
        np.asarray(c, dtype=float), np.asarray(x0, dtype=float),
        lambda x: (h - g @ x).T, lambda dx: (g @ dx).T,
        lambda v: np.einsum("kai,ka->i", g, v.T), factor,
    )


def test_socp_unit_disk():
    # min x1 + 2 x2 over the unit disk (1, x) in the cone: x* = -(1, 2)/sqrt 5
    g = np.zeros((1, 4, 2))
    g[0, 1, 0] = g[0, 2, 1] = -1.0
    h = np.array([[1.0, 0.0, 0.0, 0.0]])
    out = solve_socp(dense_cone_program([1.0, 2.0], g, h, [0.3, -0.2]))
    assert out.status == STATUS_OPTIMAL
    np.testing.assert_allclose(out.x, -np.array([1.0, 2.0]) / np.sqrt(5.0), atol=1e-8)
    assert out.objective == pytest.approx(-np.sqrt(5.0), rel=1e-10)
    assert np.hypot(*out.x) < 1.0              # strictly feasible iterate
    assert out.iterations <= 20


def test_socp_with_linear_rows_and_rotated_cone():
    # max x1 + x2 subject to x1 <= 0.3 (a linear row) and x2 <= 1 - x1^2,
    # the rotated cone (u + 1, 2 x1, u - 1) with u = 1 - x2: the optimum
    # is x1 = 0.3 on the row, x2 = 0.91 on the parabola
    g = np.zeros((2, 4, 2))
    h = np.zeros((2, 4))
    g[0, 0, 0], h[0, 0] = 1.0, 0.3
    g[1, 0, 1] = g[1, 3, 1] = 1.0
    g[1, 1, 0] = -2.0
    h[1] = [2.0, 0.0, 0.0, 0.0]
    out = solve_socp(dense_cone_program([-1.0, -1.0], g, h, [0.0, 0.0]))
    assert out.status == STATUS_OPTIMAL
    np.testing.assert_allclose(out.x, [0.3, 0.91], atol=1e-8)
    assert out.x[0] < 0.3 and out.x[1] < 1.0 - out.x[0] ** 2


def test_socp_rejects_infeasible_start():
    g = np.zeros((1, 4, 2))
    g[0, 1, 0] = g[0, 2, 1] = -1.0
    h = np.array([[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="strictly feasible"):
        solve_socp(dense_cone_program([1.0, 0.0], g, h, [1.0, 0.0]))


def test_socp_rejects_a_start_whose_inverse_overflows():
    """s = (1e-200, 0, 0, 0) is strictly inside, but its determinant
    underflows to 0, so s^-1 is not finite: the start is rejected as not
    inside, since the interior test is the determinant's sign."""
    g = np.zeros((1, 4, 1))
    g[0, 1, 0] = -1.0
    h = np.array([[1e-200, 0.0, 0.0, 0.0]])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="strictly feasible"):
        solve_socp(dense_cone_program([1.0], g, h, [0.0]))


def test_socp_reports_iteration_cap():
    g = np.zeros((1, 4, 2))
    g[0, 1, 0] = g[0, 2, 1] = -1.0
    h = np.array([[1.0, 0.0, 0.0, 0.0]])
    out = solve_socp(dense_cone_program([1.0, 2.0], g, h, [0.3, -0.2]), max_iters=2)
    assert out.status == STATUS_MAX_ITERS
    assert out.iterations == 2
    assert np.hypot(*out.x) < 1.0


def test_socp_looser_stop_ends_sooner():
    """A looser stop, passed as ``enough(gap, objective)``, ends the solve
    in fewer iterations, at a feasible x whose objective lies above the
    tight optimum by no more than the looser gap (min c @ x over the unit
    disk is -sqrt(5)).  The hook sees every iterate's s . z and c @ x,
    the last of them those of the x returned."""
    seen = []

    def enough(gap, objective):
        seen.append((gap, objective))
        return gap <= 1e-6 * max(1.0, abs(objective))

    tight = solve_socp(_unit_disk_program())
    loose = solve_socp(_unit_disk_program(), enough=enough)
    assert tight.status == loose.status == STATUS_OPTIMAL
    assert loose.iterations < tight.iterations
    assert len(seen) == loose.iterations + 1
    assert seen[-1][1] == loose.objective
    assert np.hypot(*loose.x) < 1.0
    assert tight.objective == pytest.approx(-math.sqrt(5.0), rel=1e-9)
    assert 0.0 <= loose.objective - tight.objective <= 1e-6 * math.sqrt(5.0)


def _unit_disk_program():
    g = np.zeros((1, 4, 2))
    g[0, 1, 0] = g[0, 2, 1] = -1.0
    h = np.array([[1.0, 0.0, 0.0, 0.0]])
    return dense_cone_program([1.0, 2.0], g, h, [0.3, -0.2])


def test_socp_reports_failed_factorization(monkeypatch):
    """A factorization that fails stops the solve as singular, counting
    only the iterations that took a step, at the last iterate."""
    program = _unit_disk_program()
    factor, calls = program.factor, []

    def failing_third(nt):
        calls.append(nt)
        return factor(nt) if len(calls) < 3 else None

    monkeypatch.setattr(program, "factor", failing_third)
    out = solve_socp(program)
    assert out.status == STATUS_SINGULAR
    assert out.iterations == 2 and len(calls) == 3
    assert np.hypot(*out.x) < 1.0
    assert out.objective == float(np.dot([1.0, 2.0], out.x))


def test_socp_reports_a_step_that_cannot_stay_inside(monkeypatch):
    """Slacks that leave the cone after the start's make each halving of
    the first step fail: the solve stops as stalled after no step, at
    the start."""
    program = _unit_disk_program()
    slacks, start, calls = program.slacks, program.x0.copy(), []

    def outside_after_start(x):
        calls.append(x)
        out = slacks(x)
        if len(calls) > 1:
            out[0] = -1.0
        return out

    monkeypatch.setattr(program, "slacks", outside_after_start)
    out = solve_socp(program)
    assert out.status == STATUS_STALLED
    assert out.iterations == 0 and len(calls) == 61
    np.testing.assert_array_equal(out.x, start)


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


def test_bordered_newton_step_keeps_the_simplex():
    # as in the price test, H is singular along the prices nu (a function
    # homogeneous of degree one), so only the bordered system solves
    rng = np.random.default_rng(3)
    for k in (2, 3, 6):
        a = rng.normal(size=(k, k))
        nu = rng.uniform(0.5, 2.0, k)
        proj = np.eye(k) - np.outer(nu, nu) / (nu @ nu)
        hess = proj @ (a @ a.T + np.eye(k)) @ proj
        grad = rng.normal(size=k)
        step = newton_step(hess, grad)
        assert abs(step.sum()) <= 1e-12 * np.abs(step).max()
        # the KKT rows: H d + grad is a multiple of the border's ones
        resid = hess @ step + grad
        np.testing.assert_allclose(resid, resid.mean(), atol=1e-10)
        assert grad @ step < 0.0


def test_newton_step_ridges_a_singular_hessian():
    hess = np.diag([2.0, 0.0, 0.0])     # positive semidefinite, LU fails
    grad = np.array([1.0, -1.0, 0.5])
    step = newton_step(hess, grad, 4.0)
    assert grad @ step < 0.0
    # the first ridge, 1e-12 times the scale, already descends
    np.testing.assert_allclose(
        (hess + 4e-12 * np.eye(3)) @ step, -grad, rtol=1e-9
    )


def test_newton_step_gives_none_when_no_try_descends():
    grad = np.array([1.0, 2.0])
    # H + r I stays negative definite for every ridge r up to 1e-4
    assert newton_step(-np.eye(2), grad, 1.0) is None
    # bordered: H is negative definite on the plane sum(d) = 0
    assert newton_step(-np.eye(2), grad) is None


def test_backtrack_halves_to_armijo_and_gives_up_after_60_halvings():
    x = np.array([1.0, -2.0])
    calls = []

    def square(v):
        calls.append(v)
        return float(v @ v)

    # the full step overshoots to -x, the same value; half of it lands at 0
    cand, value = backtrack(square, x, -2.0 * x, 5.0, -20.0)
    np.testing.assert_array_equal(cand, [0.0, 0.0])
    assert value == 0.0 and len(calls) == 2

    calls.clear()
    assert backtrack(lambda v: calls.append(v) or np.inf, x, -x, 5.0, -5.0) is None
    assert len(calls) == 60


def _log_barrier_model(c, on_simplex):
    """f(nu) = c . nu - sum log nu for ``minimize_prices``: settled once
    its gradient, projected on the simplex when ``on_simplex``, is below
    1e-12.  Returns (model, value)."""
    def value(nu):
        return float(c @ nu - np.log(nu).sum())

    def model(nu):
        grad = c - 1.0 / nu
        free = grad - grad.mean() if on_simplex else grad
        if np.abs(free).max() <= 1e-12:
            return nu, None
        return None, (value(nu), grad, np.diag(1.0 / nu**2), 1.0)

    return model, value


def test_minimize_prices_settles_or_gives_none():
    c = np.array([0.5, 2.0, 8.0])
    model, value = _log_barrier_model(c, False)
    nu = minimize_prices(model, value, np.ones(3), 50, 0.5)
    np.testing.assert_allclose(nu, 1.0 / c, rtol=1e-12)
    # the step cap
    assert minimize_prices(model, value, np.ones(3), 2, 0.5) is None
    # on the simplex the minimizer of -sum log nu is uniform
    model, value = _log_barrier_model(np.zeros(3), True)
    start = np.array([0.7, 0.2, 0.1])
    nu = minimize_prices(model, value, start, 50, 0.99, simplex=True)
    np.testing.assert_allclose(nu, 1.0 / 3.0, rtol=1e-12)

    def concave(nu):     # no Newton step descends
        return None, (0.0, np.ones(3), -np.eye(3), 1.0)

    assert minimize_prices(concave, value, start, 50, 0.5) is None


def test_start_prices_rows_are_the_price_test_start():
    rng = np.random.default_rng(5)
    h = rng.uniform(0.1, 9.0, size=(4, 3, 7))    # (M, K, m)
    nu = start_prices(h)
    np.testing.assert_allclose(nu.sum(axis=1), 1.0, rtol=1e-15)
    for row, one in zip(h, nu):
        np.testing.assert_array_equal(start_prices(row), one)
        root = np.sqrt(row.sum(axis=1))
        np.testing.assert_allclose(one, root / root.sum(), rtol=1e-15)


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
