"""Deterministic convex solvers used by the planning modules.

Five primitives, all dependency-free and reproducible run to run:

* ``solve_lp``: one-phase tableau simplex with Bland's pivoting rule
  (anti-cycling, deterministic) for small linear programs in x >= 0 whose
  inequality rows have a nonnegative right-hand side, so the slack basis
  is a feasible start.  It returns the row duals, and can go on from the
  final tableau of an earlier solve of the same rows with columns
  appended: the relaxation's column generation re-optimizes its master
  LP that way after each new column.
* ``solve_socp``: feasible-start primal-dual interior-point method for
  second-order cone programs, with Nesterov-Todd scaling and Mehrotra's
  predictor-corrector.  The program supplies G as products and its own
  factorization of the scaled normal system, as the SCA trajectory step
  does with its block-tridiagonal structure.
* ``solve_barrier``: log-barrier interior-point method for smooth convex
  programs.  Constraints are supplied in vectorized blocks, and the
  Newton system is assembled densely from their Jacobians and Hessians.
  No planner stage calls it any more: the tests' dense references do.
* ``solve_price_feasibility``: decides whether per-slot amplitude targets
  fit into per-sensor budgets, by Newton's method on the K budget prices
  of the concave dual (the paper's closed-form per-slot powers).
* ``bisect_max_feasible``: largest-feasible-integer search for monotone
  predicates, with a verification pass and a linear-scan fallback when the
  monotonicity assumption fails.

The smooth programs share one Newton step, ``newton_step`` (H d = -grad,
bordered by sum(d) = 0 on the price simplex, ridge-guarded otherwise),
and one Armijo search, ``backtrack``.  The two programs over the K budget
prices, the price test and the dual of the SCA power step, share one
damped-Newton loop, ``minimize_prices``; each supplies only its value,
gradient, Hessian and stop test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

STATUS_OPTIMAL = "optimal"
STATUS_UNBOUNDED = "unbounded"
STATUS_MAX_ITERS = "max-iters"
STATUS_SINGULAR = "singular"      # a cone solve's normal system failed to factor
STATUS_STALLED = "stalled"        # a cone step could not stay inside the cones


@dataclass
class SolveOutcome:
    """Result of a solver call: primal point, objective, status, effort."""

    x: np.ndarray
    objective: float
    status: str
    iterations: int
    # LP only: row prices
    duals: np.ndarray | None = None
    # LP only: the program's (c, a_ub, b_ub), final tableau and basis, for
    # a later solve that appends columns (``solve_lp``'s ``start``)
    _tableau: tuple | None = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Linear programming: one-phase simplex, Bland's rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProgram:
    """minimize c @ x  subject to  a_ub @ x <= b_ub,  x >= 0,  b_ub >= 0."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray


_PIVOT_TOL = 1e-10
_COST_TOL = 1e-10
_MAX_PIVOTS = 100_000   # per solve


def solve_lp(
    lp: LinearProgram, start: SolveOutcome | None = None
) -> SolveOutcome:
    """Solve a small LP exactly (to numerical tolerance) with the simplex.

    ``b_ub`` must be nonnegative, so x = 0 is feasible and the simplex
    starts from the slack basis; a negative or NaN entry raises
    ValueError.  ``start`` may instead be the outcome of an earlier solve
    of the same rows (equal ``b_ub``) whose columns, ``c`` and ``a_ub``
    alike, are a prefix of ``lp``'s; any other start raises ValueError.
    The simplex then goes on from that solve's final tableau, which stays
    primal feasible: each appended column enters it already reduced
    (see ``_appended``).  In exact arithmetic this is the pivot path of a
    solve that first pivots the start's basis in.  Every solve ends with
    one step of iterative refinement of its basic values (``_refine``),
    so rounding does not build up along a chain of starts.

    Status is one of optimal / unbounded / max-iters; ``iterations``
    counts the pivots of this solve.  On success the solution is an
    optimal basic (vertex) point, and ``duals`` are the row prices y >= 0
    (the reduced costs of the slack columns): c + a_ub.T @ y >= 0 and
    c @ x == -b_ub @ y, both to the pivoting tolerances.  Bland's rule
    (structural columns before slacks, each in index order) makes the
    pivot sequence deterministic and cycling-free.
    """
    # copies: the outcome keeps them to check a later solve's start
    c = np.array(lp.c, dtype=float)
    a = np.array(lp.a_ub, dtype=float, ndmin=2)
    b = np.array(lp.b_ub, dtype=float)
    n = c.size
    m = b.size
    if a.shape != (m, n):
        raise ValueError(f"a_ub must have shape {(m, n)}, got {a.shape}")
    if not (b >= 0.0).all():
        raise ValueError("b_ub must be nonnegative, so that x = 0 is feasible")

    # columns: structural, then slacks, then the right-hand side; the
    # last row holds the reduced costs
    if start is None:
        tableau = np.zeros((m + 1, n + m + 1))
        tableau[:m, :n] = a
        tableau[:m, n : n + m] = np.eye(m)
        tableau[:m, -1] = b
        tableau[-1, :n] = c
        basis = list(range(n, n + m))
    else:
        tableau, basis = _appended(start, c, a, b)
    reduced, rhs = tableau[-1, :-1], tableau[:m, -1]
    pivots = 0

    status = STATUS_MAX_ITERS
    while pivots < _MAX_PIVOTS:
        # Bland: the first column with a negative reduced cost enters
        entering = int((reduced < -_COST_TOL).argmax())
        if not reduced[entering] < -_COST_TOL:
            status = STATUS_OPTIMAL
            break
        col = tableau[:m, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            status = STATUS_UNBOUNDED
            break
        ratios = rhs[rows] / col[rows]
        best = ratios.min()
        # Bland tie-break: smallest basic-variable index among minimal ratios
        tied = rows[ratios <= best + 1e-12 * max(1.0, abs(best))]
        row = int(min(tied, key=basis.__getitem__))
        tableau[row] /= tableau[row, entering]
        factor = tableau[:, entering].copy()
        factor[row] = 0.0
        tableau -= np.outer(factor, tableau[row])
        basis[row] = entering
        pivots += 1

    point = _refine(tableau, basis, a, b)
    x = point[:n]
    duals = np.maximum(reduced[n:], 0.0)
    objective = float("-inf") if status == STATUS_UNBOUNDED else float(c @ x)
    return SolveOutcome(
        x, objective, status, pivots, duals, ((c, a, b), tableau, basis)
    )


def _refine(tableau, basis, a, b):
    """Refine the tableau's basic values in place; return the vertex.

    The slack block of the tableau holds B^-1 (its rows in basis order)
    and the right-hand side the basic values x_B = B^-1 b.  Pivoting
    leaves rounding in x_B, and a tableau carried on through later solves
    builds it up (to 1e-9 relative in the relaxation's shares after some
    230 master solves), so x_B takes one step of iterative refinement
    against the original rows: x_B += B^-1 (b - B x_B).  The prices in
    the last row stayed within 1e-12 of an exact solve there without it.
    Returns the vertex: structural values, then slack values.
    """
    m, n = a.shape
    point = np.zeros(n + m)
    point[basis] = tableau[:m, -1]
    point[basis] += tableau[:m, n:-1] @ (b - a @ point[:n] - point[n:])
    np.maximum(point, 0.0, out=point)
    tableau[:m, -1] = point[basis]
    return point


def _appended(start: SolveOutcome, c, a, b):
    """The final tableau and basis of ``start`` with lp's new columns.

    A new column enters with body B^-1 a, from the slack block, and
    reduced cost c + y @ a at the slack prices y.
    """
    if start._tableau is None:
        raise ValueError("start must be an outcome of solve_lp")
    (c0, a0, b0), old, old_basis = start._tableau
    m, n0 = a0.shape
    n = c.size
    if b0.shape != b.shape or not (b0 == b).all():
        raise ValueError("start solves other rows")
    if n0 > n or not ((a0 == a[:, :n0]).all() and (c0 == c[:n0]).all()):
        raise ValueError("start's columns are not a prefix of the program's")
    tableau = np.empty((m + 1, n + m + 1))
    tableau[:, :n0] = old[:, :n0]
    tableau[:, n:] = old[:, n0:]
    tableau[:m, n0:n] = old[:m, n0:-1] @ a[:, n0:]
    tableau[-1, n0:n] = c[n0:] + old[-1, n0:-1] @ a[:, n0:]
    return tableau, [j if j < n0 else j + n - n0 for j in old_basis]


# ---------------------------------------------------------------------------
# Smooth convex programs: one Newton step, one line search
# ---------------------------------------------------------------------------

_ARMIJO_C = 0.01         # slope fraction of the backtracking search


def newton_step(hess, grad, ridge_scale=None):
    """A descent direction d (grad @ d < 0) from H d = -grad, or None.

    With ``ridge_scale`` None the step is bordered: d also keeps
    sum(d) = 0, from the KKT system [[H, 1], [1^T, 0]] (d, y) = (-grad, 0)
    that steps on the price simplex need, and a singular or non-descending
    solve gives None.  Otherwise a failed or non-descending solve is
    retried on H + r I, r starting at 1e-12 ``ridge_scale`` and growing
    100-fold, five times at most; None when no try descends.
    """
    k = grad.size
    if ridge_scale is None:
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = hess
        kkt[k, k] = 0.0
        try:
            step = np.linalg.solve(kkt, np.append(-grad, 0.0))[:k]
        except np.linalg.LinAlgError:
            return None
        return step if grad @ step < 0.0 else None
    ridge = 0.0
    for _ in range(6):
        try:
            step = np.linalg.solve(hess + ridge * np.eye(k) if ridge else hess, -grad)
            if grad @ step < 0.0:
                return step
        except np.linalg.LinAlgError:
            pass
        ridge = ridge_scale * 1e-12 if ridge == 0.0 else ridge * 100.0
    return None


def backtrack(fun, x, step, ceiling, slope, alpha=1.0):
    """Armijo backtracking search: (x + a step, fun there), or None.

    a runs through ``alpha``, alpha / 2, ... until fun(x + a step) <=
    ``ceiling`` + ``_ARMIJO_C`` a ``slope``, 60 halvings at most.
    ``ceiling`` is fun(x), or a little above it to accept a rise within
    round-off; ``slope`` < 0 is the derivative of fun along ``step``.
    """
    for _ in range(60):
        cand = x + alpha * step
        value = fun(cand)
        if value <= ceiling + _ARMIJO_C * alpha * slope:
            return cand, value
        alpha *= 0.5
    return None


# ---------------------------------------------------------------------------
# Smooth convex programs: log-barrier Newton method
# ---------------------------------------------------------------------------

class GenericBlock:
    """A family of smooth convex constraints g(x) <= 0 with dense callables.

    ``value`` maps x to the (m_i,) constraint values, ``jacobian`` to the
    (m_i, n) Jacobian.  ``hessian_comb(x, w)`` must return
    sum_j w_j * hess(g_j)(x) as an (n, n) array, or None when every
    constraint in the block is affine.
    """

    def __init__(self, value, jacobian, hessian_comb=None):
        self._value = value
        self._jacobian = jacobian
        self._hessian_comb = hessian_comb

    def value(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_1d(np.asarray(self._value(x), dtype=float))

    def add_newton_terms(self, x, g, grad_out, hess_out):
        jac = np.atleast_2d(np.asarray(self._jacobian(x), dtype=float))
        coeff = -1.0 / g
        grad_out += jac.T @ coeff
        hess_out += (jac * (1.0 / g**2)[:, None]).T @ jac
        if self._hessian_comb is not None:
            extra = self._hessian_comb(x, coeff)
            if extra is not None:
                hess_out += extra


class BoundBlock:
    """Vectorized simple bounds sign * x[idx] - bound <= 0 (sign is +-1)."""

    def __init__(self, indices, sign, bounds):
        self.indices = np.asarray(indices, dtype=int)
        self.sign = float(sign)
        self.bounds = np.broadcast_to(
            np.asarray(bounds, dtype=float), self.indices.shape
        )

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.sign * x[self.indices] - self.bounds

    def add_newton_terms(self, x, g, grad_out, hess_out):
        np.add.at(grad_out, self.indices, self.sign * (-1.0 / g))
        diag = hess_out.ravel()[:: hess_out.shape[0] + 1]
        np.add.at(diag, self.indices, 1.0 / g**2)


@dataclass
class SmoothConvexProgram:
    """minimize f(x) subject to block constraints g(x) <= 0.

    ``objective`` and ``gradient`` are required; ``hessian`` may be None for
    affine objectives.  ``x0`` must be strictly feasible for every block.
    """

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    blocks: list = field(default_factory=list)
    hessian: Callable[[np.ndarray], np.ndarray] | None = None


def _barrier_value(program, t, x):
    """t * f(x) - sum log(-g).  Returns +inf when x is not strictly feasible."""
    total = t * program.objective(x)
    for block in program.blocks:
        g = block.value(x)
        if (g >= 0.0).any() or not np.isfinite(g).all():
            return float("inf")
        total -= np.log(-g).sum()
    return float(total)


def _dense_newton(program, x, t):
    """Gradient and Hessian of the barrier t f(x) - sum log(-g(x)),
    assembled densely from the blocks."""
    n = x.size
    grad = t * np.asarray(program.gradient(x), dtype=float)
    hess = np.zeros((n, n))
    if program.hessian is not None:
        hess += t * np.asarray(program.hessian(x), dtype=float)
    for block in program.blocks:
        block.add_newton_terms(x, block.value(x), grad, hess)
    return grad, hess


# log-barrier schedule
_T0 = 1.0                # first barrier parameter
_MU = 10.0               # growth of the barrier parameter per stage
_NEWTON_TOL = 1e-10      # centering stops once lambda^2 / 2 is below this
_MAX_STAGE_NEWTON = 60   # Newton steps per centering stage


def solve_barrier(
    program: SmoothConvexProgram,
    gap_tol: float = 1e-9,
    max_newton: int = 200,
) -> SolveOutcome:
    """Minimize a smooth convex program with the log-barrier method.

    The barrier parameter starts at ``_T0`` and is multiplied by ``_MU``
    after each centering stage; each stage runs damped Newton steps
    (``newton_step`` with a ridge) searched by ``backtrack`` until the
    Newton decrement satisfies lambda^2 / 2 <= ``_NEWTON_TOL``, the
    decrement falls below the float resolution of the barrier value, or the
    stage budget ``_MAX_STAGE_NEWTON`` runs out; ``max_newton`` caps the
    steps of all stages together.  The loop exits once the duality-gap
    estimate m / t drops below ``gap_tol``.  Iterates stay strictly feasible
    throughout, so constraint satisfaction of the returned point is exact.
    Raises ValueError if ``x0`` is not strictly feasible.
    """
    x = np.array(program.x0, dtype=float)
    n = x.size
    m = 0
    for block in program.blocks:
        g = block.value(x)
        m += g.size
        if not np.all(g < 0.0):  # NaN is infeasible, as in the line search
            raise ValueError("no strictly feasible start found")

    t = _T0
    newton_used = 0
    status = STATUS_OPTIMAL

    while True:
        # centering stage at barrier parameter t
        stage_used = 0
        phi_x = None  # barrier value at x for this t, once the search knows it
        while stage_used < _MAX_STAGE_NEWTON:
            if newton_used >= max_newton:
                status = STATUS_MAX_ITERS
                break
            grad, hess = _dense_newton(program, x, t)
            step = newton_step(hess, grad, float(np.trace(hess)) / n + 1.0)
            if step is None:
                break  # numerically stuck; let the outer loop decide

            decrement = -float(grad @ step)
            if 0.5 * decrement <= _NEWTON_TOL:
                break
            phi0 = _barrier_value(program, t, x) if phi_x is None else phi_x
            if 0.5 * decrement <= 1e-12 * abs(phi0):
                break  # below the float resolution of the barrier value

            found = backtrack(
                lambda v: _barrier_value(program, t, v), x, step, phi0,
                -decrement,
            )
            newton_used += 1
            stage_used += 1
            if found is None:
                # float-noise floor for this stage; the iterate is already
                # centered enough for the next t to take over
                break
            x, phi_x = found

        if status == STATUS_MAX_ITERS or m / t <= gap_tol:
            break
        t *= _MU

    return SolveOutcome(x, float(program.objective(x)), status, newton_used)


# ---------------------------------------------------------------------------
# Second-order cone programs: primal-dual method with NT scaling
# ---------------------------------------------------------------------------

@dataclass
class ConeProgram:
    """minimize c @ x  subject to  G x + s = h,  s in K.

    K is a product of second-order cones {s : s_0 >= |s_1:|} of one
    dimension p, and a cone vector is a (p, cones) array: row i holds the
    i-th component of every cone.  A smaller cone or a linear row
    (s_0 >= 0) is padded with zero rows of G and h; its padded entries of
    s and z then stay exactly zero, so it acts as the smaller cone.
    ``slacks(x)`` returns h - G x, ``g_mul(dx)`` returns G dx and
    ``g_tmul(v)`` returns G^T v.  ``factor(nt)`` receives the
    ``NtScaling`` H of the current iterate and returns ``solve(r)``, the
    solution of (G^T H^2 G) dx = r, or None when that system is not
    positive definite to working precision.  ``x0`` must be strictly
    feasible.
    """

    c: np.ndarray
    x0: np.ndarray
    slacks: Callable
    g_mul: Callable
    g_tmul: Callable
    factor: Callable


def _rows(a, b):
    """The dot product of each cone of a with the same cone of b."""
    return np.einsum("i...,i...->...", a, b)


def _det(x):
    """x_0^2 - |x_1:|^2 of each cone, as a product of two sums."""
    norm = np.sqrt(_rows(x[1:], x[1:]))
    return (x[0] - norm) * (x[0] + norm)


def _interior(x):
    """Whether every cone holds x strictly inside, all entries finite."""
    inside = x[0] - np.sqrt(_rows(x[1:], x[1:]))
    return bool(inside.min() > 0.0 and x[0].max() < np.inf)


def _jordan(u, v):
    """The cone product u o v = (u . v, u_0 v_1: + v_0 u_1:), per cone."""
    out = u[0] * v + v[0] * u
    out[0] = _rows(u, v)
    return out


def _jordan_solve(lam, det, r):
    """v with lam o v = r, per cone (lam interior, det = det(lam))."""
    out = np.empty_like(r)
    out[0] = (lam[0] * r[0] - _rows(lam[1:], r[1:])) / det
    out[1:] = (r[1:] - out[0] * lam[1:]) / lam[0]
    return out


def _step_limit(lam, det_lam):
    """``room(d)``: the largest a with lam + a d_i in the cones for each
    direction d_i of d (directions, dim, cones), or inf when no cone
    limits a.

    x = lam / sqrt(det lam) is mapped to the identity e by a hyperbolic
    rotation L, and lam + a d stays inside while 1 + a min_eig(L d) > 0,
    where min_eig(L d) = rho_0 - |rho_1:| with rho = L d / sqrt(det lam)
    (Vandenberghe 2010, sec. 8):

        rho_0 = x_0 d_0 - x_1: . d_1:,
        rho_1: = d_1: - (rho_0 + d_0) x_1: / (x_0 + 1),

    both taken of d before the division by sqrt(det lam), which then
    applies to the eigenvalues only.  The parts of x are formed once,
    for every direction of the iteration.
    """
    root = np.sqrt(det_lam)
    jx = lam / root                            # x, then J x
    tilt = jx[1:] / (jx[0] + 1.0)              # x_1: / (x_0 + 1)
    jx[1:] *= -1.0

    def room(d):
        rho0 = np.einsum("ak,iak->ik", jx, d)
        rho1 = d[:, 1:] - (rho0 + d[:, 0])[:, None] * tilt
        worst = (np.sqrt(np.einsum("iak,iak->ik", rho1, rho1)) - rho0) / root
        worst = float(worst.max(initial=0.0))
        return 1.0 / worst if worst > 0.0 else np.inf

    return room


class NtScaling:
    """Nesterov-Todd scaling of an interior primal-dual pair (s, z).

    Per cone, H is the symmetric positive definite matrix with
    H s = H^-1 z = lam, the scaled point.  With J = diag(1, -1, ..., -1),
    the scaling point w (``point``, w^T J w = 1) and ``beta`` (Vandenberghe,
    "The CVXOPT linear and quadratic cone program solvers", 2010, sec. 4,
    whose W is H^-1):

        H^2 = (2 J w w^T J - J) / beta^2,   H = (2 J v v^T J - J) / beta,

    where v = (w + e) / sqrt(2 (w_0 + 1)) is the square root of w.  A
    program's ``factor`` builds G^T H^2 G from the first form: per cone it
    is (2 g g^T - G^T J G) / beta^2 with g = G^T J w, where a structured
    G can keep every term positive.  ``matrix`` holds H itself,
    (dim, dim, cones), formed once so that ``apply`` is one product.
    ``det_lam`` is lam_0^2 - |lam_1:|^2.  s, z, ``point`` and ``lam`` are
    cone vectors, (dim, cones).
    """

    def __init__(self, s, z):
        ds, dz = np.sqrt(_det(s)), np.sqrt(_det(z))
        sn, zn = s / ds, z / dz
        gamma = np.sqrt(0.5 * (1.0 + _rows(sn, zn)))
        w = sn - zn                # w = (s/|s| + J z/|z|) / (2 gamma)
        w[0] += 2.0 * zn[0]
        w /= 2.0 * gamma
        v = w.copy()
        v[0] += 1.0
        v /= np.sqrt(2.0 * v[0])
        v[1:] *= -1.0              # J v
        self.point = w
        self.beta = np.sqrt(ds / dz)
        self.det_lam = ds * dz     # det(lam) = sqrt(det(s) det(z))
        # lam = H^-1 z = beta (2 v (v . z) - J z), v . z = (J v) . (J z):
        # H s would cancel where H is far from the identity
        vz = v[0] * z[0] - _rows(v[1:], z[1:])
        lam = (2.0 * vz) * v
        lam[1:] *= -1.0
        lam[0] -= z[0]
        lam[1:] += z[1:]
        lam *= self.beta
        self.lam = lam
        dim = len(s)
        h = (2.0 * v)[:, None] * v
        flat = h.reshape(dim * dim, -1)    # a view: -J on the diagonal
        flat[0] -= 1.0
        flat[dim + 1 :: dim + 1] += 1.0
        h /= self.beta
        self.matrix = h

    def apply(self, u, out=None):
        """H u for a cone vector u, into ``out`` if given."""
        return np.einsum("abk,bk->ak", self.matrix, u, out=out)


_SOCP_MAX_ITERS = 60      # primal-dual iterations per solve
_SOCP_FRACTION = 0.99     # of the step to the boundary of the cones
_SOCP_MU_FLOOR = 0.01     # least start of mu, relative to |c|_inf: a fit
                          # dominated by cones near their boundary stalls
_SOCP_REFINE = 4          # most refinement solves of a corrector direction
_SOCP_GAP_REL = 1e-10     # stop: s . z <= this max(1, |c @ x|)
_SOCP_RESIDUAL_REL = 1e-9  # and |c + G^T z|_inf <= this |c|_inf


def solve_socp(program: ConeProgram) -> SolveOutcome:
    """Solve a second-order cone program by a feasible-start primal-dual
    interior-point method with Nesterov-Todd scaling and Mehrotra's
    predictor-corrector (as in ECOS, Domahidi, Chu & Boyd, ECC 2013).

    The primal iterate stays strictly feasible: the slacks are recomputed
    as h - G x after each step, and the step is halved until every cone
    holds them strictly inside, so the returned x meets every constraint
    exactly.  The dual starts at the central point z = mu s^-1, with mu
    fitting G^T z to -c in least squares but at least ``_SOCP_MU_FLOOR``
    |c|_inf, and its residual c + G^T z shrinks with each step.
    Each iteration forms the scaling H once (``NtScaling``), factors the
    scaled normal system G^T H^2 G once (``program.factor``) and solves
    it for the predictor and the corrector.  Directions are formed in
    scaled variables, dz~ = H G dx + t, so complementarity holds to
    rounding however ill-conditioned the system.  While the corrector's
    dual equation is off by more than a tenth of the tolerance below, it
    is refined by further solves, ``_SOCP_REFINE`` at most.
    The solve stops once s . z <= ``_SOCP_GAP_REL`` max(1, |c @ x|) and
    |c + G^T z|_inf <= ``_SOCP_RESIDUAL_REL`` |c|_inf, with status
    optimal.  It also stops with status max-iters after
    ``_SOCP_MAX_ITERS`` iterations, singular when ``program.factor``
    returns None, and stalled when 60 halvings of a step leave the cones;
    x is then the last iterate.  ``iterations`` counts the steps taken.
    Raises ValueError if ``x0`` is not strictly feasible.
    """
    c = program.c
    x = np.array(program.x0, dtype=float)
    s = program.slacks(x)
    if not _interior(s):
        raise ValueError("no strictly feasible start found")
    degree = s.shape[1]
    residual_tol = _SOCP_RESIDUAL_REL * float(np.abs(c).max(initial=0.0))
    z = s / _det(s)                # s^-1 = J s / det(s)
    z[1:] *= -1.0
    pull = program.g_tmul(z)
    mu = -float((c * pull).sum()) / max(
        float((pull * pull).sum()), np.finfo(float).tiny
    )
    mu = max(mu, _SOCP_MU_FLOOR * float(np.abs(c).max(initial=0.0)))
    z *= mu if mu > 0.0 else 1.0
    minus_c = -c
    # the scaled steps ds~ and dz~ of a direction, side by side for room
    pair = np.empty((2,) + s.shape)
    ds, dz = pair

    for iteration in range(_SOCP_MAX_ITERS):
        residual = c + program.g_tmul(z)
        gap = float((s * z).sum())
        objective = float((c * x).sum())
        if (
            gap <= _SOCP_GAP_REL * max(1.0, abs(objective))
            and np.abs(residual).max(initial=0.0) <= residual_tol
        ):
            return SolveOutcome(x, objective, STATUS_OPTIMAL, iteration)
        nt = NtScaling(s, z)
        solve = program.factor(nt)
        if solve is None:
            status = STATUS_SINGULAR
            break
        lam = nt.lam
        room = _step_limit(lam, nt.det_lam)
        # predictor (affine scaling: t = -lam, so H t = -z and rhs = -c):
        # G dx + ds = 0, G^T dz = -residual and ds~ + dz~ = t in the
        # scaled variables ds~ = H ds = -H G dx, dz~ = H^-1 dz
        nt.apply(-program.g_mul(solve(minus_c)), ds)
        np.subtract(-lam, ds, out=dz)
        sigma = (1.0 - min(1.0, room(pair))) ** 3
        # then Mehrotra's centered corrector, rhs = -residual - G^T H t
        r = -_jordan(lam, lam) - _jordan(ds, dz)
        r[0] += sigma * gap / degree
        t = _jordan_solve(lam, nt.det_lam, r)
        rhs = program.g_tmul(nt.apply(-t)) - residual
        dx = solve(rhs)
        nt.apply(-program.g_mul(dx), ds)
        for _ in range(_SOCP_REFINE):
            # iterative refinement of the dual equation G^T dz = -residual
            error = rhs - program.g_tmul(nt.apply(-ds))
            if np.abs(error).max() <= 0.1 * residual_tol:
                break
            dx = dx + solve(error)
            nt.apply(-program.g_mul(dx), ds)
        np.subtract(t, ds, out=dz)
        alpha = min(1.0, _SOCP_FRACTION * room(pair))
        z_step = nt.apply(dz)          # dz = H dz~
        for _ in range(60):
            x_new = x + alpha * dx
            s_new = program.slacks(x_new)
            z_new = z + alpha * z_step
            if _interior(s_new) and _interior(z_new):
                break
            alpha *= 0.5
        else:
            status = STATUS_STALLED
            break
        x, s, z = x_new, s_new, z_new
    else:
        iteration, status = _SOCP_MAX_ITERS, STATUS_MAX_ITERS
    return SolveOutcome(x, float((c * x).sum()), status, iteration)


# ---------------------------------------------------------------------------
# Programs over the K budget prices: one damped-Newton loop
# ---------------------------------------------------------------------------

ACCEPT_USAGE = 1 + 2e-9   # max budget share still declared feasible: a
                          # 1e-9 amplitude shortfall, (1 - 1e-9)^-2 - 1
_PRICE_MAX_NEWTON = 30    # Newton steps of the price test before giving up


def minimize_prices(model, value, nu, max_steps, fraction, simplex=False):
    """Minimize a convex function f of K prices nu > 0 by damped Newton.

    ``model(nu)`` either settles the program at nu and returns
    (answer, None), or returns (None, (f, grad, hess, ridge_scale)): f,
    its gradient and Hessian at nu and the ridge scale of ``newton_step``.
    ``value(nu)`` is f alone, for the search.  Each ``newton_step`` is
    searched by ``backtrack`` from ``fraction`` of the way to the boundary
    nu = 0 (a full step at most), under the approximate Armijo ceiling
    f + 1e-12 |f|: a rise of f within its round-off is accepted, so Newton
    steps still shrink the gradient once f has settled (Hager & Zhang,
    SIAM J. Optim. 2005).  With ``simplex`` the prices stay on
    sum(nu) = 1: the steps are bordered and each new point is rescaled
    onto the simplex.  Returns the answer, or None when a step or its
    search fails or ``max_steps`` steps settle nothing.
    """
    for _ in range(max_steps):
        answer, newton = model(nu)
        if newton is None:
            return answer
        f, grad, hess, ridge_scale = newton
        step = newton_step(hess, grad, None if simplex else ridge_scale)
        if step is None:
            return None
        shrink = step < 0.0
        room = np.min(nu[shrink] / -step[shrink], initial=np.inf)
        found = backtrack(
            value, nu, step, f + 1e-12 * abs(f), float(grad @ step),
            min(1.0, fraction * float(room)),
        )
        if found is None:
            return None
        nu = found[0] / found[0].sum() if simplex else found[0]
    return None


def start_prices(h: np.ndarray) -> np.ndarray:
    """The price test's first prices for ``h`` of shape (..., K, m).

    nu_k is proportional to sqrt(sum_n h_kn), on the price simplex.
    ``power_recovery._prefix_bracket`` prices its bound at these
    prices, as the price test's own start, so the two must stay equal.
    """
    nu = np.sqrt(h.sum(axis=-1))
    return nu / nu.sum(axis=-1, keepdims=True)


def solve_price_feasibility(h: np.ndarray) -> np.ndarray | None:
    """Shares that let every slot reach its amplitude target, or None.

    Slot n (a column of ``h``, shape (K, m), h > 0) is served when
    sum_k sqrt(h_kn x_kn) >= 1, where x_kn >= 0 is the share of sensor k's
    budget spent in slot n and sum_n x_kn <= 1 for every sensor.  At
    prices nu > 0 on the budgets the cheapest shares serving slot n are
    x_kn = h_kn / (nu_k s_n)^2 with s_n = sum_k h_kn / nu_k.  Their usage
    u = x 1 and f(nu) = nu . u = sum_n 1 / s_n sandwich the least
    worst-case share rho*: f(nu) <= rho* <= max_k u_k (weak duality), with
    equality at the maximizer of the concave f over the price simplex,
    which ``minimize_prices`` seeks as the minimizer of -f from
    ``start_prices``.  Returns x / max(1, max_k u_k) once
    max_k u_k <= ``ACCEPT_USAGE``, and None (infeasible) once
    f > ``ACCEPT_USAGE`` or when ``_PRICE_MAX_NEWTON`` steps or a failed
    step leave the verdict open (the conservative answer).
    """
    def priced(nu):
        s = (h / nu[:, None]).sum(axis=0)
        return float((1.0 / s).sum()), s

    def model(nu):
        f, s = priced(nu)
        a = h / (nu**2)[:, None]
        x = a / s**2
        usage = x.sum(axis=1)
        top = float(usage.max())
        if top <= ACCEPT_USAGE:
            return x / max(1.0, top), None
        if f > ACCEPT_USAGE:
            return None, None
        # the gradient of f is u, and f is homogeneous of degree one, so
        # its Hessian is singular along nu: only the bordered step solves
        hess = np.diag(2.0 * usage / nu) - 2.0 * (a / s**3) @ a.T
        return None, (-f, -usage, hess, None)

    return minimize_prices(
        model, lambda v: -priced(v)[0], start_prices(h), _PRICE_MAX_NEWTON,
        0.99, simplex=True,
    )


# ---------------------------------------------------------------------------
# Monotone feasibility bisection
# ---------------------------------------------------------------------------

@dataclass
class BisectResult:
    """Largest feasible integer plus bookkeeping about how it was found."""

    value: int
    fallback_used: bool
    probes: int


def bisect_max_feasible(probe: Callable[[int], bool], hi: int) -> BisectResult:
    """Largest n in [0, hi] with probe(n) true, assuming probe is monotone.

    n = 0 is treated as vacuously feasible and never probed.  After
    bisection a verification pass checks probe(result) and not
    probe(result + 1); if either fails the predicate was not monotone and
    the result is recomputed by a descending linear scan, which is reported
    via ``fallback_used``.
    """
    if hi < 0:
        raise ValueError("hi must be >= 0")
    cache: dict[int, bool] = {0: True}
    calls = 0

    def cached(nv: int) -> bool:
        nonlocal calls
        if nv not in cache:
            calls += 1
            cache[nv] = bool(probe(nv))
        return cache[nv]

    a, b = 0, hi
    while a < b:
        mid = (a + b + 1) // 2
        if cached(mid):
            a = mid
        else:
            b = mid - 1

    ok = cached(a) and (a == hi or not cached(a + 1))
    if ok:
        return BisectResult(a, False, calls)

    n = hi
    while n > 0 and not cached(n):
        n -= 1
    return BisectResult(n, True, calls)
