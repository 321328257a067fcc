"""Deterministic convex solvers used by the planning modules.

Four primitives, all dependency-free and reproducible run to run:

* ``solve_lp``: one-phase tableau simplex with Bland's pivoting rule
  (anti-cycling, deterministic) for small linear programs in x >= 0 whose
  inequality rows have a nonnegative right-hand side, so the slack basis
  is a feasible start.  It returns the row duals and its final basis, and
  can start from a given primal-feasible basis: the relaxation's column
  generation re-solves its master LP from the last basis after each new
  column.
* ``solve_barrier``: log-barrier interior-point method for smooth convex
  programs.  Constraints are supplied in vectorized blocks.  A program
  with structure supplies its own Newton system (``newton``), as the SCA
  trajectory step does; otherwise the system is assembled densely from
  the blocks' Jacobians and Hessians.  ``newton_direction`` is the
  ridge-guarded Newton solve, shared with the SCA power step.
* ``solve_price_feasibility``: decides whether per-slot amplitude targets
  fit into per-sensor budgets, by Newton's method on the K budget prices
  of the concave dual (the paper's closed-form per-slot powers).
  ``ascend_in_orthant`` is its line search, shared with the SCA power step.
* ``bisect_max_feasible``: largest-feasible-integer search for monotone
  predicates, with a verification pass and a linear-scan fallback when the
  monotonicity assumption fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

STATUS_OPTIMAL = "optimal"
STATUS_UNBOUNDED = "unbounded"
STATUS_MAX_ITERS = "max-iters"


@dataclass
class SolveOutcome:
    """Result of a solver call: primal point, objective, status, effort."""

    x: np.ndarray
    objective: float
    status: str
    iterations: int
    # LP only: row prices, and the basis as (structural columns, rows
    # whose slacks are not basic)
    duals: np.ndarray | None = None
    basis: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())


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


def solve_lp(lp: LinearProgram, start=((), ())) -> SolveOutcome:
    """Solve a small LP exactly (to numerical tolerance) with the simplex.

    ``b_ub`` must be nonnegative, so x = 0 is feasible and the simplex
    starts from the slack basis; a negative or NaN entry raises
    ValueError.  ``start`` optionally gives a primal-feasible basis to
    start from instead, as (structural columns, rows whose slacks are not
    basic), such as the ``basis`` of an optimal solve of the same rows
    before columns were appended.  Its columns are pivoted back in one by
    one, each on the largest entry among its rows not yet pivoted on.  A
    start that is singular or not primal feasible raises ValueError.

    Status is one of optimal / unbounded / max-iters; ``iterations``
    counts every pivot, those of the start included.  On success the
    solution is an optimal basic (vertex) point, and ``duals`` are the
    row prices y >= 0 (the reduced costs of the slack columns): c + a_ub.T
    @ y >= 0 and c @ x == -b_ub @ y, both to the pivoting tolerances.
    Bland's rule makes the pivot sequence deterministic and cycling-free.
    """
    c = np.asarray(lp.c, dtype=float)
    a = np.atleast_2d(np.asarray(lp.a_ub, dtype=float))
    b = np.asarray(lp.b_ub, dtype=float)
    n = c.size
    m = b.size
    if a.shape != (m, n):
        raise ValueError(f"a_ub must have shape {(m, n)}, got {a.shape}")
    if not (b >= 0.0).all():
        raise ValueError("b_ub must be nonnegative, so that x = 0 is feasible")

    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[-1, :n] = c
    basis = list(range(n, n + m))
    pivots = 0

    def pivot(row, col):
        tableau[row] /= tableau[row, col]
        factor = tableau[:, col].copy()
        factor[row] = 0.0
        tableau[:] -= factor[:, None] * tableau[row]
        basis[row] = col

    start_cols, start_rows = (sorted(set(part)) for part in start)
    if len(start_cols) != len(start_rows) or not (
        set(start_cols) <= set(range(n)) and set(start_rows) <= set(range(m))
    ):
        raise ValueError("start must pair distinct columns with distinct rows")
    for col in start_cols:
        row = start_rows[int(np.abs(tableau[start_rows, col]).argmax())]
        if abs(tableau[row, col]) <= _PIVOT_TOL:
            raise ValueError("start basis is singular")
        pivot(row, col)
        start_rows.remove(row)
        pivots += 1
    rhs = tableau[:m, -1]
    if (rhs < -_PIVOT_TOL * max(1.0, float(b.max(initial=0.0)))).any():
        raise ValueError("start basis is not primal feasible")
    np.maximum(rhs, 0.0, out=rhs)   # rounding of the start's pivots

    status = STATUS_MAX_ITERS
    while pivots < _MAX_PIVOTS:
        # Bland: the first column with a negative reduced cost enters
        improving = np.flatnonzero(tableau[-1, :-1] < -_COST_TOL)
        if improving.size == 0:
            status = STATUS_OPTIMAL
            break
        entering = int(improving[0])
        col = tableau[:m, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            status = STATUS_UNBOUNDED
            break
        ratios = tableau[rows, -1] / col[rows]
        best = ratios.min()
        # Bland tie-break: smallest basic-variable index among minimal ratios
        tied = rows[ratios <= best + 1e-12 * max(1.0, abs(best))]
        pivot(int(min(tied, key=lambda r: basis[r])), entering)
        pivots += 1

    y = np.zeros(n + m)
    y[basis] = tableau[:m, -1]
    x = y[:n]
    duals = np.maximum(tableau[-1, n : n + m], 0.0)
    final = (
        tuple(sorted(j for j in basis if j < n)),
        tuple(sorted(set(range(m)) - {j - n for j in basis if j >= n})),
    )
    objective = float("-inf") if status == STATUS_UNBOUNDED else float(c @ x)
    return SolveOutcome(x, objective, status, pivots, duals, final)


# ---------------------------------------------------------------------------
# Smooth convex programs: log-barrier Newton method
# ---------------------------------------------------------------------------

class GenericBlock:
    """A family of smooth convex constraints g(x) <= 0 with dense callables.

    ``value`` maps x to the (m_i,) constraint values, ``jacobian`` to the
    (m_i, n) Jacobian.  ``hessian_comb(x, w)`` must return
    sum_j w_j * hess(g_j)(x) as an (n, n) array, or None when every
    constraint in the block is affine.  A program with its own ``newton``
    system needs only the values, so ``jacobian`` may then be None.
    """

    def __init__(self, value, jacobian=None, hessian_comb=None):
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
    ``newton(x, t)``, when given, replaces the dense assembly: it returns
    the gradient of the barrier function t f(x) - sum log(-g(x)), the
    trace of its Hessian H, and ``solve(rhs, ridge)``, which returns the
    solution of (H + ridge I) d = rhs, or None when that system is not
    positive definite to working precision.
    """

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    blocks: list = field(default_factory=list)
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    newton: Callable | None = None


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
    """The barrier's Newton system, assembled densely from the blocks.

    Returns (gradient, Hessian trace, solve) like ``program.newton``.
    """
    n = x.size
    grad = t * np.asarray(program.gradient(x), dtype=float)
    hess = np.zeros((n, n))
    if program.hessian is not None:
        hess += t * np.asarray(program.hessian(x), dtype=float)
    for block in program.blocks:
        block.add_newton_terms(x, block.value(x), grad, hess)
    return grad, float(np.trace(hess)), dense_solver(hess)


def dense_solver(hess):
    """``solve(rhs, ridge)`` for (hess + ridge I) d = rhs by LU.

    Returns None when the system is singular.
    """
    def solve(rhs, ridge):
        try:
            return np.linalg.solve(
                hess + ridge * np.eye(rhs.size) if ridge else hess, rhs
            )
        except np.linalg.LinAlgError:
            return None

    return solve


def newton_direction(solve, grad, base):
    """Solve H d = -grad for a descent direction (grad @ d < 0).

    ``solve(rhs, ridge)`` solves (H + ridge I) d = rhs, or returns None.
    A failed or non-descending solve is retried with a ridge, starting at
    1e-12 * ``base`` and growing 100-fold, five times at most.  Returns
    None when no try descends.
    """
    ridge = 0.0
    for _ in range(6):
        step = solve(-grad, ridge)
        if step is not None and grad @ step < 0.0:
            return step
        ridge = base * 1e-12 if ridge == 0.0 else ridge * 100.0
    return None


# log-barrier schedule
_T0 = 1.0                # first barrier parameter
_MU = 10.0               # growth of the barrier parameter per stage
_ARMIJO_C = 0.01         # slope fraction of the backtracking search
_NEWTON_TOL = 1e-10      # centering stops once lambda^2 / 2 is below this
_MAX_STAGE_NEWTON = 60   # Newton steps per centering stage


def solve_barrier(
    program: SmoothConvexProgram,
    gap_tol: float = 1e-9,
    max_newton: int = 200,
) -> SolveOutcome:
    """Minimize a smooth convex program with the log-barrier method.

    The barrier parameter starts at ``_T0`` and is multiplied by ``_MU``
    after each centering stage; each stage runs damped Newton steps with
    Armijo backtracking (halving, slope fraction ``_ARMIJO_C``) until the
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
            if program.newton is not None:
                grad, trace, solve = program.newton(x, t)
            else:
                grad, trace, solve = _dense_newton(program, x, t)
            step = newton_direction(solve, grad, trace / n + 1.0)
            if step is None:
                break  # numerically stuck; let the outer loop decide

            decrement = -float(grad @ step)
            if 0.5 * decrement <= _NEWTON_TOL:
                break
            phi0 = _barrier_value(program, t, x) if phi_x is None else phi_x
            if 0.5 * decrement <= 1e-12 * abs(phi0):
                break  # below the float resolution of the barrier value

            slope = -decrement
            alpha = 1.0
            accepted = False
            for _ in range(60):
                cand = x + alpha * step
                phi = _barrier_value(program, t, cand)
                if phi <= phi0 + _ARMIJO_C * alpha * slope:
                    x, phi_x = cand, phi
                    accepted = True
                    break
                alpha *= 0.5
            newton_used += 1
            stage_used += 1
            if not accepted:
                # float-noise floor for this stage; the iterate is already
                # centered enough for the next t to take over
                break

        if status == STATUS_MAX_ITERS or m / t <= gap_tol:
            break
        t *= _MU

    return SolveOutcome(x, float(program.objective(x)), status, newton_used)


# ---------------------------------------------------------------------------
# Amplitude targets within budgets: Newton's method on the K prices
# ---------------------------------------------------------------------------

ACCEPT_USAGE = 1 + 2e-9   # max budget share still declared feasible: a
                          # 1e-9 amplitude shortfall, (1 - 1e-9)^-2 - 1
_PRICE_MAX_NEWTON = 30    # Newton steps of the price test before giving up


def ascend_in_orthant(fun, x, step, value, slope, fraction):
    """Backtracking line search that increases ``fun`` and keeps x > 0.

    The first trial point lies ``fraction`` of the way from x to the
    boundary of the positive orthant along ``step`` (at most a full
    step); the length is then halved until Armijo's condition
    fun(x + a step) >= value + _ARMIJO_C a slope holds, where ``value``
    is fun(x) and ``slope`` > 0 its derivative along ``step``.  Returns
    the accepted point, or None when 60 halvings find none.
    """
    shrink = step < 0.0
    room = np.min(x[shrink] / -step[shrink], initial=np.inf)
    alpha = min(1.0, fraction * float(room))
    for _ in range(60):
        cand = x + alpha * step
        if fun(cand) >= value + _ARMIJO_C * alpha * slope:
            return cand
        alpha *= 0.5
    return None


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
    which Newton's method seeks.  Returns x / max(1, max_k u_k) once
    max_k u_k <= ``ACCEPT_USAGE``, and None (infeasible) once
    f > ``ACCEPT_USAGE`` or when ``_PRICE_MAX_NEWTON`` steps or a stalled
    step leave the verdict open (the conservative answer).
    """
    k = h.shape[0]

    def priced(nu):
        s = (h / nu[:, None]).sum(axis=0)
        return float((1.0 / s).sum()), s

    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, k] = kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    nu = np.sqrt(h.sum(axis=1))
    nu /= nu.sum()
    for _ in range(_PRICE_MAX_NEWTON):
        f, s = priced(nu)
        a = h / (nu**2)[:, None]
        x = a / s**2
        usage = x.sum(axis=1)
        top = float(usage.max())
        if top <= ACCEPT_USAGE:
            return x / max(1.0, top)
        if f > ACCEPT_USAGE:
            return None

        # Newton step of max f subject to sum(nu) = 1; the gradient of f
        # is u, and f is homogeneous of degree one, so its Hessian is
        # singular along nu and only the bordered system is solvable
        kkt[:k, :k] = 2.0 * (a / s**3) @ a.T - np.diag(2.0 * usage / nu)
        rhs[:k] = -usage
        try:
            step = np.linalg.solve(kkt, rhs)[:k]
        except np.linalg.LinAlgError:
            break
        slope = float(usage @ step)
        if not slope > 1e-15 * f:
            break  # converged short of a verdict
        cand = ascend_in_orthant(
            lambda v: priced(v)[0], nu, step, f, slope, 0.99
        )
        if cand is None:
            break
        nu = cand / cand.sum()
    return None


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
