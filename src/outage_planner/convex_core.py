"""Deterministic convex solvers used by the planning modules.

Four primitives, all dependency-free and reproducible run to run:

* ``solve_lp``: two-phase tableau simplex with Bland's pivoting rule
  (anti-cycling, deterministic) for small linear programs with inequality
  rows and variable lower bounds.
* ``solve_barrier``: log-barrier interior-point method for smooth convex
  programs.  Constraints are supplied in vectorized blocks.  By default the
  Newton system is assembled densely from the blocks; a program whose
  Hessian has structure supplies its own ``newton`` assembler instead, and
  both paths share one ridge fallback, decrement test and line search.
* ``solve_bordered``: block elimination for the bordered block-diagonal
  Newton system of the SCA power step: one batched solve over the
  per-slot diagonal blocks and one small Schur-complement solve for the
  budget border (Boyd & Vandenberghe, *Convex Optimization*, App. C.4).
* ``bisect_max_feasible``: largest-feasible-integer search for monotone
  predicates, with a verification pass and a linear-scan fallback when the
  monotonicity assumption fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_MAX_ITERS = "max-iters"


@dataclass
class SolveOutcome:
    """Result of a solver call: primal point, objective, status, effort."""

    x: np.ndarray
    objective: float
    status: str
    iterations: int
    gap: float = float("nan")


# ---------------------------------------------------------------------------
# Linear programming: two-phase simplex, Bland's rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProgram:
    """minimize c @ x  subject to  a_ub @ x <= b_ub,  x >= lower_bounds."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lower_bounds: np.ndarray | float = 0.0


_PIVOT_TOL = 1e-10
_COST_TOL = 1e-10
_MAX_PIVOTS = 100_000   # per simplex phase


def _bland_pivot(tableau, basis, allowed):
    """Run Bland-rule pivots in place.  Returns (status, pivot_count)."""
    m = len(basis)
    pivots = 0
    while pivots < _MAX_PIVOTS:
        cost = tableau[-1, :-1]
        entering = -1
        for j in np.flatnonzero(allowed):
            if cost[j] < -_COST_TOL:
                entering = int(j)
                break
        if entering < 0:
            return STATUS_OPTIMAL, pivots
        col = tableau[:m, entering]
        rows = np.flatnonzero(col > _PIVOT_TOL)
        if rows.size == 0:
            return STATUS_UNBOUNDED, pivots
        ratios = tableau[rows, -1] / col[rows]
        best = ratios.min()
        # Bland tie-break: smallest basic-variable index among minimal ratios
        tied = rows[ratios <= best + 1e-12 * max(1.0, abs(best))]
        leave_row = int(min(tied, key=lambda r: basis[r]))
        pivot = tableau[leave_row, entering]
        tableau[leave_row] /= pivot
        for i in range(m + 1):
            if i != leave_row and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leave_row]
        basis[leave_row] = entering
        pivots += 1
    return STATUS_MAX_ITERS, pivots


def solve_lp(lp: LinearProgram) -> SolveOutcome:
    """Solve a small LP exactly (to numerical tolerance) with the simplex.

    Status is one of optimal / infeasible / unbounded / max-iters.  On
    success the solution is an optimal basic (vertex) point; Bland's rule
    makes the pivot sequence deterministic and cycling-free.
    """
    c = np.asarray(lp.c, dtype=float)
    a = np.atleast_2d(np.asarray(lp.a_ub, dtype=float))
    b = np.asarray(lp.b_ub, dtype=float)
    n = c.size
    m = b.size
    if a.shape != (m, n):
        raise ValueError(f"a_ub must have shape {(m, n)}, got {a.shape}")
    lb = np.broadcast_to(np.asarray(lp.lower_bounds, dtype=float), (n,)).copy()

    # shift to y = x - lb >= 0
    b_shift = b - a @ lb

    neg = b_shift < 0.0
    n_art = int(neg.sum())
    width = n + m + n_art + 1
    tableau = np.zeros((m + 1, width))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b_shift
    basis = [n + i for i in range(m)]

    art_cols: list[int] = []
    next_art = n + m
    for i in np.flatnonzero(neg):
        tableau[i, :-1] *= -1.0
        tableau[i, -1] *= -1.0
        tableau[i, next_art] = 1.0
        basis[i] = next_art
        art_cols.append(next_art)
        next_art += 1

    total_pivots = 0
    allowed = np.ones(width - 1, dtype=bool)

    if n_art:
        # phase 1: minimize the sum of artificials
        for jcol in art_cols:
            tableau[-1, jcol] = 1.0
        for i, bi in enumerate(basis):
            if bi >= n + m:
                tableau[-1] -= tableau[i]
        status, piv = _bland_pivot(tableau, basis, allowed)
        total_pivots += piv
        if status == STATUS_MAX_ITERS:
            return SolveOutcome(lb.copy(), float(c @ lb), status, total_pivots)
        phase1 = -tableau[-1, -1]
        scale = max(1.0, float(np.abs(b_shift).max(initial=0.0)))
        if phase1 > 1e-9 * scale:
            return SolveOutcome(
                lb.copy(), float("nan"), STATUS_INFEASIBLE, total_pivots
            )
        # drive leftover artificials out of the basis
        drop_rows = []
        for i in range(m):
            if basis[i] >= n + m:
                row = tableau[i, : n + m]
                cand = np.flatnonzero(np.abs(row) > _PIVOT_TOL)
                if cand.size:
                    j = int(cand[0])
                    pivot = tableau[i, j]
                    tableau[i] /= pivot
                    for r in range(m + 1):
                        if r != i and tableau[r, j] != 0.0:
                            tableau[r] -= tableau[r, j] * tableau[i]
                    basis[i] = j
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            tableau = np.vstack([tableau[keep], tableau[-1:]])
            basis = [basis[i] for i in keep]
            m = len(basis)
        allowed[n + int(b.size) :] = False  # artificials may not re-enter
        for jcol in art_cols:
            allowed[jcol] = False

    # phase 2: install the real objective and re-optimize
    tableau[-1, :] = 0.0
    tableau[-1, :n] = c
    for i, bi in enumerate(basis):
        if bi < n and c[bi] != 0.0:
            tableau[-1] -= c[bi] * tableau[i]
    status, piv = _bland_pivot(tableau, basis, allowed)
    total_pivots += piv

    y = np.zeros(n + tableau.shape[1] - n - 1)
    for i, bi in enumerate(basis):
        y[bi] = tableau[i, -1]
    x = lb + y[:n]
    objective = float(c @ x)
    if status == STATUS_UNBOUNDED:
        return SolveOutcome(x, float("-inf"), status, total_pivots)
    return SolveOutcome(x, objective, status, total_pivots, gap=0.0)


# ---------------------------------------------------------------------------
# Smooth convex programs: log-barrier Newton method
# ---------------------------------------------------------------------------

class GenericBlock:
    """A family of smooth convex constraints g(x) <= 0 with dense callables.

    ``value`` maps x to the (m_i,) constraint values, ``jacobian`` to the
    (m_i, n) Jacobian.  ``hessian_comb(x, w)`` must return
    sum_j w_j * hess(g_j)(x) as an (n, n) array, or None when every
    constraint in the block is affine.  A program with its own ``newton``
    assembler needs only the values, and may leave ``jacobian`` None.
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

    ``newton``, when given, replaces the dense assembly from the blocks'
    Jacobians: ``newton(x, t)`` returns the gradient of the barrier
    t f(x) - sum log(-g(x)), the trace of its Hessian H, and a function
    ``solve(rhs, ridge)`` returning the solution of (H + ridge I) dx = rhs
    (raising ``np.linalg.LinAlgError`` when that system is singular).  The
    blocks then serve only their values, to the line search.
    """

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    blocks: list = field(default_factory=list)
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    newton: Callable[[np.ndarray, float], tuple] | None = None


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
    """Newton system assembled densely from the blocks' Jacobians."""
    n = x.size
    grad = t * np.asarray(program.gradient(x), dtype=float)
    hess = np.zeros((n, n))
    if program.hessian is not None:
        hess += t * np.asarray(program.hessian(x), dtype=float)
    for block in program.blocks:
        block.add_newton_terms(x, block.value(x), grad, hess)

    def solve(rhs, ridge):
        return np.linalg.solve(hess + ridge * np.eye(n) if ridge else hess, rhs)

    return grad, float(np.trace(hess)), solve


def solve_bordered(blocks, border, corner, rhs, rhs_border):
    """Solve [[blockdiag(H_n), C], [C^T, B]] [x; y] = [r; rho] by elimination.

    This is the Newton system of the SCA power step (one block per slot,
    bordered by the K average-power budgets).

    ``blocks`` (N, s, s) holds the diagonal blocks H_n, ``border``
    (N, s, r) the rows of C that meet block n, ``corner`` (r, r) the
    symmetric B, ``rhs`` (N, s) and ``rhs_border`` (r,) the right-hand
    side.  One batched solve gives H^-1 [r, C] block by block; the r x r
    Schur complement S = B - C^T H^-1 C then yields y, and
    x = H^-1 (r - C y).  B may be indefinite (a constraint row eliminated
    into the border has entry -g^2), but every H_n must be nonsingular.
    Costs O(N s^3 + N s^2 r + r^3) against O((N s + r)^3) for the dense
    system.  Returns x (N, s) and y (r,); raises ``np.linalg.LinAlgError``
    when a block or S is singular.
    """
    r = corner.shape[0]
    stacked = np.concatenate([rhs[:, :, None], border], axis=2)
    both = np.linalg.solve(blocks, stacked)
    h_rhs, h_border = both[:, :, 0], both[:, :, 1:]
    flat = border.reshape(-1, r)
    schur = corner - flat.T @ h_border.reshape(-1, r)
    y = np.linalg.solve(schur, rhs_border - flat.T @ h_rhs.ravel())
    return h_rhs - h_border @ y, y


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

    newton = program.newton or (lambda x, t: _dense_newton(program, x, t))

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
            grad, hess_trace, solve = newton(x, t)
            step = None
            ridge = 0.0
            base = hess_trace / n + 1.0
            for attempt in range(6):
                try:
                    step = solve(-grad, ridge)
                except np.linalg.LinAlgError:
                    step = None
                if step is not None and grad @ step < 0.0:
                    break
                ridge = base * 1e-12 if ridge == 0.0 else ridge * 100.0
            if step is None or grad @ step >= 0.0:
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

        gap = m / t
        if status == STATUS_MAX_ITERS:
            break
        if gap <= gap_tol:
            break
        t *= _MU

    return SolveOutcome(
        x, float(program.objective(x)), status, newton_used, gap=m / t
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


def bisect_max_feasible(
    probe: Callable[[int], bool], lo: int, hi: int
) -> BisectResult:
    """Largest n in [lo, hi] with probe(n) true, assuming probe is monotone.

    Requires probe(lo) true or lo == 0 (n = 0 is treated as vacuously
    feasible and never probed).  After bisection a verification pass checks
    probe(result) and not probe(result + 1); if either fails the predicate
    was not monotone and the result is recomputed by a descending linear
    scan, which is reported via ``fallback_used``.
    """
    if hi < lo:
        raise ValueError("hi must be >= lo")
    cache: dict[int, bool] = {0: True}
    calls = 0

    def cached(nv: int) -> bool:
        nonlocal calls
        if nv not in cache:
            calls += 1
            cache[nv] = bool(probe(nv))
        return cache[nv]

    a, b = lo, hi
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
