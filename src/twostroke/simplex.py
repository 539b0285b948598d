"""Dense two-phase primal simplex for equality-form linear programs.

Solves  maximise c.x  subject to  A x = b, x >= 0.  Pivoting follows Bland's
rule (smallest eligible index enters, among minimum-ratio rows the one whose
basic variable has the smallest index leaves), which rules out cycling on the
heavily degenerate programs this package produces.  The basis inverse is not
maintained incrementally; each iteration re-solves against the current basis,
which is cheap at the row counts used here (a handful of constraints, many
columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardExceededError

PIVOT_TOL = 1e-9
RATIO_TIE_TOL = 1e-12

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class SimplexResult:
    status: str
    value: float
    x: np.ndarray | None
    dual: np.ndarray | None
    basis: list[int] | None
    iterations: int


class _Unbounded(Exception):
    pass


def _iterate(
    columns: np.ndarray,
    rhs: np.ndarray,
    objective: np.ndarray,
    basis: list[int],
    max_iterations: int,
) -> tuple[list[int], int]:
    """Run primal pivots until optimal; returns the final basis."""
    iterations = 0
    while True:
        if iterations > max_iterations:
            raise GuardExceededError("simplex iteration limit exceeded")
        base = columns[:, basis]
        multipliers = np.linalg.solve(base.T, objective[basis])
        reduced = objective - multipliers @ columns
        reduced[basis] = 0.0
        eligible = np.flatnonzero(reduced > PIVOT_TOL)
        if eligible.size == 0:
            return basis, iterations
        entering = int(eligible[0])
        direction = np.linalg.solve(base, columns[:, entering])
        current = np.linalg.solve(base, rhs)
        current = np.maximum(current, 0.0)
        movable = np.flatnonzero(direction > PIVOT_TOL)
        if movable.size == 0:
            raise _Unbounded
        ratios = current[movable] / direction[movable]
        best = ratios.min()
        ties = movable[ratios <= best + RATIO_TIE_TOL * (1.0 + abs(best))]
        leaving_row = min(ties, key=lambda r: basis[r])
        basis[leaving_row] = entering
        iterations += 1


def simplex_solve(
    objective,
    constraints,
    rhs,
    max_iterations: int = 100_000,
    basis=None,
) -> SimplexResult:
    """Maximise objective.x subject to constraints.x = rhs and x >= 0.

    Returns the optimum with the primal solution, the dual multipliers (one
    per constraint row, zeros on rows phase one proved redundant), and the
    final basis as column indices.  A `basis` returned by an earlier solve
    that kept every row skips phase one; it must still be primal feasible,
    as it is after columns are appended to that program.
    """
    columns = np.array(constraints, dtype=float)
    rhs = np.array(rhs, dtype=float)
    objective = np.asarray(objective, dtype=float)
    if columns.ndim != 2:
        raise ValueError("constraints must be a matrix")
    n_rows, n_cols = columns.shape
    if rhs.shape != (n_rows,) or objective.shape != (n_cols,):
        raise ValueError("objective/rhs shapes do not match the constraints")

    flip = rhs < 0
    columns[flip] *= -1.0
    rhs[flip] *= -1.0

    kept_rows = list(range(n_rows))
    iterations = 0
    if basis is not None:
        basis = list(basis)
    else:
        # Phase one: drive artificial variables to zero.
        phase_columns = np.hstack([columns, np.eye(n_rows)])
        phase_objective = np.concatenate([np.zeros(n_cols), -np.ones(n_rows)])
        basis = list(range(n_cols, n_cols + n_rows))
        try:
            basis, iterations = _iterate(
                phase_columns, rhs, phase_objective, basis, max_iterations
            )
        except _Unbounded:  # phase one is bounded below by construction
            raise RuntimeError("phase one reported unbounded; this is a bug")
        artificial_level = float(
            phase_objective[basis] @ np.linalg.solve(phase_columns[:, basis], rhs)
        )
        if artificial_level < -PIVOT_TOL:
            return SimplexResult(INFEASIBLE, 0.0, None, None, None, iterations)

        # Pivot leftover artificials out of the basis; rows that cannot be
        # pivoted are linearly dependent on the others and get dropped.
        redundant: list[int] = []
        for position, variable in enumerate(list(basis)):
            if variable < n_cols:
                continue
            base = phase_columns[:, basis]
            selector = np.zeros(n_rows)
            selector[position] = 1.0
            row_in_reduced = np.linalg.solve(base.T, selector) @ columns
            candidates = np.flatnonzero(np.abs(row_in_reduced) > PIVOT_TOL)
            candidates = [c for c in candidates if c not in basis]
            if candidates:
                basis[position] = int(candidates[0])
            else:
                redundant.append(position)
        if redundant:
            kept_rows = [p for p in range(n_rows) if p not in redundant]
            columns = columns[kept_rows]
            rhs = rhs[kept_rows]
            basis = [basis[p] for p in kept_rows]

    try:
        basis, used = _iterate(columns, rhs, objective, basis, max_iterations - iterations)
    except _Unbounded:
        return SimplexResult(UNBOUNDED, float("inf"), None, None, None, iterations)
    iterations += used

    base = columns[:, basis]
    primal_basic = np.maximum(np.linalg.solve(base, rhs), 0.0)
    x = np.zeros(n_cols)
    x[basis] = primal_basic
    dual_kept = np.linalg.solve(base.T, objective[basis])
    dual = np.zeros(n_rows)
    for where, row in enumerate(kept_rows):
        dual[row] = dual_kept[where] * (-1.0 if flip[row] else 1.0)
    value = float(objective @ x)
    return SimplexResult(OPTIMAL, value, x, dual, list(basis), iterations)
