"""Dense two-phase primal simplex for the work-bound master program.

Solves  maximise c.x  subject to  A x = b, x >= 0  for the programs that
`lp.lp_work_upper_bound` builds: feasible (the identity stroke keeps the
catalyst), bounded (a convexity row) and with b >= 0.  A negative entry of b
raises ValueError; a program that phase one finds infeasible, that either
phase finds unbounded, or whose basis turns singular, is an internal fault
and raises RuntimeError (the CLI's exit 4).
Pivoting follows Bland's rule (smallest eligible index enters, among
minimum-ratio rows the one whose basic variable has the smallest index
leaves), which rules out cycling on the heavily degenerate programs this
package produces.  The basis inverse is not maintained incrementally; each
iteration re-solves against the current basis, which is cheap at the row
counts used here (a handful of constraints, many columns).  The one
exception is phase one's first pass: its basis is the artificial identity,
so its multipliers, basic solution and direction are known without a solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardExceededError

PIVOT_TOL = 1e-9
RATIO_TIE_TOL = 1e-12
MAX_ITERATIONS = 100_000


@dataclass
class SimplexResult:
    """The optimum; `basis` is None when phase one dropped a redundant row,
    since it then cannot warm-start the full program."""

    value: float
    x: np.ndarray
    dual: np.ndarray
    basis: list[int] | None
    iterations: int


def _iterate(
    columns: np.ndarray,
    rhs: np.ndarray,
    objective: np.ndarray,
    basis: list[int],
    iterations: int,
    phase: str,
) -> tuple[list[int], int, np.ndarray, np.ndarray]:
    """Run primal pivots until optimal; returns the final basis, the
    iteration count (which starts at `iterations`), and the final basis's
    multipliers and unclipped basic solution."""
    while True:
        if iterations > MAX_ITERATIONS:
            raise GuardExceededError("simplex iteration limit exceeded")
        base = columns[:, basis]
        multipliers = np.linalg.solve(base.T, objective[basis])
        current = np.linalg.solve(base, rhs)
        entering = _entering(columns, objective, basis, multipliers)
        if entering is None:
            return basis, iterations, multipliers, current
        direction = np.linalg.solve(base, columns[:, entering])
        _pivot(basis, current, direction, entering, phase)
        iterations += 1


def _entering(columns, objective, basis, multipliers) -> int | None:
    """Bland's entering column: the smallest index of positive reduced cost,
    or None at the optimum."""
    reduced = objective - multipliers @ columns
    reduced[basis] = 0.0
    eligible = (reduced > PIVOT_TOL).nonzero()[0]
    return int(eligible[0]) if eligible.size else None


def _pivot(basis, current, direction, entering, phase) -> None:
    """Ratio test: `entering` replaces, in place, the basic variable of the
    minimum-ratio row, the one of smallest index among ties."""
    current = np.maximum(current, 0.0)
    movable = (direction > PIVOT_TOL).nonzero()[0]
    if movable.size == 0:
        raise RuntimeError(f"{phase} reported unbounded; this is a bug")
    ratios = current[movable] / direction[movable]
    best = ratios.min()
    ties = movable[ratios <= best + RATIO_TIE_TOL * (1.0 + abs(best))]
    leaving_row = min(ties.tolist(), key=basis.__getitem__)
    basis[leaving_row] = entering


def simplex_solve(objective, constraints, rhs, basis=None) -> SimplexResult:
    """Maximise objective.x subject to constraints.x = rhs >= 0 and x >= 0.

    Returns the optimum with the primal solution, the dual multipliers (one
    per constraint row, zeros on rows phase one proved redundant), and the
    final basis as column indices.  A `basis` returned by an earlier solve
    skips phase one; it must still be primal feasible, as it is after
    columns are appended to that program.
    """
    columns = np.asarray(constraints, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    objective = np.asarray(objective, dtype=float)
    if columns.ndim != 2:
        raise ValueError("constraints must be a matrix")
    n_rows, n_cols = columns.shape
    if rhs.shape != (n_rows,) or objective.shape != (n_cols,):
        raise ValueError("objective/rhs shapes do not match the constraints")
    if (rhs < 0).any():
        raise ValueError("rhs must be non-negative")
    try:
        return _two_phase(columns, rhs, objective, basis)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"simplex basis is singular ({exc}); this is a bug") from exc


def _two_phase(columns, rhs, objective, basis) -> SimplexResult:
    """`simplex_solve` on validated arrays."""
    n_rows, n_cols = columns.shape
    kept_rows = list(range(n_rows))
    iterations = 0
    if basis is not None:
        basis = list(basis)
    else:
        # Phase one: drive artificial variables to zero.
        phase_columns = np.hstack([columns, np.eye(n_rows)])
        phase_objective = np.concatenate([np.zeros(n_cols), -np.ones(n_rows)])
        basis = list(range(n_cols, n_cols + n_rows))
        # The first pass needs no solve: against the identity basis the
        # multipliers are -1, the basic solution is rhs and the direction is
        # the entering column, the bits np.linalg.solve returns for them.
        entering = _entering(phase_columns, phase_objective, basis, -np.ones(n_rows))
        if entering is not None:
            _pivot(basis, rhs, phase_columns[:, entering], entering, "phase one")
            iterations = 1
        basis, iterations, _, current = _iterate(
            phase_columns, rhs, phase_objective, basis, iterations, "phase one"
        )
        artificial_level = float(phase_objective[basis] @ current)
        if artificial_level < -PIVOT_TOL:
            raise RuntimeError("phase one found the program infeasible; this is a bug")

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

    basis, iterations, multipliers, current = _iterate(
        columns, rhs, objective, basis, iterations, "phase two"
    )
    x = np.zeros(n_cols)
    x[basis] = np.maximum(current, 0.0)
    dual = np.zeros(n_rows)
    dual[kept_rows] = multipliers
    value = float(objective @ x)
    warm_basis = basis if len(kept_rows) == n_rows else None
    return SimplexResult(value, x, dual, warm_basis, iterations)
