"""Linear-programming upper bound on catalytic work extraction.

A bistochastic stroke is a convex mixture of permutations (Birkhoff--von
Neumann), and work and catalyst block sums are linear in the mixture, so the
best catalyst-preserving bistochastic stroke is a linear program over the
weights of the n! permutations.  It is solved by column generation
(Dantzig--Wolfe): a master program over the permutations found so far, with
a convexity row and the first d_s - 1 block sums, and a pricing step that
finds the permutation of largest reduced cost against the master's duals.
By the rearrangement inequality that permutation sends the largest
population to the smallest energy shifted by its block's multiplier, so
pricing over all n! permutations is one sort.  `build_work_bound_problem`
assembles the master's columns each round; given all n! images it is the
test reference.  The first master, the identity column alone, is solved in
closed form (its one feasible point is the identity); every later master
goes to `simplex.simplex_solve`.  The value bounds the work of any single
catalyst-preserving permutation from above, and relaxes the harder question
of which bistochastic matrices arise from actual unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .errors import GuardExceededError
from .permutations import PermutationMap
from .thermo import PopulationVector, Spectrum

MAX_DIMENSION = 32


@dataclass(frozen=True, eq=False)
class WorkBoundProblem:
    """Columns of the work-bound program, one per permutation, as
    `build_work_bound_problem` assembles them for each master round."""

    work: np.ndarray        # (M,) work of each permutation
    marginals: np.ndarray   # (M, d_s) catalyst block sums after the stroke
    target: np.ndarray      # (d_s,) catalyst block sums of the initial state


@dataclass(frozen=True, eq=False)
class LPSolution:
    """Permutation weights, dual certificate and value of the work-bound
    program, with the body it was solved for.

    `dual_y` is the multiplier of the normalisation row and `dual_x` those of
    the first d_s-1 catalyst block sums.
    """

    value: float
    alphas: dict[PermutationMap, float]
    status: str
    residuals: dict[str, float]
    dual_y: float
    dual_x: tuple[float, ...]
    hamiltonian: Spectrum = field(repr=False)
    initial: PopulationVector = field(repr=False)

    def to_dict(self) -> dict:
        alphas = sorted(
            self.alphas.items(), key=lambda item: (-item[1], item[0].image)
        )
        return {
            "value": self.value,
            "status": self.status,
            "note": None,
            "alphas": [
                {"image": list(perm.image), "weight": weight} for perm, weight in alphas
            ],
            "dual": {"y": self.dual_y, "x": list(self.dual_x)},
            "residuals": dict(self.residuals),
        }


def build_work_bound_problem(
    hamiltonian: Spectrum,
    initial: PopulationVector,
    catalyst_dim: int,
    images: np.ndarray,
) -> WorkBoundProblem:
    """Work and catalyst block sums of the permutations in `images`, one
    column per row, in their order.

    `lp_work_upper_bound` assembles the master's columns with it each round.
    """
    energies = hamiltonian.energies()
    probs = initial.probs
    block_of = np.arange(probs.size) // (probs.size // catalyst_dim)
    return WorkBoundProblem(
        work=probs @ energies - energies[images] @ probs,
        marginals=probs @ np.eye(catalyst_dim)[block_of[images]],
        target=initial.catalyst_marginal(),
    )


def _pricing(energies: np.ndarray, probs: np.ndarray, catalyst_dim: int):
    """For one body, a function of the duals (y, x) returning the image of
    the permutation of largest reduced cost w - y - x . a, and that cost.

    The largest population goes to the smallest energy shifted by its
    block's multiplier (the last block's is zero), which is optimal over all
    n! permutations by the rearrangement inequality.
    """
    n = probs.size
    order = np.argsort(-probs, kind="stable")
    block = np.arange(n) // (n // catalyst_dim)
    energy = probs @ energies

    def best(y: float, x) -> tuple[np.ndarray, float]:
        shifted = energies + np.append(x, 0.0)[block]
        image = np.empty(n, dtype=int)
        image[order] = np.argsort(shifted, kind="stable")
        return image, float(energy - probs @ shifted[image] - y)

    return best


def _identity_master(problem: WorkBoundProblem) -> simplex.SimplexResult:
    """The first master, the identity column alone, in closed form: x = [1],
    multipliers (w, 0, ..., 0) with w the identity's work as built, and no
    warm basis past one block (phase one drops each block row, t_k times the
    convexity row).  These are the bits `simplex.simplex_solve` returns."""
    work = problem.work[0]
    dual = np.zeros(problem.target.size)
    dual[0] = work
    basis = [0] if problem.target.size == 1 else None
    return simplex.SimplexResult(float(work), np.ones(1), dual, basis, 0)


def check_dimension(n: int) -> None:
    """Refuse a working body of dimension n above MAX_DIMENSION."""
    if n > MAX_DIMENSION:
        raise GuardExceededError(f"LP dimension {n} exceeds the cap {MAX_DIMENSION}")


def lp_work_upper_bound(
    hamiltonian: Spectrum,
    initial: PopulationVector,
    catalyst_dim: int,
) -> LPSolution:
    """Best work over catalyst-preserving bistochastic strokes.

    Exact for working bodies of dimension up to MAX_DIMENSION; larger bodies
    raise GuardExceededError.  `alphas` are the positive weights of the
    optimal master vertex, at most `catalyst_dim` permutations.
    """
    catalyst_dim = int(catalyst_dim)
    if catalyst_dim != initial.basis_shape[0]:
        raise ValueError(
            f"catalyst_dim {catalyst_dim} does not match the state shape "
            f"{initial.basis_shape}"
        )
    if hamiltonian.dimension != initial.dimension:
        raise ValueError("spectrum does not match the state dimension")
    n = initial.dimension
    check_dimension(n)
    best = _pricing(hamiltonian.energies(), initial.probs, catalyst_dim)
    target = initial.catalyst_marginal()
    rhs = np.concatenate([[1.0], target[:-1]])
    # the identity keeps the catalyst, so the master is feasible from the start
    images = [np.arange(n)]
    stack = np.array(images)
    problem = build_work_bound_problem(hamiltonian, initial, catalyst_dim, stack)
    result = _identity_master(problem)
    while True:
        image, reduced = best(result.dual[0], result.dual[1:])
        if reduced <= simplex.PIVOT_TOL or (stack == image).all(axis=1).any():
            break
        images.append(image)
        stack = np.array(images)
        problem = build_work_bound_problem(hamiltonian, initial, catalyst_dim, stack)
        # kept as this vstack (F-ordered from the second round on): a C-ordered
        # copy sends `multipliers @ columns` through another BLAS kernel, whose
        # last-ulp differences change the pivots on degenerate masters
        columns = np.vstack([np.ones(len(images)), problem.marginals[:, :-1].T])
        # appending a column keeps the basis primal feasible
        result = simplex.simplex_solve(problem.work, columns, rhs, basis=result.basis)
    used = np.flatnonzero(result.x > 0.0)
    alphas = {PermutationMap(stack[k]): float(result.x[k]) for k in used}
    residuals = {
        "primal_marginal_max": float(np.abs(result.x @ problem.marginals - target).max()),
        "weight_sum_error": float(abs(sum(alphas.values()) - 1.0)),
    }
    solution = LPSolution(
        result.value, alphas, "optimal", residuals,
        float(result.dual[0]), tuple(float(v) for v in result.dual[1:]),
        hamiltonian, initial,
    )
    residuals["dual_max_violation"] = lp_dual_check(solution)
    return solution


def lp_dual_check(solution: LPSolution) -> float:
    """Largest violation of the dual certificate.

    Checks dual feasibility, y >= w - x . a for every one of the n!
    permutation columns (the worst is found by `_pricing`), and the
    strong-duality gap between the dual objective y + sum_k t_k x_k and the
    primal value.
    """
    target = solution.initial.catalyst_marginal()
    x = np.asarray(solution.dual_x)
    best = _pricing(solution.hamiltonian.energies(), solution.initial.probs, target.size)
    _, reduced = best(solution.dual_y, x)
    gap = abs(solution.dual_y + float(target[:-1] @ x) - solution.value)
    return max(reduced, 0.0, gap)
