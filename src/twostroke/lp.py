"""Linear-programming upper bound on catalytic work extraction.

A bistochastic stroke is a convex mixture of permutations (Birkhoff--von
Neumann), and work and catalyst block sums are linear in the mixture, so the
best catalyst-preserving bistochastic stroke is a linear program over the
weights of the n! permutations: a convexity row and the first d_s - 1 block
sums t_k.  Its dual prices a permutation by its reduced cost
w - y - x . a against the multipliers (y, x).  The permutation of largest
reduced cost sends the largest population to the smallest energy shifted by
its block's multiplier (rearrangement inequality), so pricing over all n!
permutations is one sort, `_pricing`.  `build_work_bound_problem` assembles
the work and block sums of given permutations; given all n! images it is the
test reference.

Which path serves which d_s:
- d_s = 1 has no block row.  The sorted permutation is the ergotropy
  stroke, optimal alone, and y is its work.
- d_s = 2 has one block row, so the bound is the Lagrangian dual in one
  multiplier x: D(x) = t_0 x + max_pi (w_pi - x a_pi), convex and piecewise
  linear, with its kinks at E_j - E_i for a block-0 level i and a block-1
  level j.  Between kinks the sorted permutation is fixed, and the slope of
  D is t_0 - a_0, with a_0 the block-0 mass that permutation leaves.  A
  bisection over the sorted kinks, one sort a step, finds the first
  interval with a_0 <= t_0.  Its left kink x* minimises D.  The sorted
  permutations either side of x* are both optimal there; mixed to keep t_0
  (or the right one alone, when it keeps t_0 itself), they are the primal
  optimum.  When one permutation keeps t_0, D is flat on its interval, so
  the dual optimum is that whole interval; the reported x* is its left kink,
  or the first kink when it is the leftmost interval.
- d_s >= 3 goes to column generation (Dantzig--Wolfe): a master over the
  permutations found so far, the identity alone at first, each master solved
  by `simplex.simplex_solve` (warm from the previous round's basis when it
  has one), and a pricing step that adds the permutation of largest reduced
  cost against the master's duals.  `_column_generation` serves every d_s,
  and the tests use it as the reference at d_s <= 2.

On both paths the last pricing runs at the reported duals, so its reduced
cost is the dual certificate's, the one `lp_dual_check` recomputes.  The
value bounds the work of any single catalyst-preserving permutation from
above, and relaxes the harder question of which bistochastic matrices arise
from actual unitaries.
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
    `build_work_bound_problem` assembles them."""

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

    Column generation assembles each master's columns with it, and the
    parametric sort its one or two permutations.
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
    raise GuardExceededError.  `alphas` are the positive weights of an
    optimal mixture, at most `catalyst_dim` permutations.  A catalyst of one
    or two blocks is solved by the parametric sort, a larger one by column
    generation.
    """
    catalyst_dim = int(catalyst_dim)
    if catalyst_dim != initial.basis_shape[0]:
        raise ValueError(
            f"catalyst_dim {catalyst_dim} does not match the state shape "
            f"{initial.basis_shape}"
        )
    if hamiltonian.dimension != initial.dimension:
        raise ValueError("spectrum does not match the state dimension")
    check_dimension(initial.dimension)
    if catalyst_dim <= 2:
        return _parametric_sort(hamiltonian, initial, catalyst_dim)
    return _column_generation(hamiltonian, initial, catalyst_dim)


def _parametric_sort(
    hamiltonian: Spectrum, initial: PopulationVector, catalyst_dim: int
) -> LPSolution:
    """The bound at one or two catalyst blocks from pricing sorts alone, as
    the module docstring sets out.  y* is the largest reduced cost at
    (0, x*), so the reduced cost against (y*, x*) is 0 to the bit, as
    `lp_dual_check` recomputes it."""
    energies, probs = hamiltonian.energies(), initial.probs
    best = _pricing(energies, probs, catalyst_dim)
    if catalyst_dim == 1:
        x = np.empty(0)
        image, y = best(0.0, x)
        images, weights = image[None], np.ones(1)
    else:
        half = probs.size // 2
        target = initial.catalyst_marginal()[0]
        kinks = np.unique(energies[half:] - energies[:half, None])
        middle = kinks[:-1] / 2 + kinks[1:] / 2  # no sum that could overflow
        order, in_block_1 = np.argsort(-probs, kind="stable"), np.arange(probs.size) >= half
        sorted_at = {}  # interval r, between kinks r - 1 and r -> its sorted image and a_0

        def sort_in(r: int) -> tuple[np.ndarray, float]:
            if r not in sorted_at:
                if 0 < r < kinks.size:
                    image = best(0.0, middle[r - 1 : r])[0]
                else:
                    # the outer two in their limit order, block 0 below block 1
                    # as x -> -inf and above it as x -> +inf, with no E + x
                    image = np.empty(probs.size, dtype=int)
                    image[order] = np.lexsort((energies, in_block_1 if r == 0 else ~in_block_1))
                sorted_at[r] = image, float(probs @ (image < half))
            return sorted_at[r]

        low, high = 0, kinks.size  # the first interval with a_0 <= t_0
        while low < high:
            mid = (low + high) // 2
            if sort_in(mid)[1] <= target:
                high = mid
            else:
                low = mid + 1
        right, right_mass = sort_in(low)
        x = kinks[max(low - 1, 0)][None]
        if low == 0 or right_mass >= target:
            images, weights = right[None], np.ones(1)
        else:
            # the bisection's own masses, a_0 > t_0 > a_0', put the share in (0, 1)
            left, left_mass = sorted_at[low - 1]
            share = (target - right_mass) / (left_mass - right_mass)
            images, weights = np.stack([left, right]), np.array([share, 1.0 - share])
        y = best(0.0, x)[1]
    problem = build_work_bound_problem(hamiltonian, initial, catalyst_dim, images)
    return _solution(problem, images, weights, float(weights @ problem.work), (y, *x), 0.0,
                     hamiltonian, initial)


def _column_generation(
    hamiltonian: Spectrum, initial: PopulationVector, catalyst_dim: int
) -> LPSolution:
    """The bound by column generation, for any number of catalyst blocks;
    `lp_work_upper_bound` runs it from three blocks on."""
    n = initial.dimension
    best = _pricing(hamiltonian.energies(), initial.probs, catalyst_dim)
    target = initial.catalyst_marginal()
    rhs = np.concatenate([[1.0], target[:-1]])
    # the identity keeps the catalyst, so the master is feasible from the start
    images, basis = [np.arange(n)], None
    while True:
        stack = np.array(images)
        problem = build_work_bound_problem(hamiltonian, initial, catalyst_dim, stack)
        # kept as this vstack (F-ordered from the second round on): a C-ordered
        # copy sends `multipliers @ columns` through another BLAS kernel, whose
        # last-ulp differences change the pivots on degenerate masters
        columns = np.vstack([np.ones(len(images)), problem.marginals[:, :-1].T])
        result = simplex.simplex_solve(problem.work, columns, rhs, basis=basis)
        image, reduced = best(result.dual[0], result.dual[1:])
        if reduced <= simplex.PIVOT_TOL or (stack == image).all(axis=1).any():
            break
        images.append(image)
        # appending a column keeps the basis primal feasible
        basis = result.basis
    # the pricing that ended the loop ran at these duals: it is the check's own
    return _solution(problem, stack, result.x, result.value, result.dual, reduced,
                     hamiltonian, initial)


def _solution(problem, images, weights, value, dual, reduced, hamiltonian, initial) -> LPSolution:
    """The LPSolution of permutation weights over `images`, the rows of
    `problem`, with duals (y, *x) and the largest reduced cost against them."""
    used = np.flatnonzero(weights > 0.0)
    alphas = {PermutationMap(images[k]): float(weights[k]) for k in used}
    residuals = {
        "primal_marginal_max": float(np.abs(weights @ problem.marginals - problem.target).max()),
        "weight_sum_error": float(abs(sum(alphas.values()) - 1.0)),
    }
    solution = LPSolution(
        value, alphas, "optimal", residuals,
        float(dual[0]), tuple(float(v) for v in dual[1:]),
        hamiltonian, initial,
    )
    residuals["dual_max_violation"] = _certificate_violation(solution, problem.target, reduced)
    return solution


def lp_dual_check(solution: LPSolution) -> float:
    """Largest violation of the dual certificate.

    Checks dual feasibility, y >= w - x . a for every one of the n!
    permutation columns (the worst is found by `_pricing`), and the
    strong-duality gap between the dual objective y + sum_k t_k x_k and the
    primal value.
    """
    target = solution.initial.catalyst_marginal()
    best = _pricing(solution.hamiltonian.energies(), solution.initial.probs, target.size)
    _, reduced = best(solution.dual_y, np.asarray(solution.dual_x))
    return _certificate_violation(solution, target, reduced)


def _certificate_violation(solution: LPSolution, target: np.ndarray, reduced: float) -> float:
    """max(reduced cost, 0, duality gap), given the largest reduced cost."""
    gap = abs(solution.dual_y + float(target[:-1] @ np.asarray(solution.dual_x)) - solution.value)
    return max(reduced, 0.0, gap)
