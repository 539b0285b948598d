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
lists every permutation column and is kept as the test reference.  The value
bounds the work of any single catalyst-preserving permutation from above,
and relaxes the harder question of which bistochastic matrices arise from
actual unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .errors import GuardExceededError
from .permutations import PermutationMap
from .thermo import PopulationVector, Spectrum

MAX_DIMENSION = 32
SIGNATURE_DECIMALS = 12


@dataclass(frozen=True, eq=False)
class WorkBoundProblem:
    """Deduplicated column data of the work-bound program.

    Permutations sharing the same (work, block-sum) signature are collapsed
    to one representative; `class_sizes` records how many each represents.
    """

    images: np.ndarray      # (M, dim) representative permutation images
    work: np.ndarray        # (M,) work of each representative
    marginals: np.ndarray   # (M, d_s) catalyst block sums after the stroke
    target: np.ndarray      # (d_s,) catalyst block sums of the initial state
    class_sizes: np.ndarray


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
    """Assemble and deduplicate the permutation columns of the program.

    The representative of each signature class is the first permutation in
    image order, which keeps the column order deterministic.
    """
    energies = hamiltonian.energies()
    probs = initial.probs
    dim = images.shape[1]
    block_of = np.arange(dim) // (dim // catalyst_dim)
    work = energies @ probs - energies[images] @ probs
    marginals = probs @ np.eye(catalyst_dim)[block_of[images]]
    signature = np.round(np.column_stack([work, marginals]), SIGNATURE_DECIMALS)
    _, first, counts = np.unique(
        signature, axis=0, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    keep = first[order]
    return WorkBoundProblem(
        images=images[keep],
        work=work[keep],
        marginals=marginals[keep],
        target=initial.catalyst_marginal(),
        class_sizes=counts[order],
    )


def _best_permutation(
    energies: np.ndarray, probs: np.ndarray, target: np.ndarray, y: float, x
) -> tuple[np.ndarray, float]:
    """Image of the permutation of largest reduced cost w - y - x . a against
    the duals (y, x), and that reduced cost.

    The largest population goes to the smallest energy shifted by its
    block's multiplier (the last block's is zero), which is optimal over all
    n! permutations by the rearrangement inequality.
    """
    n = probs.size
    shifted = energies + np.append(x, 0.0)[np.arange(n) // (n // target.size)]
    image = np.empty(n, dtype=int)
    image[np.argsort(-probs, kind="stable")] = np.argsort(shifted, kind="stable")
    return image, float(probs @ energies - probs @ shifted[image] - y)


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
    if n > MAX_DIMENSION:
        raise GuardExceededError(f"LP dimension {n} exceeds the cap {MAX_DIMENSION}")
    energies = hamiltonian.energies()
    probs = initial.probs
    target = initial.catalyst_marginal()
    block_of = np.arange(n) // (n // catalyst_dim)
    rhs = np.concatenate([[1.0], target[:-1]])
    # the identity keeps the catalyst, so the master is feasible from the start
    images = [np.arange(n)]
    basis = None
    while True:
        stack = np.array(images)
        work = probs @ energies - energies[stack] @ probs
        sums = probs @ np.eye(catalyst_dim)[block_of[stack]]
        columns = np.vstack([np.ones(len(images)), sums[:, :-1].T])
        result = simplex.simplex_solve(work, columns, rhs, basis=basis)
        image, reduced = _best_permutation(
            energies, probs, target, result.dual[0], result.dual[1:]
        )
        if reduced <= simplex.PIVOT_TOL or (stack == image).all(axis=1).any():
            break
        images.append(image)
        # appending a column keeps the basis primal feasible
        basis = result.basis if len(result.basis) == rhs.size else None
    used = np.flatnonzero(result.x > 0.0)
    alphas = {PermutationMap(stack[k]): float(result.x[k]) for k in used}
    residuals = {
        "primal_marginal_max": float(np.abs(result.x @ sums - target).max()),
        "weight_sum_error": float(abs(sum(alphas.values()) - 1.0)),
    }
    solution = LPSolution(
        result.value, alphas, simplex.OPTIMAL, residuals,
        float(result.dual[0]), tuple(float(v) for v in result.dual[1:]),
        hamiltonian, initial,
    )
    residuals["dual_max_violation"] = lp_dual_check(solution)
    return solution


def lp_dual_check(solution: LPSolution) -> float:
    """Largest violation of the dual certificate.

    Checks dual feasibility, y >= w - x . a for every one of the n!
    permutation columns (the worst is found by `_best_permutation`), and the
    strong-duality gap between the dual objective y + sum_k t_k x_k and the
    primal value.
    """
    target = solution.initial.catalyst_marginal()
    x = np.asarray(solution.dual_x)
    _, reduced = _best_permutation(
        solution.hamiltonian.energies(), solution.initial.probs, target,
        solution.dual_y, x,
    )
    gap = abs(solution.dual_y + float(target[:-1] @ x) - solution.value)
    return max(reduced, 0.0, gap)
