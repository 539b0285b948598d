"""Linear-programming upper bound on catalytic work extraction.

B[i, j] is the share of the population of level j that a bistochastic stroke
sends to level i.  Work and catalyst block sums are linear in B, so the best
catalyst-preserving bistochastic stroke is one linear program over the n*n
entries of B.  By Birkhoff--von Neumann it equals the program over convex
weights of the n! permutations (`build_work_bound_problem`, kept as the test
reference), and the optimal B is decomposed back into permutation weights.
The value bounds the work of any single catalyst-preserving permutation from
above, and relaxes the harder question of which bistochastic matrices arise
from actual unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simplex
from .birkhoff import birkhoff_decompose
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
class BistochasticProgram:
    """Maximise work . B subject to constraints @ B = rhs and B >= 0, over
    the entries of B flattened row-major.

    Rows: the n row sums, the first n-1 column sums and the first d_s-1
    catalyst block sums of B p.  The last column sum and the last block sum
    follow from the others, so they are left out.
    """

    work: np.ndarray         # (n, n) objective W[i, j] = (E_j - E_i) p_j
    constraints: np.ndarray  # (2n - 1 + d_s - 1, n*n)
    rhs: np.ndarray


@dataclass(frozen=True, eq=False)
class LPSolution:
    """Primal weights, dual certificate and value of the work-bound program.

    `multipliers` holds one dual value per program row: the row potentials
    u, the column potentials v and the block multipliers x.
    """

    value: float
    alphas: dict[PermutationMap, float]
    status: str
    residuals: dict[str, float]
    program: BistochasticProgram = field(repr=False)
    multipliers: np.ndarray = field(repr=False)
    basis: tuple[int, ...] = field(repr=False)

    @property
    def dual_y(self) -> float:
        """Sum of the row and column potentials (the normalisation multiplier)."""
        return float(self.multipliers[: 2 * self.program.work.shape[0] - 1].sum())

    @property
    def dual_x(self) -> tuple[float, ...]:
        """Multipliers of the first d_s-1 catalyst block sums."""
        n = self.program.work.shape[0]
        return tuple(float(v) for v in self.multipliers[2 * n - 1 :])

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


def _bistochastic_program(
    hamiltonian: Spectrum, initial: PopulationVector, catalyst_dim: int
) -> BistochasticProgram:
    energies = hamiltonian.energies()
    probs = initial.probs
    n = probs.size
    eye = np.eye(n)
    block_rows = np.repeat(np.eye(catalyst_dim), n // catalyst_dim, axis=1)
    constraints = np.vstack([
        np.kron(eye, np.ones(n)),
        np.kron(np.ones(n), eye)[: n - 1],
        np.kron(block_rows, probs)[: catalyst_dim - 1],
    ])
    rhs = np.concatenate([np.ones(2 * n - 1), initial.catalyst_marginal()[:-1]])
    work = (energies[None, :] - energies[:, None]) * probs[None, :]
    return BistochasticProgram(work, constraints, rhs)


def lp_work_upper_bound(
    hamiltonian: Spectrum,
    initial: PopulationVector,
    catalyst_dim: int,
) -> LPSolution:
    """Best work over catalyst-preserving bistochastic strokes.

    Exact for working bodies of dimension up to MAX_DIMENSION; larger bodies
    raise GuardExceededError.  `alphas` is a convex decomposition of the
    optimal B into permutations.
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
    program = _bistochastic_program(hamiltonian, initial, catalyst_dim)
    result = simplex.simplex_solve(
        program.work.reshape(-1), program.constraints, program.rhs
    )
    if result.status != simplex.OPTIMAL:
        return LPSolution(
            0.0, {}, simplex.INFEASIBLE, {}, program,
            np.zeros(program.rhs.size), (),
        )
    matrix = result.x.reshape(n, n)
    # no permutation repeats: each term zeroes one entry of its own support
    alphas = {perm: weight for weight, perm in birkhoff_decompose(matrix)}
    block_sums = (matrix @ initial.probs).reshape(catalyst_dim, -1).sum(axis=1)
    residuals = {
        "primal_marginal_max": float(
            np.abs(block_sums - initial.catalyst_marginal()).max()
        ),
        "weight_sum_error": float(abs(sum(alphas.values()) - 1.0)),
    }
    solution = LPSolution(
        float(result.value),
        alphas,
        simplex.OPTIMAL,
        residuals,
        program,
        result.dual,
        tuple(int(b) for b in result.basis),
    )
    residuals["dual_max_violation"] = lp_dual_check(solution)
    return solution


def lp_dual_check(solution: LPSolution) -> float:
    """Largest violation of the dual certificate.

    Checks dual feasibility, u_i + v_j + x_block(i) * p_j >= W[i, j] for
    every entry of B (the left-out last column and block rows carry
    multiplier zero), and the strong-duality gap between the dual objective
    y + sum_k t_k x_k and the primal value.
    """
    program = solution.program
    multipliers = solution.multipliers
    slack = program.work.reshape(-1) - multipliers @ program.constraints
    gap = abs(float(multipliers @ program.rhs) - solution.value)
    return max(float(slack.max(initial=0.0)), gap)
