"""Doubly stochastic matrices and their convex decomposition into permutations.

The decomposition is the greedy one: find a perfect matching on the positive
support, subtract the smallest matched entry times that permutation matrix,
repeat.  Every round zeroes at least one entry, so at most (n-1)^2 + 1 terms
appear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardExceededError
from .permutations import PermutationMap

MAX_BIRKHOFF_DIM = 64
SUPPORT_TOL = 1e-12
STOCHASTIC_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BistochasticMatrix:
    """Nonnegative square matrix with unit row and column sums.

    Acts on populations as entries @ p, so column x holds where the
    population of basis index x goes.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float).copy()
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must form a square matrix")
        if entries.min(initial=0.0) < -SUPPORT_TOL:
            raise ValueError(f"negative entry {entries.min():.3e}")
        np.clip(entries, 0.0, None, out=entries)
        rows = np.abs(entries.sum(axis=1) - 1.0).max()
        cols = np.abs(entries.sum(axis=0) - 1.0).max()
        if rows > STOCHASTIC_TOL or cols > STOCHASTIC_TOL:
            raise ValueError(
                f"row/column sums deviate from 1 by up to {max(rows, cols):.3e}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_mixture(cls, weights, perms) -> "BistochasticMatrix":
        """Convex combination of permutation matrices."""
        weights = np.asarray(weights, dtype=float)
        perms = list(perms)
        if weights.ndim != 1 or len(perms) != weights.size:
            raise ValueError("one weight per permutation required")
        if weights.min(initial=0.0) < 0 or abs(weights.sum() - 1.0) > STOCHASTIC_TOL:
            raise ValueError("weights must be a convex combination")
        n = len(perms[0])
        total = np.zeros((n, n))
        for weight, perm in zip(weights, perms):
            total[list(perm.image), range(n)] += weight
        return cls(total)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def apply(self, probs: np.ndarray) -> np.ndarray:
        return self.entries @ np.asarray(probs, dtype=float)


def _perfect_matching(support: np.ndarray) -> list[int] | None:
    """Column -> row assignment covering all columns, by augmenting paths."""
    n = support.shape[0]
    row_owner = [-1] * n  # row -> column currently matched to it

    def try_column(col: int, visited: list[bool]) -> bool:
        for row in range(n):
            if support[row, col] and not visited[row]:
                visited[row] = True
                if row_owner[row] < 0 or try_column(row_owner[row], visited):
                    row_owner[row] = col
                    return True
        return False

    for col in range(n):
        if not try_column(col, [False] * n):
            return None
    image = [0] * n
    for row, col in enumerate(row_owner):
        image[col] = row
    return image


def birkhoff_decompose(matrix) -> list[tuple[float, PermutationMap]]:
    """Greedy convex decomposition of a bistochastic matrix into permutations.

    Returns (weight, permutation) pairs whose weighted permutation matrices
    reconstruct the input entrywise to within 1e-10.  The recovered support
    is not unique; only the reconstruction is guaranteed.
    """
    if not isinstance(matrix, BistochasticMatrix):
        matrix = BistochasticMatrix(matrix)
    n = matrix.dimension
    if n > MAX_BIRKHOFF_DIM:
        raise GuardExceededError(f"dimension {n} exceeds the cap {MAX_BIRKHOFF_DIM}")
    residual = matrix.entries.copy()
    terms: list[tuple[float, PermutationMap]] = []
    max_terms = (n - 1) ** 2 + 1
    while residual.max() > SUPPORT_TOL:
        if len(terms) >= max_terms:
            raise RuntimeError("decomposition failed to terminate; input malformed")
        image = _perfect_matching(residual > SUPPORT_TOL)
        if image is None:
            leftover = max(residual.sum(axis=0).max(), residual.sum(axis=1).max())
            if leftover <= STOCHASTIC_TOL:
                break  # noise within the tolerance the input was accepted at
            raise ValueError(
                "no perfect matching on the positive support; "
                "input is not bistochastic"
            )
        weight = float(min(residual[image[x], x] for x in range(n)))
        for x in range(n):
            residual[image[x], x] -= weight
        np.clip(residual, 0.0, None, out=residual)
        terms.append((weight, PermutationMap(tuple(image))))
    return terms
