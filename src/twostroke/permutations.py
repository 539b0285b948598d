"""Permutation machinery and brute-force optimisation of work and efficiency.

For a diagonal initial state the extremal work strokes are permutations of
the basis populations, so at desk scale the non-catalytic optimisation is an
exhaustive sweep over the symmetric group.  `sweep_heats`, the one evaluator
of non-catalytic permutation strokes, is vectorised over any set of images;
the guard keeps n at 9 or below (9! = 362880).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .errors import GuardExceededError
from .thermo import (
    CycleReport,
    InverseTemperaturePair,
    PopulationVector,
    Spectrum,
    _kron,
    check_spacings,
    cycle_efficiency,
    gibbs_populations,
    is_engine,
)

MAX_SWEEP_DIMENSION = 9


@dataclass(frozen=True)
class PermutationMap:
    """Bijection on basis indices; image[x] is the destination of index x."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(int(x) for x in self.image)
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"not a bijection on 0..{len(image) - 1}: {image}")
        object.__setattr__(self, "image", image)

    @classmethod
    def identity(cls, n: int) -> "PermutationMap":
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.image)

    def inverse(self) -> "PermutationMap":
        inv = [0] * len(self.image)
        for source, dest in enumerate(self.image):
            inv[dest] = source
        return PermutationMap(tuple(inv))

    def compose(self, inner: "PermutationMap") -> "PermutationMap":
        """Permutation acting as `inner` first, then `self`."""
        if len(inner) != len(self):
            raise ValueError("size mismatch")
        return PermutationMap(tuple(self.image[x] for x in inner.image))

    def matrix(self) -> np.ndarray:
        n = len(self.image)
        mat = np.zeros((n, n))
        mat[list(self.image), range(n)] = 1.0
        return mat

    def apply_to(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != (len(self.image),):
            raise ValueError("size mismatch")
        out = np.empty_like(values)
        out[list(self.image)] = values
        return out


def apply_permutation(state: PopulationVector, perm: PermutationMap) -> PopulationVector:
    """Move each basis population to its image index."""
    if len(perm) != state.dimension:
        raise ValueError(
            f"permutation on {len(perm)} indices cannot act on dimension {state.dimension}"
        )
    return PopulationVector(perm.apply_to(state.probs), state.basis_shape)


@lru_cache(maxsize=None)
def images_array(n: int) -> np.ndarray:
    """All n! images as an (n!, n) integer array, lexicographically ordered.

    S_k is built from S_{k-1} for k = 1..n: block i of S_k holds the rows
    that start with i, followed by the rows of S_{k-1} with every entry >= i
    raised by one.  That map is increasing, so each block, and the stack of
    blocks, stays in lexicographic order.
    """
    if n > MAX_SWEEP_DIMENSION:
        raise GuardExceededError(f"enumeration too large: {n}! permutations")
    arr = np.empty((1, 0), dtype=np.int64)
    for k in range(1, n + 1):
        prev, arr = arr, np.empty((k * len(arr), k), dtype=np.int64)
        blocks = arr.reshape(k, len(prev), k)
        levels = np.arange(k)
        blocks[:, :, 0] = levels[:, None]
        np.add(prev, prev >= levels[:, None, None], out=blocks[:, :, 1:])
    arr.setflags(write=False)
    return arr


def sweep_heats(
    hamiltonian_hot: Spectrum,
    hamiltonian_cold: Spectrum,
    beta_h: float,
    beta_c: float,
    images: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(work, heat_hot, heat_cold) of each permutation stroke on tau_h x tau_c.

    `images` is a (k, n) array of images over the flat (hot, cold) basis.
    Each heat is sum_x p_x (E_x - E_image[x]) with the hot or cold marginal
    energy E, so a stroke that moves no population between different
    energies reads exactly 0; work is the sum of the two heats.  The
    temperatures are not ordered here, so any pair of positive betas works.
    """
    probs = _kron(
        gibbs_populations(hamiltonian_hot, beta_h),
        gibbs_populations(hamiltonian_cold, beta_c),
    )
    shape = (hamiltonian_hot.dimension, hamiltonian_cold.dimension)
    energy_hot = np.broadcast_to(hamiltonian_hot.energies()[:, None], shape).reshape(-1)
    energy_cold = np.broadcast_to(hamiltonian_cold.energies(), shape).reshape(-1)
    heat_hot = ((energy_hot - energy_hot[images]) * probs).sum(axis=1)
    heat_cold = ((energy_cold - energy_cold[images]) * probs).sum(axis=1)
    return heat_hot + heat_cold, heat_hot, heat_cold


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a permutation sweep.

    `witnesses` collects every permutation achieving `best_value` within
    1e-12; work and efficiency optima need not coincide, and surfacing all
    witnesses lets a caller detect when they do.  `engine_regime` is False
    when no permutation produces positive work, in which case `best_value`
    is 0 and there are no witnesses.
    """

    best_value: float
    witnesses: tuple[PermutationMap, ...]
    report: CycleReport | None
    engine_regime: bool


def optimal_noncatalytic(
    hamiltonian_hot: Spectrum,
    hamiltonian_cold: Spectrum,
    beta: InverseTemperaturePair,
    objective: Literal["efficiency", "work"] = "efficiency",
) -> OptimizationResult:
    """Best work or efficiency over all permutation strokes of tau_h x tau_c."""
    if objective not in ("efficiency", "work"):
        raise ValueError(f"unknown objective {objective!r}")
    images = images_array(hamiltonian_hot.dimension * hamiltonian_cold.dimension)
    work, heat_hot, heat_cold = sweep_heats(
        hamiltonian_hot, hamiltonian_cold, beta.beta_h, beta.beta_c, images
    )

    engine = is_engine(work)
    if not engine.any():
        return OptimizationResult(0.0, (), None, False)
    values = np.full(work.shape, -np.inf)
    if objective == "work":
        values[engine] = work[engine]
    else:
        values[engine] = cycle_efficiency(heat_hot[engine], heat_cold[engine])
    best_index = int(values.argmax())
    best = float(values[best_index])
    winners = np.flatnonzero(values >= best - 1e-12)
    witnesses = tuple(PermutationMap(tuple(images[k])) for k in winners)
    report = CycleReport.from_heats(heat_hot[best_index], heat_cold[best_index])
    return OptimizationResult(best, witnesses, report, True)


OTTO_SWAP_IMAGE: tuple[int, ...] = (0, 2, 1, 3)


@lru_cache(maxsize=1)
def canonical_qubit_images() -> tuple[PermutationMap, ...]:
    """Fixed row order for the 24-permutation table of a qubit working body.

    Identity first, then the hot-cold exchange that realises the Otto engine,
    then the remaining images lexicographically; a stable order keeps emitted
    tables byte-identical across runs.
    """
    head = ((0, 1, 2, 3), OTTO_SWAP_IMAGE)
    rest = (image for image in map(tuple, images_array(4).tolist()) if image not in head)
    return tuple(map(PermutationMap, (*head, *rest)))


@dataclass(frozen=True)
class QubitTableRow:
    index: int
    perm: PermutationMap
    work: float
    efficiency: float | None


def qubit_table(
    beta_h: float, omega_h: float, beta_c: float, omega_c: float
) -> list[QubitTableRow]:
    """Work and efficiency of all 24 permutation strokes of a two-qubit body.

    Efficiency is reported absent (None) whenever the stroke draws no hot
    heat, which covers both the identity row and the rows that only shuffle
    cold populations.  The spacings must be positive and finite, and so must
    the betas, in either order.
    """
    check_spacings(omega_h, omega_c)
    perms = canonical_qubit_images()
    images = np.array([perm.image for perm in perms])
    _, heat_hot, heat_cold = sweep_heats(
        Spectrum.qubit(omega_h), Spectrum.qubit(omega_c), beta_h, beta_c, images
    )
    rows = []
    for k, perm in enumerate(perms):
        report = CycleReport.from_heats(heat_hot[k], heat_cold[k])
        rows.append(QubitTableRow(k + 1, perm, report.work, report.efficiency))
    return rows


def passive_populations(populations, spectrum: Spectrum) -> np.ndarray:
    """Rearrange populations so larger weights sit on lower energies.

    Ties in energy are broken by original level order; any tie-respecting
    arrangement has the same (minimal) mean energy, this choice just makes
    the output unique.
    """
    p = np.asarray(populations, dtype=float)
    if p.shape != (spectrum.dimension,):
        raise ValueError("population vector does not match the spectrum")
    order = np.argsort(spectrum.energies(), kind="stable")
    out = np.empty_like(p)
    out[order] = np.sort(p)[::-1]
    return out


def ergotropy(populations, spectrum: Spectrum) -> float:
    """Unitarily extractable energy: mean energy above the passive floor."""
    p = np.asarray(populations, dtype=float)
    energies = spectrum.energies()
    return float(energies @ p - energies @ passive_populations(p, spectrum))
