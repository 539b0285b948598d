"""Coherence in the catalyst state cannot change engine performance.

Given any engine (rho_s, U) whose work stroke preserves the catalyst, rotate
to the eigenbasis of rho_s: the diagonalised catalyst together with the
conjugated unitary draws exactly the same hot and cold heats, because the
rotation acts on the catalyst factor alone and commutes with the hot and
cold Hamiltonians.  This module performs that construction numerically on
small complex matrices and checks the equality, plus generators for random
engines whose strokes provably preserve the catalyst.  Each trial evaluates
two states, the original and the decohered one, once each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalysis import SimplePermSpec, build_simple_perm, solve_catalyst_state
from .errors import CoherenceCheckError, GuardExceededError
from .thermo import InverseTemperaturePair, Spectrum, _kron, gibbs_populations

UNITARY_TOL = 1e-10
DENSITY_TOL = 1e-10
TRACE_TOL = 1e-12
HEAT_MATCH_TOL = 1e-10
CYCLICITY_MATCH_TOL = 1e-10
MAX_SUITE_CATALYST_DIM = 128  # dense (4d)^2 complex matrices: ~0.3 s, ~75 MB a trial at 128


def _check_unitary(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square")
    defect = np.abs(m @ m.conj().T - np.eye(m.shape[0])).max()
    if defect > UNITARY_TOL:
        raise ValueError(f"{name} is not unitary (defect {defect:.3e})")
    return m


def _check_density(matrix: np.ndarray, name: str = "state") -> np.ndarray:
    rho = np.asarray(matrix, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be square")
    if np.abs(rho - rho.conj().T).max() > DENSITY_TOL:
        raise ValueError(f"{name} is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ValueError(f"{name} must have unit trace")
    smallest = np.linalg.eigvalsh(rho).min()
    if smallest < -DENSITY_TOL:
        raise ValueError(f"{name} is not positive semidefinite ({smallest:.3e})")
    return rho


def dephase(rho: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    """Zero every matrix element between levels of distinct energy.

    For a nondegenerate spectrum this is the diagonal part; degenerate
    blocks (energies equal within 1e-12) are left untouched.  Diagonal
    entries, and hence the trace, are preserved exactly.
    """
    rho = np.asarray(rho, dtype=complex)
    energies = spectrum.energies()
    if rho.shape != (energies.size, energies.size):
        raise ValueError("state does not match the spectrum")
    same_energy = np.abs(energies[:, None] - energies[None, :]) <= 1e-12
    return np.where(same_energy, rho, 0.0)


def catalyst_marginal_matrix(rho: np.ndarray, catalyst_dim: int) -> np.ndarray:
    """Partial trace over the hot and cold factors."""
    total = rho.shape[0]
    rest = total // catalyst_dim
    reshaped = rho.reshape(catalyst_dim, rest, catalyst_dim, rest)
    return np.einsum("ikjk->ij", reshaped)


def _bath_factors(
    catalyst_dim: int,
    hamiltonian_hot: Spectrum,
    hamiltonian_cold: Spectrum,
    beta: InverseTemperaturePair,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(tau_h, tau_c, hot energies, cold energies) of rho_s x tau_h x tau_c.

    The Gibbs states are complex diagonal matrices; the energies are those
    of the hot and cold marginal Hamiltonians at each level of the product
    basis, in its flat order.  A trial builds them once for both states.
    """
    shape = (catalyst_dim, hamiltonian_hot.dimension, hamiltonian_cold.dimension)
    thermal_hot = np.diag(gibbs_populations(hamiltonian_hot, beta.beta_h)).astype(complex)
    thermal_cold = np.diag(gibbs_populations(hamiltonian_cold, beta.beta_c)).astype(complex)
    hot_energy = np.broadcast_to(hamiltonian_hot.energies()[:, None], shape).reshape(-1)
    cold_energy = np.broadcast_to(hamiltonian_cold.energies(), shape).reshape(-1)
    return thermal_hot, thermal_cold, hot_energy, cold_energy


def _full_initial_state(
    rho_catalyst: np.ndarray, thermal_hot: np.ndarray, thermal_cold: np.ndarray
) -> np.ndarray:
    return _kron(_kron(rho_catalyst, thermal_hot), thermal_cold)


def _evaluate_stroke(
    rho_catalyst: np.ndarray,
    unitary: np.ndarray,
    baths: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> tuple[float, float, float]:
    """(Q_h, Q_c, catalyst-marginal residual) of one work stroke U acting on
    rho_s x tau_h x tau_c, with `baths` from _bath_factors.

    Only the diagonal of the final state enters the heats, since the marginal
    Hamiltonians are diagonal in the product basis.
    """
    thermal_hot, thermal_cold, hot_energy, cold_energy = baths
    initial = _full_initial_state(rho_catalyst, thermal_hot, thermal_cold)
    final = unitary @ initial @ unitary.conj().T
    shift = np.diag(initial - final).real
    d_s = rho_catalyst.shape[0]
    residual = np.abs(catalyst_marginal_matrix(final, d_s) - rho_catalyst).max()
    return float(hot_energy @ shift), float(cold_energy @ shift), float(residual)


def _phase_fixed_descending_eigenbasis(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues descending; each eigenvector's first sizable component made
    real positive so the basis is deterministic up to degeneracies."""
    values, vectors = np.linalg.eigh(rho)
    order = np.argsort(values, kind="stable")[::-1]
    values = values[order]
    vectors = vectors[:, order]
    for column in range(vectors.shape[1]):
        col = vectors[:, column]
        pivot = np.flatnonzero(np.abs(col) > 1e-12)
        if pivot.size:
            phase = col[pivot[0]] / abs(col[pivot[0]])
            vectors[:, column] = col / phase
    return values, vectors


def decohere_catalyst_construction(
    rho_catalyst: np.ndarray,
    unitary: np.ndarray,
    hamiltonian_hot: Spectrum,
    hamiltonian_cold: Spectrum,
    beta: InverseTemperaturePair,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Heats of an engine and of its decohered-catalyst counterpart.

    The counterpart replaces rho_s by its (descending) eigenvalue diagonal
    and conjugates the stroke unitary by the diagonalising rotation on the
    catalyst factor.  Returns ((Q_h, Q_c), (rotated Q_h, rotated Q_c)) and
    raises CoherenceCheckError if they disagree beyond 1e-10, or if the
    original stroke preserved the catalyst but the rotated one does not.
    """
    return _decohere(rho_catalyst, unitary, hamiltonian_hot, hamiltonian_cold, beta)[:2]


def _decohere(
    rho_catalyst: np.ndarray,
    unitary: np.ndarray,
    hamiltonian_hot: Spectrum,
    hamiltonian_cold: Spectrum,
    beta: InverseTemperaturePair,
) -> tuple[tuple[float, float], tuple[float, float], float]:
    """decohere_catalyst_construction plus the original stroke's
    catalyst-marginal residual."""
    rho_catalyst = _check_density(rho_catalyst, "catalyst state")
    d_s = rho_catalyst.shape[0]
    dim = d_s * hamiltonian_hot.dimension * hamiltonian_cold.dimension
    unitary = _check_unitary(unitary, "stroke unitary")
    if unitary.shape[0] != dim:
        raise ValueError("unitary does not match the working-body dimension")

    values, rotation = _phase_fixed_descending_eigenbasis(rho_catalyst)
    rotation_full = _kron(
        rotation, np.eye(hamiltonian_hot.dimension * hamiltonian_cold.dimension)
    )
    rho_rotated = np.diag(np.clip(values, 0.0, None)).astype(complex)
    unitary_rotated = rotation_full.conj().T @ unitary @ rotation_full

    baths = _bath_factors(d_s, hamiltonian_hot, hamiltonian_cold, beta)
    heat_h, heat_c, residual = _evaluate_stroke(rho_catalyst, unitary, baths)
    rot_h, rot_c, residual_rot = _evaluate_stroke(rho_rotated, unitary_rotated, baths)
    mismatch = max(abs(heat_h - rot_h), abs(heat_c - rot_c))
    if mismatch > HEAT_MATCH_TOL:
        raise CoherenceCheckError(f"decohered engine heats differ by {mismatch:.3e}")
    if residual <= CYCLICITY_MATCH_TOL and residual_rot > CYCLICITY_MATCH_TOL:
        raise CoherenceCheckError(
            f"cyclicity did not transfer: residual {residual_rot:.3e}"
        )
    return (heat_h, heat_c), (rot_h, rot_c), residual


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase normalisation."""
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (normalised Wishart)."""
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = ginibre @ ginibre.conj().T
    return rho / np.trace(rho).real


CYCLIC_FAMILIES = ("hc_local", "block_rotation", "ladder")


def random_cyclic_engine(
    catalyst_dim: int,
    hamiltonian_hot: Spectrum,
    hamiltonian_cold: Spectrum,
    beta: InverseTemperaturePair,
    rng: np.random.Generator,
    family: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A random (rho_s, U) pair whose stroke preserves the catalyst exactly.

    hc_local: U acts on the hot/cold factors only, rho_s arbitrary.
    block_rotation: in the eigenbasis of rho_s, U is block diagonal over
        catalyst levels with an independent random unitary per block.
    ladder: a simple permutation with its solved catalyst populations,
        conjugated into a random catalyst eigenbasis (qubit factors only).

    None of these families exhausts the catalyst-preserving unitaries; they
    are test generators with the preservation property by construction.
    """
    rest = hamiltonian_hot.dimension * hamiltonian_cold.dimension
    if family is None:
        choices = list(CYCLIC_FAMILIES)
        if rest != 4:
            choices.remove("ladder")
        family = choices[rng.integers(len(choices))]
    if family == "hc_local":
        rho = random_density(catalyst_dim, rng)
        stroke = _kron(np.eye(catalyst_dim), random_unitary(rest, rng))
        return rho, stroke
    basis = random_unitary(catalyst_dim, rng)
    basis_full = _kron(basis, np.eye(rest))
    if family == "block_rotation":
        weights = rng.dirichlet(np.ones(catalyst_dim))
        blocks = [random_unitary(rest, rng) for _ in range(catalyst_dim)]
        block_diag = np.zeros((catalyst_dim * rest, catalyst_dim * rest), dtype=complex)
        for i, block in enumerate(blocks):
            block_diag[i * rest : (i + 1) * rest, i * rest : (i + 1) * rest] = block
        rho = basis @ np.diag(weights).astype(complex) @ basis.conj().T
        stroke = basis_full @ block_diag @ basis_full.conj().T
        return rho, stroke
    if family == "ladder":
        if rest != 4:
            raise ValueError("ladder engines need qubit hot/cold factors")
        n = int(rng.integers(1, catalyst_dim + 1))
        shape = SimplePermSpec(catalyst_dim - n, n)
        boltz_hot = math.exp(-beta.beta_h * hamiltonian_hot.levels[1])
        boltz_cold = math.exp(-beta.beta_c * hamiltonian_cold.levels[1])
        catalyst = solve_catalyst_state(shape, boltz_hot, boltz_cold)
        rho = basis @ np.diag(catalyst.populations).astype(complex) @ basis.conj().T
        stroke = basis_full @ build_simple_perm(shape).matrix().astype(complex) @ basis_full.conj().T
        return rho, stroke
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class CoherenceSuiteResult:
    trials: int
    max_heat_mismatch: float
    max_cyclicity_residual: float


def run_coherence_suite(
    trials: int = 200,
    seed: int = 0,
    catalyst_dims: tuple[int, ...] = (2, 3),
) -> CoherenceSuiteResult:
    """Randomised check that decohering the catalyst never changes the heats.

    Each trial draws qubit spectra, bath temperatures and a cyclic engine,
    runs the decoherence construction, and tracks the largest heat mismatch
    and catalyst-marginal residual seen.  Raises CoherenceCheckError on any
    violation beyond tolerance, and GuardExceededError (exit 4) before the
    first draw when a catalyst dimension it will draw exceeds
    MAX_SUITE_CATALYST_DIM.
    """
    largest = max(catalyst_dims[: int(trials)], default=0)
    if largest > MAX_SUITE_CATALYST_DIM:
        raise GuardExceededError(
            f"catalyst dimension {largest} exceeds the cap {MAX_SUITE_CATALYST_DIM}"
        )
    rng = np.random.default_rng(seed)
    worst_mismatch = 0.0
    worst_residual = 0.0
    for trial in range(int(trials)):
        catalyst_dim = int(catalyst_dims[trial % len(catalyst_dims)])
        hot = Spectrum.qubit(float(rng.uniform(0.5, 2.0)))
        cold = Spectrum.qubit(float(rng.uniform(0.2, 1.5)))
        beta_h = float(rng.uniform(0.2, 1.0))
        beta = InverseTemperaturePair(beta_h, beta_h + float(rng.uniform(0.2, 2.0)))
        rho, stroke = random_cyclic_engine(catalyst_dim, hot, cold, beta, rng)
        original, rotated, residual = _decohere(rho, stroke, hot, cold, beta)
        mismatch = max(abs(original[0] - rotated[0]), abs(original[1] - rotated[1]))
        worst_mismatch = max(worst_mismatch, mismatch)
        worst_residual = max(worst_residual, residual)
    return CoherenceSuiteResult(int(trials), worst_mismatch, worst_residual)
