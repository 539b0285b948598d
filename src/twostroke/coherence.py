"""Coherence in the catalyst state cannot change engine performance.

Given any engine (rho_s, U) whose work stroke preserves the catalyst, rotate
to the eigenbasis of rho_s: the diagonalised catalyst together with the
conjugated unitary draws exactly the same hot and cold heats, because the
rotation acts on the catalyst factor alone and commutes with the hot and
cold Hamiltonians.  This module performs that construction numerically on
small complex matrices and checks the equality, plus generators for random
engines whose strokes provably preserve the catalyst.

The suite runs its trials a chunk at a time, which bounds its memory.  It
draws every trial's numbers in generator order, builds the engines of each
family and size on one stack (one QR for all their catalyst bases, one for
all their hot-cold blocks), and decoheres each size's engines together: one
eigendecomposition per catalyst, then one evaluation pass over the original
states and strokes and one over the decohered states and rotated strokes.
The one-engine functions are the one-trial case of the same kernels, and
every stacked numpy call computes each matrix as the one-matrix call would,
so the suite's results do not depend on how its trials are chunked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .catalysis import SimplePermSpec, _qubit_boltzmann, build_simple_perm, solve_catalyst_state
from .errors import CoherenceCheckError, GuardExceededError
from .thermo import InverseTemperaturePair, Spectrum, _kron, gibbs_populations

UNITARY_TOL = 1e-10
DENSITY_TOL = 1e-10
TRACE_TOL = 1e-12
HEAT_MATCH_TOL = 1e-10
CYCLICITY_MATCH_TOL = 1e-10
# dense (4d)^2 complex matrices: at 128 a trial takes ~0.15 s and peaks at ~26 MB traced
MAX_SUITE_CATALYST_DIM = 128
# (4d)^2 stroke-matrix entries a chunk holds over its original and rotated
# strokes: about 20 trials at d = 2 or 3, one trial a chunk from d = 11 on
_CHUNK_ENTRIES = 2**12


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """The diagonal of each matrix of a C-contiguous stack, as a writable view."""
    n = stack.shape[-1]
    return stack.reshape(*stack.shape[:-2], n * n)[..., :: n + 1]


def _diagonal_matrices(values: np.ndarray) -> np.ndarray:
    """Complex diagonal matrices with the given (..., n) diagonals."""
    out = np.zeros((*values.shape, values.shape[-1]), dtype=complex)
    _diagonal(out)[...] = values
    return out


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _square(matrix: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square")
    return m


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
    """Partial trace over the hot and cold factors, of one state or of each
    state of a stack."""
    total = rho.shape[-1]
    rest = total // catalyst_dim
    reshaped = rho.reshape(*rho.shape[:-2], catalyst_dim, rest, catalyst_dim, rest)
    return np.einsum("...ikjk->...ij", reshaped)


def _bath_factors(
    catalyst_dim: int, engines: list[tuple[Spectrum, Spectrum, InverseTemperaturePair]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(p_h, p_c, hot energies, cold energies), one row per engine.

    p_h and p_c are the Gibbs populations of the hot and cold factors; the
    energies are those of the hot and cold marginal Hamiltonians at each
    level of the product basis of rho_s x tau_h x tau_c, in its flat order.
    An engine's original and decohered states share its row.
    """
    hot_populations = np.array([gibbs_populations(h, beta.beta_h) for h, _, beta in engines])
    cold_populations = np.array([gibbs_populations(c, beta.beta_c) for _, c, beta in engines])
    hot_levels = np.array([h.levels for h, _, _ in engines])
    cold_levels = np.array([c.levels for _, c, _ in engines])
    shape = (len(engines), catalyst_dim, hot_levels.shape[1], cold_levels.shape[1])
    hot_energy, cold_energy = np.empty(shape), np.empty(shape)
    hot_energy[...] = hot_levels[:, None, :, None]
    cold_energy[...] = cold_levels[:, None, None, :]
    return (
        hot_populations,
        cold_populations,
        hot_energy.reshape(len(engines), -1),
        cold_energy.reshape(len(engines), -1),
    )


def _full_initial_state(
    rho_catalyst: np.ndarray, populations_hot: np.ndarray, populations_cold: np.ndarray
) -> np.ndarray:
    """rho_s x tau_h x tau_c for a stack of catalyst states, each with its own
    Gibbs populations."""
    thermal_hot = _diagonal_matrices(populations_hot)
    thermal_cold = _diagonal_matrices(populations_cold)
    return _kron(_kron(rho_catalyst, thermal_hot), thermal_cold)


def _evaluate_strokes(
    rho_catalyst: np.ndarray,
    unitary: np.ndarray,
    baths: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q_h, Q_c, catalyst-marginal residual) of each work stroke U acting on
    rho_s x tau_h x tau_c, for stacks of states with `baths` rows from
    _bath_factors.

    Only the diagonal of the final state enters the heats, since the marginal
    Hamiltonians are diagonal in the product basis.  Each heat is one dot
    product per state, as the one-state evaluation takes it.
    """
    populations_hot, populations_cold, hot_energy, cold_energy = baths
    initial = _full_initial_state(rho_catalyst, populations_hot, populations_cold)
    final = unitary @ initial @ _adjoint(unitary)
    shift = (_diagonal(initial) - _diagonal(final)).real[..., None]
    residual = np.abs(
        catalyst_marginal_matrix(final, rho_catalyst.shape[-1]) - rho_catalyst
    ).max(axis=(-2, -1))
    heat_hot = (hot_energy[:, None, :] @ shift)[:, 0, 0]
    heat_cold = (cold_energy[:, None, :] @ shift)[:, 0, 0]
    return heat_hot, heat_cold, residual


def _phase_fixed_descending_eigenbasis(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues descending; each eigenvector's first sizable component made
    real positive so the basis is deterministic up to degeneracies.  Acts on a
    (T, d, d) stack of Hermitian matrices.

    Eigenvectors have unit norm, so every one has a sizable component.  Its
    phase is taken as c / hypot(Re c, Im c), which is what the scalar
    c / abs(c) computes; numpy's array abs of a complex can round differently.
    """
    values, vectors = np.linalg.eigh(rho)  # ascending
    values, vectors = values[:, ::-1], vectors[:, :, ::-1]
    count, d = values.shape
    first = (np.abs(vectors) > 1e-12).argmax(axis=1)
    pivot = vectors[np.arange(count)[:, None], first, np.arange(d)][:, None, :]
    return values, vectors / (pivot / np.hypot(pivot.real, pivot.imag))


def _unitary_defect(unitary: np.ndarray) -> np.ndarray:
    """max |U U^dagger - 1| of each matrix of a stack."""
    product = unitary @ _adjoint(unitary)
    _diagonal(product)[...] -= 1.0
    return np.abs(product).max(axis=(-2, -1))


def _rotate(unitary: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """R^dagger U R for R = rotation x 1 on the hot and cold factors."""
    rotation_full = _kron(rotation, np.eye(unitary.shape[-1] // rotation.shape[-1]))
    return _adjoint(rotation_full) @ unitary @ rotation_full


def _decohere_stack(
    rho_catalyst: np.ndarray,
    unitary: np.ndarray,
    engines: list[tuple[Spectrum, Spectrum, InverseTemperaturePair]],
) -> list:
    """Decohere a stack of engines that share their catalyst and hot-cold sizes.

    `engines` holds each engine's (hot Hamiltonian, cold Hamiltonian, beta).
    Returns, per engine in stack order, either ((Q_h, Q_c), (rotated Q_h,
    rotated Q_c), heat mismatch, catalyst-marginal residual), or the first
    error the engine fails with: the catalyst-state checks, the unitarity
    check, then the two CoherenceCheckErrors, as decohere_catalyst_construction
    raises them.
    """
    catalyst_dim = rho_catalyst.shape[1]
    hermitian_defect = np.abs(rho_catalyst - _adjoint(rho_catalyst)).max(axis=(-2, -1))
    trace = np.trace(rho_catalyst, axis1=-2, axis2=-1)
    values, rotation = _phase_fixed_descending_eigenbasis(rho_catalyst)
    unitary_defect = _unitary_defect(unitary)
    baths = _bath_factors(catalyst_dim, engines)
    original = _evaluate_strokes(rho_catalyst, unitary, baths)
    decohered = _evaluate_strokes(
        _diagonal_matrices(np.clip(values, 0.0, None)), _rotate(unitary, rotation), baths
    )

    checks = zip(
        hermitian_defect.tolist(),
        trace.tolist(),
        values.min(axis=-1).tolist(),
        unitary_defect.tolist(),
    )
    heats = zip(*(part.tolist() for part in original + decohered))
    outcomes = []
    for (defect, tr, low, u_defect), (hot, cold, residual, hot_r, cold_r, residual_r) in zip(
        checks, heats
    ):
        mismatch = max(abs(hot - hot_r), abs(cold - cold_r))
        if defect > DENSITY_TOL:
            outcome = ValueError("catalyst state is not Hermitian")
        elif abs(tr.real - 1.0) > TRACE_TOL or abs(tr.imag) > TRACE_TOL:
            outcome = ValueError("catalyst state must have unit trace")
        elif low < -DENSITY_TOL:
            outcome = ValueError(f"catalyst state is not positive semidefinite ({low:.3e})")
        elif u_defect > UNITARY_TOL:
            outcome = ValueError(f"stroke unitary is not unitary (defect {u_defect:.3e})")
        elif mismatch > HEAT_MATCH_TOL:
            outcome = CoherenceCheckError(f"decohered engine heats differ by {mismatch:.3e}")
        elif residual <= CYCLICITY_MATCH_TOL and residual_r > CYCLICITY_MATCH_TOL:
            outcome = CoherenceCheckError(f"cyclicity did not transfer: residual {residual_r:.3e}")
        else:
            outcome = ((hot, cold), (hot_r, cold_r), mismatch, residual)
        outcomes.append(outcome)
    return outcomes


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
    rho = _square(rho_catalyst, "catalyst state")
    unitary = _square(unitary, "stroke unitary")
    if unitary.shape[0] != rho.shape[0] * hamiltonian_hot.dimension * hamiltonian_cold.dimension:
        raise ValueError("unitary does not match the working-body dimension")
    (outcome,) = _decohere_stack(
        rho[None], unitary[None], [(hamiltonian_hot, hamiltonian_cold, beta)]
    )
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[:2]


def _haar_unitaries(parts: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (k, 2, n, n) stack of Ginibre parts, the real part
    before the imaginary one: one stacked QR, then each R's diagonal phases
    moved into Q (Mezzadri, "How to generate random matrices from the
    classical compact groups", Notices AMS 54, 2007).
    """
    q, r = np.linalg.qr(parts[:, 0] + 1j * parts[:, 1])
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    # LAPACK's Householder QR leaves R with a real diagonal, so each entry
    # of Q times a phase is one rounded real product, in any kernel
    return q * (diagonal / np.abs(diagonal)).conj()[:, None, :]


def _wishart(parts: np.ndarray) -> np.ndarray:
    """Normalised Wishart states G G^dagger / tr from (k, 2, d, d) Ginibre parts."""
    ginibre = parts[:, 0] + 1j * parts[:, 1]
    rho = ginibre @ _adjoint(ginibre)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase normalisation."""
    return _haar_unitaries(rng.normal(size=(1, 2, dim, dim)))[0]


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (normalised Wishart)."""
    return _wishart(rng.normal(size=(1, 2, dim, dim)))[0]


CYCLIC_FAMILIES = ("hc_local", "block_rotation", "ladder")


class _EngineDraw(NamedTuple):
    """One engine's random numbers, before any matrix is built.

    `catalyst` holds the Ginibre parts of the Wishart state (hc_local) or of
    the catalyst eigenbasis (the other families); `local` those of the
    hot-cold unitaries: one for hc_local, one per catalyst level for
    block_rotation, none for ladder.
    """

    family: str
    catalyst: np.ndarray  # (2, d, d)
    local: np.ndarray  # (k, 2, r, r), r = hot dimension x cold dimension
    spectrum: np.ndarray | None  # catalyst eigenvalues (block_rotation, ladder)
    image: tuple[int, ...] | None  # ladder permutation


def _draw_engine(
    catalyst_dim: int,
    hamiltonian_hot: Spectrum,
    hamiltonian_cold: Spectrum,
    beta: InverseTemperaturePair,
    rng: np.random.Generator,
    family: str | None = None,
) -> _EngineDraw:
    """random_cyclic_engine's draws, in its generator order."""
    rest = hamiltonian_hot.dimension * hamiltonian_cold.dimension
    if family is None:
        choices = list(CYCLIC_FAMILIES)
        if (hamiltonian_hot.dimension, hamiltonian_cold.dimension) != (2, 2):
            choices.remove("ladder")
        family = choices[rng.integers(len(choices))]
    d = catalyst_dim
    if family == "hc_local":
        normals = rng.normal(size=2 * d * d + 2 * rest * rest)
        catalyst, local = normals[: 2 * d * d], normals[2 * d * d :]
        return _EngineDraw(
            family, catalyst.reshape(2, d, d), local.reshape(1, 2, rest, rest), None, None
        )
    catalyst = rng.normal(size=(2, d, d))
    if family == "block_rotation":
        weights = rng.dirichlet(np.ones(d))
        return _EngineDraw(family, catalyst, rng.normal(size=(d, 2, rest, rest)), weights, None)
    if family == "ladder":
        if (hamiltonian_hot.dimension, hamiltonian_cold.dimension) != (2, 2):
            raise ValueError("ladder engines need qubit hot/cold factors")
        n = int(rng.integers(1, catalyst_dim + 1))
        shape = SimplePermSpec(catalyst_dim - n, n)
        boltz = _qubit_boltzmann(hamiltonian_hot.levels[1], hamiltonian_cold.levels[1], beta)
        catalyst_state = solve_catalyst_state(shape, *boltz)
        return _EngineDraw(
            family,
            catalyst,
            np.empty((0, 2, rest, rest)),
            catalyst_state.populations,
            build_simple_perm(shape).image,
        )
    raise ValueError(f"unknown family {family!r}")


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """(T, d*r, d*r) block-diagonal matrices from a (T, d, r, r) stack of blocks."""
    count, d, r = blocks.shape[:3]
    out = np.zeros((count, d, r, d, r), dtype=complex)
    level = np.arange(d)
    out[:, level, :, level, :] = blocks.swapaxes(0, 1)
    return out.reshape(count, d * r, d * r)


def _build_family(family: str, draws: list[_EngineDraw]) -> tuple[np.ndarray, np.ndarray]:
    """(rho_s, U) stacks of engines of one family and one size.

    hc_local: U = 1 x V with V a hot-cold unitary, rho_s Wishart.  The other
    families put rho_s = B diag(s) B^dagger and U = B_f C B_f^dagger, with
    B_f = B x 1 and C block diagonal (block_rotation) or the ladder's
    permutation.  B diag(s) is formed as B * s and B_f P as a column gather:
    both products are exact, so they equal the dense products to the bit.
    All catalyst bases are orthonormalised by one stacked QR, and all
    hot-cold blocks by another.
    """
    count, rest = len(draws), draws[0].local.shape[-1]
    if family != "ladder":
        local = _haar_unitaries(np.concatenate([draw.local for draw in draws]))
    if family == "hc_local":
        rho = _wishart(np.array([draw.catalyst for draw in draws]))
        return rho, _kron(np.eye(rho.shape[-1]), local)
    basis = _haar_unitaries(np.array([draw.catalyst for draw in draws]))
    spectrum = np.array([draw.spectrum for draw in draws])
    rho = (basis * spectrum[:, None, :]) @ _adjoint(basis)
    basis_full = _kron(basis, np.eye(rest))
    if family == "block_rotation":
        spread = basis_full @ _block_diagonal(local.reshape(count, -1, rest, rest))
    else:
        images = np.array([draw.image for draw in draws])
        spread = np.take_along_axis(basis_full, images[:, None, :], axis=-1)
    return rho, spread @ _adjoint(basis_full)


def _build_engines(draws: list[_EngineDraw]) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """(draw indices, rho_s stack, U stack) per catalyst and hot-cold size."""
    groups: dict[tuple, dict[str, list[int]]] = {}
    for i, draw in enumerate(draws):
        size = (draw.catalyst.shape[-1], draw.local.shape[-1])
        groups.setdefault(size, {}).setdefault(draw.family, []).append(i)
    built = []
    for families in groups.values():
        stacks = [
            _build_family(family, [draws[i] for i in members])
            for family, members in families.items()
        ]
        rho, stroke = (np.concatenate(parts) for parts in zip(*stacks))
        built.append((sum(families.values(), []), rho, stroke))
    return built


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
    draw = _draw_engine(catalyst_dim, hamiltonian_hot, hamiltonian_cold, beta, rng, family)
    rho, stroke = _build_family(draw.family, [draw])
    return rho[0], stroke[0]


@dataclass(frozen=True)
class CoherenceSuiteResult:
    trials: int
    max_heat_mismatch: float
    max_cyclicity_residual: float


def _trial_chunks(catalyst_dims):
    """Consecutive runs of the trials' catalyst dimensions whose original and
    rotated strokes hold at most _CHUNK_ENTRIES matrix entries, and at least
    one trial each."""
    chunk, entries = [], 0
    for d in catalyst_dims:
        size = 2 * (4 * d) ** 2
        if chunk and entries + size > _CHUNK_ENTRIES:
            yield chunk
            chunk, entries = [], 0
        chunk.append(d)
        entries += size
    if chunk:
        yield chunk


def _run_trials(catalyst_dims: list[int], rng: np.random.Generator) -> list[tuple[float, float]]:
    """(heat mismatch, catalyst-marginal residual) of each trial of one chunk.

    The trials draw in trial order, and the first trial that fails raises
    its error, as if the trials had run one after the other.
    """
    engines, draws = [], []
    for catalyst_dim in catalyst_dims:
        hot = Spectrum.qubit(float(rng.uniform(0.5, 2.0)))
        cold = Spectrum.qubit(float(rng.uniform(0.2, 1.5)))
        beta_h = float(rng.uniform(0.2, 1.0))
        beta = InverseTemperaturePair(beta_h, beta_h + float(rng.uniform(0.2, 2.0)))
        engines.append((hot, cold, beta))
        draws.append(_draw_engine(catalyst_dim, hot, cold, beta, rng))
    outcomes: list = [None] * len(draws)
    for members, rho, stroke in _build_engines(draws):
        group = _decohere_stack(rho, stroke, [engines[i] for i in members])
        for i, outcome in zip(members, group):
            outcomes[i] = outcome
    results = []
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        results.append(outcome[2:])
    return results


def run_coherence_suite(
    trials: int = 200,
    seed: int = 0,
    catalyst_dims: tuple[int, ...] = (2, 3),
) -> CoherenceSuiteResult:
    """Randomised check that decohering the catalyst never changes the heats.

    Each trial draws qubit spectra, bath temperatures and a cyclic engine,
    runs the decoherence construction, and tracks the largest heat mismatch
    and catalyst-marginal residual seen; trial t uses catalyst dimension
    catalyst_dims[t % len(catalyst_dims)].  Trials run a chunk at a time, so
    memory does not grow with `trials`.  Raises CoherenceCheckError on any
    violation beyond tolerance.  Before the first draw, raises ValueError
    when `trials` is negative or a listed dimension is below 1 (or none is
    listed), and GuardExceededError (exit 4) when a catalyst dimension it
    will draw exceeds MAX_SUITE_CATALYST_DIM.
    """
    trials = int(trials)
    if trials < 0 or min(catalyst_dims, default=0 if trials else 1) < 1:
        raise ValueError(
            f"need trials >= 0 and catalyst dimensions >= 1, got {trials} and {catalyst_dims}"
        )
    largest = max(catalyst_dims[:trials], default=0)
    if largest > MAX_SUITE_CATALYST_DIM:
        raise GuardExceededError(
            f"catalyst dimension {largest} exceeds the cap {MAX_SUITE_CATALYST_DIM}"
        )
    rng = np.random.default_rng(seed)
    worst_mismatch = 0.0
    worst_residual = 0.0
    dims = (int(catalyst_dims[t % len(catalyst_dims)]) for t in range(trials))
    for chunk in _trial_chunks(dims):
        for mismatch, residual in _run_trials(chunk, rng):
            worst_mismatch = max(worst_mismatch, mismatch)
            worst_residual = max(worst_residual, residual)
    return CoherenceSuiteResult(trials, worst_mismatch, worst_residual)
