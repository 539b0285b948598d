"""Core types and first/second-law bookkeeping for two-stroke thermal machines.

The working body is a (catalyst, hot, cold) triple of finite-level systems
whose state is diagonal in the product energy basis, so states are plain
probability vectors.  A work stroke is a population rearrangement that must
preserve the catalyst marginal; the heat stroke is an exact reset of the hot
and cold factors to their Gibbs populations.  Hot (cold) heat is the energy
decrease of the hot (cold) marginal during the work stroke, and work is their
sum, which is the first law for this machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CyclicityError

CONSERVATION_TOL = 1e-12
CYCLICITY_TOL = 1e-9
MODE_TOL = 1e-12

ENGINE = "engine"
COOLER = "cooler"
ACCELERATOR = "accelerator"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class Spectrum:
    """Diagonal energy levels of one subsystem, ground energy pinned to zero."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(float(e) for e in self.levels)
        if len(levels) < 1:
            raise ValueError("a spectrum needs at least one level")
        if not all(math.isfinite(e) for e in levels):
            raise ValueError("spectrum levels must be finite")
        if levels[0] != 0.0:
            raise ValueError("ground energy must be exactly 0")
        object.__setattr__(self, "levels", levels)

    @classmethod
    def qubit(cls, omega: float) -> "Spectrum":
        """Two-level spectrum with excited energy omega."""
        return cls((0.0, float(omega)))

    @classmethod
    def trivial(cls, dimension: int) -> "Spectrum":
        """All-zero spectrum, the conventional catalyst Hamiltonian."""
        return cls((0.0,) * int(dimension))

    @property
    def dimension(self) -> int:
        return len(self.levels)

    def energies(self) -> np.ndarray:
        return np.asarray(self.levels, dtype=float)


@dataclass(frozen=True)
class InverseTemperaturePair:
    """Inverse temperatures of the two baths; the hot bath must be hotter."""

    beta_h: float
    beta_c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta_h", float(self.beta_h))
        object.__setattr__(self, "beta_c", float(self.beta_c))
        if not (self.beta_h > 0.0 and math.isfinite(self.beta_h)):
            raise ValueError("beta_h must be positive and finite")
        if not (self.beta_c > 0.0 and math.isfinite(self.beta_c)):
            raise ValueError("beta_c must be positive and finite")
        if not self.beta_c > self.beta_h:
            raise ValueError("hot bath must be hotter: beta_c > beta_h required")

    @property
    def carnot_efficiency(self) -> float:
        return 1.0 - self.beta_h / self.beta_c


def check_spacings(omega_h: float, omega_c: float) -> None:
    if not (0.0 < omega_h < math.inf and 0.0 < omega_c < math.inf):
        raise ValueError("level spacings must be positive and finite")


def dimensionless_engine(
    bh_wh: float, bc_wc: float, freq_ratio: float
) -> tuple[float, float, InverseTemperaturePair]:
    """(omega_h, omega_c, beta) at omega_h = 1 from beta_h*omega_h,
    beta_c*omega_c and omega_c/omega_h, each positive and finite."""
    bh_wh, bc_wc, freq_ratio = float(bh_wh), float(bc_wc), float(freq_ratio)
    if not all(0.0 < x < math.inf for x in (bh_wh, bc_wc, freq_ratio)):
        raise ValueError("dimensionless parameters must be positive and finite")
    return 1.0, freq_ratio, InverseTemperaturePair(bh_wh, bc_wc / freq_ratio)


def _as_probability_vector(values, name: str) -> np.ndarray:
    p = np.asarray(values, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"{name} must be a one-dimensional probability vector")
    # fsum, unlike numpy's sum, never warns: it raises where the sum meets
    # inf - inf and where finite entries overflow it
    try:
        total = math.fsum(p.tolist())
    except ValueError:
        total = math.nan
    except OverflowError:
        total = math.inf
    # a finite sum has finite entries
    if not math.isfinite(total) and not np.isfinite(p).all():
        raise ValueError(f"{name} has a non-finite entry")
    low = p.min()
    if low < -CONSERVATION_TOL:
        raise ValueError(f"{name} has a negative entry ({low:.3e})")
    if abs(total - 1.0) > CONSERVATION_TOL:
        raise ValueError(f"{name} must sum to 1 (got {float(total)!r})")
    return np.maximum(p, 0.0)  # what np.clip(p, 0.0, None) computes


@dataclass(frozen=True, eq=False)
class PopulationVector:
    """Probability distribution over the product basis |catalyst, hot, cold>.

    Level (i, j, k) sits at flat index i*d_h*d_c + j*d_c + k for a basis
    shape (d_s, d_h, d_c).
    """

    probs: np.ndarray
    basis_shape: tuple[int, int, int]

    def __post_init__(self) -> None:
        shape = tuple(int(d) for d in self.basis_shape)
        if len(shape) != 3 or any(d < 1 for d in shape):
            raise ValueError(f"bad basis shape {shape}")
        probs = _as_probability_vector(self.probs, "populations")
        if probs.size != shape[0] * shape[1] * shape[2]:
            raise ValueError(
                f"population vector of length {probs.size} does not match shape {shape}"
            )
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "basis_shape", shape)

    @property
    def dimension(self) -> int:
        return self.probs.size

    def grid(self) -> np.ndarray:
        return self.probs.reshape(self.basis_shape)

    def catalyst_marginal(self) -> np.ndarray:
        return self.grid().sum(axis=(1, 2))

    def hot_marginal(self) -> np.ndarray:
        return self.grid().sum(axis=(0, 2))

    def cold_marginal(self) -> np.ndarray:
        return self.grid().sum(axis=(0, 1))


def gibbs_populations(spectrum: Spectrum, beta: float) -> np.ndarray:
    """Thermal populations exp(-beta * E_k) / Z.

    The exponent is shifted by its maximum before exponentiating, so the
    weights stay in [0, 1] and never overflow.
    """
    beta = float(beta)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    exponents = -beta * spectrum.energies()
    exponents -= exponents.max()
    weights = np.exp(exponents)
    total = weights.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise OverflowError("beta-energy overflow")
    return weights / total


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors, or of two matrices each of which may
    be a stack of matrices (leading axes broadcast, one product per matrix).

    The same elementwise products, dtype promotion and layout as numpy's
    kron, so the result is bit-identical, but as one broadcast multiply:
    on the few-level states of this package numpy's per-call overhead
    costs several times the arithmetic.
    """
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(
        *product.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    )


def product_state(catalyst, hot, cold) -> PopulationVector:
    """Kronecker product of factor distributions, ordered |catalyst, hot, cold>."""
    cat = _as_probability_vector(catalyst, "catalyst factor")
    h = _as_probability_vector(hot, "hot factor")
    c = _as_probability_vector(cold, "cold factor")
    probs = _kron(_kron(cat, h), c)
    return PopulationVector(probs, (cat.size, h.size, c.size))


def combined_spectrum(catalyst: Spectrum, hot: Spectrum, cold: Spectrum) -> Spectrum:
    """Total diagonal Hamiltonian of the working body in the flat index order."""
    total = (
        catalyst.energies()[:, None, None]
        + hot.energies()[None, :, None]
        + cold.energies()[None, None, :]
    )
    return Spectrum(tuple(total.reshape(-1)))


def is_engine(work):
    """The engine verdict, work > MODE_TOL, for a float or elementwise over an array."""
    return work > MODE_TOL


def cycle_efficiency(heat_hot, heat_cold):
    """1 + Q_c/Q_h, for floats or elementwise over arrays."""
    return 1.0 + heat_cold / heat_hot


def classify_modes(work: float, heat_hot: float, heat_cold: float) -> frozenset[str]:
    """Operating modes of a stroke.

    The definitions overlap on their boundaries (a zero-work stroke drawing
    no heat is both degenerate and an accelerator), so every matching label
    is returned rather than an arbitrary single one.
    """
    modes = set()
    if is_engine(work):
        modes.add(ENGINE)
    if work < -MODE_TOL and heat_cold > MODE_TOL:
        modes.add(COOLER)
    if work <= MODE_TOL and heat_hot >= -MODE_TOL:
        modes.add(ACCELERATOR)
    if abs(work) <= MODE_TOL and abs(heat_hot) <= MODE_TOL and abs(heat_cold) <= MODE_TOL:
        modes.add(DEGENERATE)
    return frozenset(modes)


def clausius_lhs(heat_hot: float, heat_cold: float, beta: InverseTemperaturePair) -> float:
    """Left-hand side of the Clausius inequality, beta_h*Q_h + beta_c*Q_c.

    Any stroke produced by a bistochastic rearrangement of a Gibbs-product
    state with the catalyst preserved keeps this nonpositive.  This function
    only evaluates it: no CLI path checks the inequality; the tests do.
    """
    return beta.beta_h * heat_hot + beta.beta_c * heat_cold


@dataclass(frozen=True)
class CycleReport:
    """Work, heats, efficiency and operating modes of a single work stroke."""

    work: float
    heat_hot: float
    heat_cold: float
    efficiency: float | None
    modes: frozenset[str]

    @classmethod
    def from_heats(
        cls,
        heat_hot: float,
        heat_cold: float,
        efficiency: float | None = None,
    ) -> "CycleReport":
        """Build a report from the two heats.

        Work is their sum.  Efficiency defaults to 1 + Q_c/Q_h and is absent
        whenever |Q_h| is below tolerance.  A caller may pass an explicitly
        computed efficiency, which is trusted as-is: closed-form strokes can
        know their hot heat is genuinely nonzero even when it sits below the
        absolute zero-detection tolerance (deep-cold parameters push every
        heat to astronomically small scales).
        """
        heat_hot = float(heat_hot)
        heat_cold = float(heat_cold)
        work = heat_hot + heat_cold
        if efficiency is not None:
            efficiency = float(efficiency)
        elif abs(heat_hot) > MODE_TOL:
            efficiency = cycle_efficiency(heat_hot, heat_cold)
        else:
            efficiency = None
        return cls(work, heat_hot, heat_cold, efficiency, classify_modes(work, heat_hot, heat_cold))

    def to_dict(self) -> dict:
        return {
            "work": self.work,
            "heat_hot": self.heat_hot,
            "heat_cold": self.heat_cold,
            "efficiency": self.efficiency,
            "modes": sorted(self.modes),
        }


def stroke_report(
    initial: PopulationVector,
    final: PopulationVector,
    hamiltonian_hot: Spectrum,
    hamiltonian_cold: Spectrum,
    beta: InverseTemperaturePair,
) -> CycleReport:
    """Heat and work accounting for one work stroke.

    Heats are marginal energy decreases of the hot and cold factors, so they
    do not depend on the bath temperatures; `beta` travels with the call for
    the caller's bookkeeping, and nothing here checks Clausius or Carnot.
    The catalyst marginal must agree between `initial` and `final` within
    CYCLICITY_TOL, otherwise the accounting would silently attribute catalyst
    energy to the baths.  No CLI path calls this; the tests do.
    """
    if initial.basis_shape != final.basis_shape:
        raise ValueError(
            f"basis shapes differ: {initial.basis_shape} vs {final.basis_shape}"
        )
    _, d_h, d_c = initial.basis_shape
    if hamiltonian_hot.dimension != d_h:
        raise ValueError("hot spectrum does not match the hot factor dimension")
    if hamiltonian_cold.dimension != d_c:
        raise ValueError("cold spectrum does not match the cold factor dimension")
    drift = float(np.abs(initial.catalyst_marginal() - final.catalyst_marginal()).max())
    if drift > CYCLICITY_TOL:
        raise CyclicityError(f"cyclicity violated: catalyst marginal drifts by {drift:.3e}")
    heat_hot = float(
        hamiltonian_hot.energies() @ (initial.hot_marginal() - final.hot_marginal())
    )
    heat_cold = float(
        hamiltonian_cold.energies() @ (initial.cold_marginal() - final.cold_marginal())
    )
    return CycleReport.from_heats(heat_hot, heat_cold)
