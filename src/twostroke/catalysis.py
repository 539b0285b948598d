"""Catalyst-assisted strokes built from simple permutations.

A simple permutation on a (d-block catalyst) x (hot qubit) x (cold qubit)
working body exchanges exactly two levels per catalyst block, one swap with
the next block and one with the previous block (cyclically).  Preserving the
catalyst then forces the same net population transfer through every block,
which makes the whole stroke solvable in closed form: with m swaps dropping a
hot excitation to the ground pair and n swaps converting a hot excitation
into a cold one, the heats are

    Q_h = (m + n) * omega_h * transfer,     Q_c = -n * omega_c * transfer,

so the efficiency is 1 - n*omega_c/((m+n)*omega_h) regardless of the
transfer's size.  The transfer itself follows from the block flow-balance
equations.  Each is a two-term recurrence between neighbouring blocks, so
one O(d) pass over the blocks, closed by a 2x2 system, solves them for a
whole array of parameter points at once; `delta_p_closed_form` gives the
same transfer in closed form away from its poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegeneratePointError,
    GuardExceededError,
    InfeasibleCatalystError,
    NoEngineRegimeError,
)
from .permutations import PermutationMap, ergotropy
from .thermo import (
    ENGINE,
    MODE_TOL,
    CycleReport,
    InverseTemperaturePair,
    PopulationVector,
    Spectrum,
    combined_spectrum,
    gibbs_populations,
)

NEGATIVE_POPULATION_TOL = 1e-12
MAX_REGIME_CATALYST_DIM = 64


@dataclass(frozen=True)
class SimplePermSpec:
    """Shape of a simple permutation.

    m counts the swaps that drop a hot excitation straight to the next
    block's ground pair, n the swaps that convert a hot excitation into a
    cold one; the catalyst dimension is d = m + n.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "n", int(self.n))
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def d(self) -> int:
        return self.m + self.n


@dataclass(frozen=True, eq=False)
class CatalystState:
    """Catalyst populations preserved by a simple permutation.

    `delta_p` is the uniform net population transfer from each block to the
    next; it is the single number the heats are proportional to.
    """

    populations: np.ndarray
    delta_p: float

    def __post_init__(self) -> None:
        pops = np.asarray(self.populations, dtype=float).copy()
        pops.setflags(write=False)
        object.__setattr__(self, "populations", pops)
        object.__setattr__(self, "delta_p", float(self.delta_p))


@dataclass(frozen=True)
class FlowAccount:
    """Net population leaving the excited hot / excited cold subspaces."""

    hot_flow: float
    cold_flow: float


def _level(block: int, hot: int, cold: int) -> int:
    """Flat index of |block, hot, cold> with 1-based block labels."""
    return 4 * (block - 1) + 2 * hot + cold


def build_simple_perm(shape: SimplePermSpec) -> PermutationMap:
    """The simple permutation with m ground-dropping and n cold-raising swaps.

    Blocks 1..m swap their hot-excited level with the next block's ground
    level; blocks m+1..m+n-1 swap it with the next block's cold-excited
    level; the last block wraps around to the first.  Built from disjoint
    transpositions, so the result is an involution.
    """
    d = shape.d
    if 4 * d > 2**22:
        raise GuardExceededError(f"catalyst dimension {d} too large to materialise")
    image = list(range(4 * d))

    def swap(x: int, y: int) -> None:
        image[x], image[y] = image[y], image[x]

    for i in range(1, shape.m + 1):
        swap(_level(i, 1, 0), _level(i + 1, 0, 0))
    for j in range(shape.m + 1, d):
        swap(_level(j, 1, 0), _level(j + 1, 0, 1))
    swap(_level(d, 1, 0), _level(1, 0, 1))
    return PermutationMap(tuple(image))


def subspace_flows(initial: PopulationVector, final: PopulationVector) -> FlowAccount:
    """Net population flow out of the excited hot and cold subspaces.

    For qubit hot/cold factors each heat is this flow times the level
    spacing, which is what makes simple permutations analysable by counting
    arrows instead of energies.
    """
    if initial.basis_shape != final.basis_shape:
        raise ValueError("basis shapes differ")
    _, d_h, d_c = initial.basis_shape
    if d_h != 2 or d_c != 2:
        raise ValueError("subspace flows are defined for qubit hot/cold factors")
    diff = initial.grid() - final.grid()
    return FlowAccount(float(diff[:, 1, :].sum()), float(diff[:, :, 1].sum()))


def _check_boltzmann(value: float, name: str) -> float:
    value = float(value)
    if not (0.0 < value < 1.0) or not math.isfinite(value):
        raise ValueError(f"{name} must lie strictly between 0 and 1")
    return value


def _solve_flow_balance(
    shape: SimplePermSpec, boltz_hot: np.ndarray, boltz_cold: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Catalyst populations and block transfer at each point of two 1-d
    Boltzmann-factor arrays.

    With N = 1/((1 + bh)(1 + bc)) block k balances N*bh*p_k - N*x*p_{k+1} =
    transfer (p_d = p_0), with x = 1 for the m ground-dropping blocks and
    x = bc for the n cold-raising ones.  These two-term recurrences give every
    population as a_k*p_0 + c_k*v, v = transfer/(N*max(bh, bc)); the balance
    they leave out and the normalisation fix (p_0, v) by Cramer's rule.  The
    hot segment runs forward from p_0 in powers of bh; the cold segment runs
    backward from p_0 in powers of bc/bh when bc <= bh and forward from p_m in
    powers of bh/bc otherwise, so no power or partial sum grows.

    Returns unclipped (populations (count, d), transfer, feasible); feasible
    means finite with no population below -NEGATIVE_POPULATION_TOL.
    """
    bh = np.asarray(boltz_hot, dtype=float)[:, None]
    bc = np.asarray(boltz_cold, dtype=float)[:, None]
    m, n = shape.m, shape.n
    top = np.maximum(bh, bc)
    backward = bc <= bh
    zero = np.zeros(bh.shape)  # cumsums from a leading 0 sum the powers below k (j)
    # hot segment, blocks 0..m: p_k = bh^k p_0 - top*S_k v
    hot_a = bh ** np.arange(m + 1)
    hot_c = -top * np.cumsum(np.concatenate([zero, hot_a[:, :-1]], axis=1), axis=1)
    # cold segment, j = 0..n steps: backward p_{d-j} = r^j p_0 + R_j v,
    # forward p_{m+j} = r^j p_m - R_j v
    cold_pow = (np.minimum(bh, bc) / top) ** np.arange(n + 1)
    cold_sum = np.cumsum(np.concatenate([zero, cold_pow[:, :-1]], axis=1), axis=1)
    fwd_a = cold_pow * hot_a[:, -1:]
    fwd_c = cold_pow * hot_c[:, -1:] - cold_sum
    a = np.concatenate(
        [hot_a, np.where(backward, cold_pow[:, n - 1 : 0 : -1], fwd_a[:, 1:n])], axis=1
    )
    c = np.concatenate(
        [hot_c, np.where(backward, cold_sum[:, n - 1 : 0 : -1], fwd_c[:, 1:n])], axis=1
    )
    # the left-out balance: p_m from both segments (backward), p_d = p_0 (forward)
    close_a = np.where(backward, hot_a[:, -1:] - cold_pow[:, -1:], fwd_a[:, -1:] - 1.0)
    close_c = np.where(backward, hot_c[:, -1:] - cold_sum[:, -1:], fwd_c[:, -1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = close_a * c.sum(axis=1, keepdims=True) - close_c * a.sum(axis=1, keepdims=True)
        p_0 = -close_c / det
        v = close_a / det
        pops = a * p_0 + c * v
        transfer = (v * top / ((1.0 + bh) * (1.0 + bc)))[:, 0]
    # det == 0 leaves p_0 = pops[:, 0] non-finite, so finite pops imply a finite transfer
    feasible = np.isfinite(pops).all(axis=1) & (pops.min(axis=1) >= -NEGATIVE_POPULATION_TOL)
    return pops, transfer, feasible


def solve_catalyst_state(
    shape: SimplePermSpec, boltz_hot: float, boltz_cold: float
) -> CatalystState:
    """Catalyst state preserved by the simple permutation, from its flow
    balance equations.

    `boltz_hot`/`boltz_cold` are the excited-level Boltzmann factors
    exp(-beta*omega) of the hot and cold qubits.  Populations more negative
    than 1e-12 mean no valid catalyst exists for these parameters and raise
    InfeasibleCatalystError; tinier negatives are clipped to zero.
    """
    bh = _check_boltzmann(boltz_hot, "boltz_hot")
    bc = _check_boltzmann(boltz_cold, "boltz_cold")
    (pops,), (transfer,), (feasible,) = _solve_flow_balance(
        shape, np.array([bh]), np.array([bc])
    )
    if not feasible:
        if not np.isfinite(pops).all():
            raise ValueError("singular flow system")
        raise InfeasibleCatalystError(
            f"infeasible catalyst: solved population {pops.min():.3e} is negative"
        )
    return CatalystState(np.clip(pops, 0.0, None), transfer)


def delta_p_closed_form(
    shape: SimplePermSpec, boltz_hot: float, boltz_cold: float
) -> float:
    """Per-block transfer in closed form.

    The expression has poles at boltz_hot == boltz_cold and boltz_hot == 1;
    those points are refused and callers are directed to the linear solver,
    which has no pole there.
    """
    ah = _check_boltzmann(boltz_hot, "boltz_hot")
    ac = _check_boltzmann(boltz_cold, "boltz_cold")
    if abs(ah - ac) < 1e-13 or abs(1.0 - ah) < 1e-13:
        raise DegeneratePointError("use linear solver at degenerate point")
    m, n = shape.m, shape.n
    norm = 1.0 / ((1.0 + ah) * (1.0 + ac))
    numerator = ah * (1.0 - ac) ** 2 * (1.0 - ah**m) * (ah**n - ac**n) + (
        ah ** (m + n) - ac**n
    ) * (ah - ac) * (1.0 - ah) * (n * (1.0 - ah) - m * (ah - ac))
    scale = numerator / ((ah - ac) ** 2 * (1.0 - ah) ** 2)
    if scale == 0.0:
        raise DegeneratePointError("use linear solver at degenerate point")
    return norm * (ah ** (m + n) - ac**n) / scale


def _rational_efficiency(shape: SimplePermSpec, omega_h: float, omega_c: float) -> float:
    eta = 1 - Fraction(shape.n) * Fraction(float(omega_c)) / (
        Fraction(shape.d) * Fraction(float(omega_h))
    )
    return float(eta)


def simple_perm_report(
    shape: SimplePermSpec,
    omega_h: float,
    omega_c: float,
    beta: InverseTemperaturePair,
) -> tuple[CycleReport, CatalystState]:
    """Stroke accounting for a simple permutation with its solved catalyst.

    Negative work is reported, not an error.  The efficiency, when defined,
    is evaluated in exact rational arithmetic as 1 - n*omega_c/(d*omega_h)
    before conversion to float, so rational inputs give exact outputs; it is
    reported whenever the block transfer is nonzero, even at deep-cold
    parameters where the heats themselves are astronomically small.
    """
    omega_h = float(omega_h)
    omega_c = float(omega_c)
    if not (omega_h > 0.0 and omega_c > 0.0):
        raise ValueError("level spacings must be positive")
    boltz_hot = math.exp(-beta.beta_h * omega_h)
    boltz_cold = math.exp(-beta.beta_c * omega_c)
    catalyst = solve_catalyst_state(shape, boltz_hot, boltz_cold)
    heat_hot = shape.d * omega_h * catalyst.delta_p
    heat_cold = -shape.n * omega_c * catalyst.delta_p
    efficiency = None
    if catalyst.delta_p != 0.0:
        efficiency = _rational_efficiency(shape, omega_h, omega_c)
    report = CycleReport.from_heats(heat_hot, heat_cold, efficiency=efficiency)
    return report, catalyst


def sweep_simple_perms(
    catalyst_dim: int,
    omega_h: float,
    omega_c: float,
    beta: InverseTemperaturePair,
) -> list[tuple[SimplePermSpec, CycleReport, CatalystState]]:
    """Reports for every (m, n) split of a d-block catalyst, increasing n.

    Splits whose flow equations admit no nonnegative catalyst are skipped.
    """
    out = []
    for n in range(1, int(catalyst_dim) + 1):
        shape = SimplePermSpec(int(catalyst_dim) - n, n)
        try:
            report, catalyst = simple_perm_report(shape, omega_h, omega_c, beta)
        except InfeasibleCatalystError:
            continue
        out.append((shape, report, catalyst))
    return out


def optimal_simple_perm_efficiency(
    catalyst_dim: int,
    omega_h: float,
    omega_c: float,
    beta: InverseTemperaturePair,
) -> float:
    """Best engine efficiency over simple permutations of a d-block catalyst.

    Requires omega_c/omega_h <= d <= beta_c*omega_c/(beta_h*omega_h), the
    window in which the single-cold-swap ladder runs below the Carnot bound;
    the optimum is then 1 - omega_c/(d*omega_h), verified here against the
    full (m, n) sweep.
    """
    d = int(catalyst_dim)
    lower = omega_c / omega_h
    upper = beta.beta_c * omega_c / (beta.beta_h * omega_h)
    if not (lower <= d <= upper):
        raise ValueError(
            f"catalyst dimension {d} outside the admissible window "
            f"[{lower:.6g}, {upper:.6g}]"
        )
    best = _rational_efficiency(SimplePermSpec(d - 1, 1), omega_h, omega_c)
    swept = [
        report.efficiency
        for _, report, _ in sweep_simple_perms(d, omega_h, omega_c, beta)
        if ENGINE in report.modes and report.efficiency is not None
    ]
    if swept and abs(max(swept) - best) > 1e-10:
        raise RuntimeError(
            "sweep maximum disagrees with the closed-form optimum; "
            f"{max(swept)!r} vs {best!r}"
        )
    return best


def feasible_quality(
    omega_h: float,
    omega_c: float,
    beta: InverseTemperaturePair,
    max_dim: int = MAX_REGIME_CATALYST_DIM,
) -> SimplePermSpec:
    """A (d, n) split whose simple permutation runs as an engine here.

    An engine-mode split exists whenever beta_c*omega_c > beta_h*omega_h;
    d/n must land strictly between max(1, omega_c/omega_h) and
    beta_c*omega_c/(beta_h*omega_h), so the midpoint of that interval is
    approximated by continued fractions until a realisation with d <= max_dim
    verifies as an engine.
    """
    low = max(1.0, omega_c / omega_h)
    high = beta.beta_c * omega_c / (beta.beta_h * omega_h)
    if not high > low:
        raise NoEngineRegimeError(
            f"no engine regime: d/n window ({low:.6g}, {high:.6g}) is empty"
        )
    target = Fraction((low + high) / 2.0)
    seen: set[Fraction] = set()
    for cap in range(1, max_dim + 1):
        quality = target.limit_denominator(cap)
        if quality in seen:
            continue
        seen.add(quality)
        d, n = quality.numerator, quality.denominator
        if not (low < d / n < high) or d > max_dim or d < n:
            continue
        shape = SimplePermSpec(d - n, n)
        try:
            report, _ = simple_perm_report(shape, omega_h, omega_c, beta)
        except InfeasibleCatalystError:
            continue
        # Strictly inside the window the true work is positive however small
        # (deep-cold parameters push it far below the engine-mode threshold),
        # so the verification is the sign, not the mode label.
        if report.work > 0.0:
            return shape
    raise NoEngineRegimeError(
        f"no engine-mode simple permutation with catalyst dimension <= {max_dim}"
    )


def _as_quality(value) -> Fraction:
    """Coerce a d/n ratio to an exact Fraction.

    Strings keep their decimal meaning ('2.2' -> 11/5); floats go through
    repr for the same reason.  Pass Fractions directly when exactness
    matters.
    """
    if isinstance(value, Fraction):
        quality = value
    elif isinstance(value, str):
        quality = Fraction(value)
    elif isinstance(value, int):
        quality = Fraction(value)
    elif isinstance(value, float):
        quality = Fraction(repr(value))
    else:
        raise TypeError(f"cannot interpret {value!r} as a d/n ratio")
    if quality <= 0:
        raise ValueError("d/n ratios must be positive")
    return quality


@dataclass(frozen=True, eq=False)
class RegimeMap:
    """Region flags over a grid of beta_c/beta_h and omega_c/omega_h values.

    `regions` holds (d_over_n label, region label, flags) entries: carnot,
    otto, then one catalytic entry per requested d/n; each flags array is
    boolean and indexed [beta, freq].
    """

    beta_ratios: np.ndarray
    freq_ratios: np.ndarray
    regions: tuple[tuple[str, str, np.ndarray], ...]


def regime_map(
    qualities: Iterable,
    beta_ratio_range: Sequence[float],
    freq_ratio_range: Sequence[float],
    resolution: int,
) -> RegimeMap:
    """Feasibility grid over the bath-temperature and level-spacing ratios.

    Every grid point carries one flag per region: 'carnot' marks where any
    engine at all can run (beta_c*omega_c > beta_h*omega_h), 'otto' where the
    bare hot-cold swap runs without a catalyst, and one 'catalytic' flag per
    requested d/n where the simple permutation realising that ratio (in
    lowest terms) produces positive work with a valid catalyst.  Grid points
    are evaluated at beta_h = omega_h = 1; feasibility only depends on the
    two plotted ratios.  Range ends must be finite, so every grid value is;
    a non-finite end raises ValueError, which the CLI reports with exit 2.
    """
    resolution = int(resolution)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    beta_lo, beta_hi = (float(v) for v in beta_ratio_range)
    freq_lo, freq_hi = (float(v) for v in freq_ratio_range)
    if not np.isfinite([beta_lo, beta_hi, freq_lo, freq_hi]).all():
        raise ValueError("regime map range ends must be finite")
    if not (1.0 < beta_lo < beta_hi):
        raise ValueError("beta ratio range must satisfy 1 < lo < hi")
    if not (0.0 < freq_lo < freq_hi):
        raise ValueError("freq ratio range must satisfy 0 < lo < hi")
    fractions = [_as_quality(q) for q in qualities]
    if not fractions:
        raise ValueError("at least one d/n ratio is required")
    for quality in fractions:
        if quality.numerator > MAX_REGIME_CATALYST_DIM:
            raise ValueError(
                f"d/n = {quality} needs catalyst dimension {quality.numerator} "
                f"> cap {MAX_REGIME_CATALYST_DIM}"
            )

    beta_ratios = np.linspace(beta_lo, beta_hi, resolution)
    freq_ratios = np.linspace(freq_lo, freq_hi, resolution)
    freq = freq_ratios[None, :]
    exponent_product = beta_ratios[:, None] * freq
    carnot = exponent_product > 1.0
    regions = [("", "carnot", carnot), ("", "otto", (freq < 1.0) & carnot)]

    boltz_hot = np.full(exponent_product.size, math.exp(-1.0))
    boltz_cold = np.exp(-exponent_product).reshape(-1)
    for quality in fractions:
        d, n = quality.numerator, quality.denominator
        flags = np.zeros(exponent_product.shape, dtype=bool)
        if d >= n:
            _, transfer, solvable = _solve_flow_balance(
                SimplePermSpec(d - n, n), boltz_hot, boltz_cold
            )
            transfer = np.where(solvable, transfer, 0.0).reshape(flags.shape)
            work = (d * 1.0 - n * freq) * transfer
            window = (float(quality) > 1.0) & (float(quality) < exponent_product)
            flags = window & (work > MODE_TOL) & solvable.reshape(flags.shape)
        regions.append((f"{d}/{n}", "catalytic", flags))
    return RegimeMap(beta_ratios, freq_ratios, tuple(regions))


def fig_work_vs_cold_swaps(
    catalyst_dim: int,
    hot_exponent: float,
    exponent_ratio: float,
    freq_ratio: float,
) -> list[tuple[int, float, float]]:
    """Work of every (d - n, n) simple permutation next to the best
    non-catalytic work at the same parameters.

    Parameters are dimensionless: omega_h = 1, beta_h = hot_exponent,
    beta_c*omega_c = exponent_ratio * hot_exponent and omega_c = freq_ratio.
    Returns (n, catalytic work, non-catalytic baseline) triples.
    """
    d = int(catalyst_dim)
    if d < 1:
        raise ValueError("catalyst dimension must be at least 1")
    hot_exponent = float(hot_exponent)
    exponent_ratio = float(exponent_ratio)
    freq_ratio = float(freq_ratio)
    if hot_exponent <= 0 or exponent_ratio <= 0 or freq_ratio <= 0:
        raise ValueError("dimensionless parameters must be positive")
    omega_h = 1.0
    omega_c = freq_ratio
    beta_h = hot_exponent
    beta_c = hot_exponent * exponent_ratio / freq_ratio
    if not beta_c > beta_h:
        raise ValueError(
            "exponent_ratio/freq_ratio must exceed 1 so the hot bath is hotter"
        )
    beta = InverseTemperaturePair(beta_h, beta_c)
    hot = gibbs_populations(Spectrum.qubit(omega_h), beta_h)
    cold = gibbs_populations(Spectrum.qubit(omega_c), beta_c)
    baseline = ergotropy(
        np.kron(hot, cold),
        combined_spectrum(
            Spectrum.trivial(1), Spectrum.qubit(omega_h), Spectrum.qubit(omega_c)
        ),
    )
    rows = []
    for n in range(1, d + 1):
        report, _ = simple_perm_report(SimplePermSpec(d - n, n), omega_h, omega_c, beta)
        rows.append((n, report.work, baseline))
    return rows
