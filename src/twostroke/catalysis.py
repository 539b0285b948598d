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
one table of powers per segment and its prefix sums, each split closed by a
2x2 system, solve them for every (d - n, n) split of one d at one parameter
point in O(d) work, a fixed-size chunk of splits at a time; a split's d
populations are built only when a caller asks for them.  `delta_p_closed_form`
gives the same transfer in closed form away from its poles.  Where the work is
positive needs no solve at all: exactly inside the window max(1, omega_c/omega_h)
< d/n < beta_c*omega_c/(beta_h*omega_h), which `regime_map` evaluates over a
grid and whose exact ends decide `optimal_simple_perm_efficiency` and, as the
simplest rational between them for any d, `feasible_quality`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegeneratePointError,
    GuardExceededError,
    NoEngineRegimeError,
)
from .permutations import PermutationMap, ergotropy
from .thermo import (
    CycleReport,
    InverseTemperaturePair,
    Spectrum,
    _kron,
    check_finite,
    check_spacings,
    dimensionless_engine,
    gibbs_populations,
)

NEGATIVE_POPULATION_TOL = 1e-12
MAX_REGIME_ROWS = 10**7  # regime-map CSV rows, points x regions: ~175 MB to render
# Entries a flow solve materialises: d per split or per fig5 curve; a sweep returns d^2.
# fig5 peaks at about 100 bytes per row (VmHWM 430 MB at the cap, 30 MB of it
# the interpreter), mostly the solve's two (4, d + 1) tables.
MAX_FLOW_ENTRIES = 2**22
_FLOW_CHUNK = 2**16  # splits `_solve_flow_balance` closes per pass: ~220 bytes each


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
    if 4 * d > MAX_FLOW_ENTRIES:
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


def _check_boltzmann(boltz_hot: float, boltz_cold: float) -> tuple[float, float]:
    """Both factors as floats; boltz_cold may be 0, the deep-cold underflow limit."""
    boltz_hot, boltz_cold = float(boltz_hot), float(boltz_cold)
    if not 0.0 < boltz_hot < 1.0:
        raise ValueError("boltz_hot must lie strictly between 0 and 1")
    if not 0.0 <= boltz_cold < 1.0:
        raise ValueError("boltz_cold must lie in [0, 1)")
    return boltz_hot, boltz_cold


class _FlowSolution(NamedTuple):
    """A flow solve's splits, one entry per split in `n`: p_0, v and the
    block transfer, with the coefficient tables whose [a; c] rows give every
    population as a_k*p_0 + c_k*v."""

    d: int
    n: np.ndarray
    p_0: np.ndarray
    v: np.ndarray
    transfer: np.ndarray
    hot: np.ndarray
    cold: np.ndarray
    backward: bool

    def populations(self, k: int) -> np.ndarray:
        """The d unclipped populations of split k, checked elementwise."""
        n = int(self.n[k])
        m = self.d - n
        hot, steps = self.hot, self.cold[:2, 1:n]
        rest = steps[:, ::-1] if self.backward else _forward(steps, hot[:2, m, None])
        coef = np.concatenate((hot[:2, : m + 1], rest), axis=1)
        pops = coef[0] * self.p_0[k] + coef[1] * self.v[k]
        _check_populations(pops)
        return pops


def _forward(steps: np.ndarray, end: np.ndarray) -> np.ndarray:
    """[a; c] of p_{m+j} = r^j*p_m - R_j*v, the forward cold segment, from
    steps [r^j; R_j] and p_m's [a; c]; linear, so it maps sums to sums."""
    coef = steps[0] * end
    coef[1] -= steps[1]
    return coef


def _check_populations(pops: np.ndarray) -> None:
    if not np.isfinite(pops).all() or pops.min() < -NEGATIVE_POPULATION_TOL:
        raise RuntimeError(
            "flow solve gave a negative or non-finite catalyst population; this is a bug"
        )


def _check_flow_entries(entries: int) -> None:
    if entries > MAX_FLOW_ENTRIES:
        raise GuardExceededError(
            f"flow solve of {entries} catalyst populations exceeds the cap {MAX_FLOW_ENTRIES}"
        )


def _solve_flow_balance(
    d: int, n: Sequence[int], boltz_hot: float, boltz_cold: float
) -> _FlowSolution:
    """Block transfer of every (d - n, n) split at one pair of Boltzmann
    factors, in O(d + splits); `n` is an array of split counts.

    With N = 1/((1 + bh)(1 + bc)) block k balances N*bh*p_k - N*x*p_{k+1} =
    transfer (p_d = p_0), with x = 1 for the m = d - n ground-dropping blocks
    and x = bc for the n cold-raising ones.  The catalyst is thus the
    stationary vector of a Markov chain on the blocks: block k steps forward
    with probability N*bh and back with probability N*x.  Staying has
    probability at least 1 - N*(1 + bh) = 1 - 1/(1 + bc) >= 0 and the forward
    steps close a cycle through every block, so the chain is irreducible and
    its stationary vector unique and strictly positive.  A non-finite
    population, or one below -NEGATIVE_POPULATION_TOL, is therefore a fault
    of this solver and raises RuntimeError (exit 4).

    The recurrences give every population as a_k*p_0 + c_k*v,
    v = transfer/(N*max(bh, bc)); the balance they leave out and the
    normalisation fix (p_0, v) by Cramer's rule.  The hot segment runs
    forward from p_0 in powers of bh; the cold segment runs backward from p_0
    in powers of bc/bh when bc <= bh and forward from p_m in powers of bh/bc
    otherwise, so no power or partial sum grows.  All splits read one table
    of powers per segment, and the normalisation's coefficient sums close
    each split from `np.cumsum` prefix sums of those tables, so no split's d
    populations are built.  The cumsum is sequential, so each split's numbers
    equal its one-split solve's bit for bit.  Splits are closed _FLOW_CHUNK at
    a time; each is an elementwise function of the shared tables, so the
    chunks change no bit.

    Each segment is an affine recurrence with a slope in [0, 1]:
    p_{k+1} = bh*p_k - max(bh, bc)*v on the hot blocks, q_{j+1} = r*q_j + v
    backward (q_j = p_{d-j}) and p_{m+j+1} = r*p_{m+j} - v forward, with
    r = min(bh, bc)/max(bh, bc).  Successive differences thus keep their
    sign, so a segment is monotone and its populations lie between its ends,
    and the positivity check reads each split's segment ends alone: p_0 and
    p_m, and p_{m+1} when the cold segment runs backward or p_{d-1} when it
    runs forward, each formed as its population would be.
    `_FlowSolution.populations` builds one split's populations on demand and
    checks them elementwise.  A catalyst of more than MAX_FLOW_ENTRIES blocks
    raises GuardExceededError (exit 4) before anything is allocated.
    """
    _check_flow_entries(d)
    n = np.asarray(n)
    bh, bc = boltz_hot, boltz_cold
    top = max(bh, bc)
    # [a; c] tables, S_j = sum of the powers below j (R_j in the cold segment):
    # hot[:2, k] = [bh^k; -top*S_k] gives blocks 0..m, p_k = bh^k p_0 - top*S_k v;
    # cold[:2, j] = [r^j; R_j], j steps from either end of the cold segment:
    # backward p_{d-j} = r^j p_0 + R_j v, forward p_{m+j} = r^j p_m - R_j v.
    # Rows 2:4 are prefix sums, of the hot columns 0..k and the cold steps 1..j.
    hot = np.empty((4, d - int(n.min()) + 1))
    cold = np.empty((4, int(n.max()) + 1))
    for table, base in ((hot, bh), (cold, min(bh, bc) / top)):
        np.power(base, np.arange(table.shape[1]), out=table[0])
        table[1, 0] = 0.0
        table[0, :-1].cumsum(out=table[1, 1:])
    hot[1] *= -top
    hot[:2].cumsum(axis=1, out=hot[2:])
    cold[2:, 0] = 0.0
    cold[:2, 1:].cumsum(axis=1, out=cold[2:, 1:])
    chunks = range(0, n.size, _FLOW_CHUNK)
    if len(chunks) == 1:
        p_0, v, transfer = _close_splits(d, n, hot, cold, bh, bc)
    else:
        p_0, v, transfer = solved = np.empty((3, n.size))
        for start in chunks:
            part = slice(start, start + _FLOW_CHUNK)
            solved[:, part] = _close_splits(d, n[part], hot, cold, bh, bc)
    return _FlowSolution(d, n, p_0, v, transfer, hot, cold, bc <= bh)


def _close_splits(d, n, hot, cold, bh, bc):
    """p_0, v and transfer of the splits in `n` from `_solve_flow_balance`'s
    tables, each split's segment ends checked."""
    m = d - n
    top = max(bh, bc)
    at_m, at_n = hot[:, m], cold[:, n - 1]
    end, sums, before, steps = at_m[:2], at_m[2:], at_n[:2], at_n[2:]
    last = cold[:2, n]
    # sums: each split's coefficients summed over its d blocks; close: the
    # left-out balance, p_m from both segments (backward) or p_d = p_0
    if bc <= bh:
        sums += steps
        close = end - last
    else:
        sums += _forward(steps, end)
        close = _forward(last, end)
        close[0] -= 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = close[0] * sums[1] - close[1] * sums[0]
        p_0 = -close[1] / det
        v = close[0] / det
        transfer = v * top / ((1.0 + bh) * (1.0 + bc))
        # the [a; c] of p_0, p_m and p_{m+1} (backward) or p_{d-1} (forward)
        coef = np.empty((2, 3, n.size))
        coef[:, 0] = hot[:2, :1]
        coef[:, 1] = end
        coef[:, 2] = before if bc <= bh else _forward(before, end)
        # p_0's end is 1*p_0 + 0*v, as its population is: non-finite when det == 0 or v is
        _check_populations(coef[0] * p_0 + coef[1] * v)
    return p_0, v, transfer


def solve_catalyst_state(
    shape: SimplePermSpec, boltz_hot: float, boltz_cold: float
) -> CatalystState:
    """Catalyst state preserved by the simple permutation, from its flow
    balance equations.

    `boltz_hot`/`boltz_cold` are the excited-level Boltzmann factors
    exp(-beta*omega) of the hot and cold qubits.  The catalyst always exists
    (see `_solve_flow_balance`); rounding negatives no larger than
    NEGATIVE_POPULATION_TOL are clipped to zero.  The populations are checked
    elementwise.
    """
    boltz = _check_boltzmann(boltz_hot, boltz_cold)
    flow = _solve_flow_balance(shape.d, [shape.n], *boltz)
    with np.errstate(invalid="ignore", over="ignore"):  # a fault the check reports
        populations = flow.populations(0)
    return CatalystState(np.clip(populations, 0.0, None), flow.transfer[0])


def delta_p_closed_form(
    shape: SimplePermSpec, boltz_hot: float, boltz_cold: float
) -> float:
    """Per-block transfer in closed form.

    The expression has poles at boltz_hot == boltz_cold and boltz_hot == 1;
    those points are refused and callers are directed to the linear solver,
    which has no pole there.
    """
    ah, ac = _check_boltzmann(boltz_hot, boltz_cold)
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


def _float(value: Fraction) -> float:
    """float(value), or the infinity of its sign beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _rational_efficiency(shape: SimplePermSpec, omega_h: float, omega_c: float) -> float:
    w_h, w_c = Fraction(float(omega_h)), Fraction(float(omega_c))
    return _float(1 - shape.n * w_c / (shape.d * w_h))


def _qubit_boltzmann(omega_h: float, omega_c: float, beta) -> tuple[float, float]:
    """Validated exp(-beta*omega) of both excited qubit levels, (bh, bc)."""
    check_spacings(omega_h, omega_c)
    return _check_boltzmann(math.exp(-beta.beta_h * omega_h), math.exp(-beta.beta_c * omega_c))


def _heats(d, n, omega_h: float, omega_c: float, delta_p):
    """(Q_h, Q_c) = (d*omega_h, -n*omega_c) * delta_p, for numbers or arrays."""
    return d * omega_h * delta_p, -n * omega_c * delta_p


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
    parameters where the heats themselves are astronomically small.  Heats
    or work that overflow raise ConfigError.
    """
    omega_h, omega_c = float(omega_h), float(omega_c)
    catalyst = solve_catalyst_state(shape, *_qubit_boltzmann(omega_h, omega_c, beta))
    efficiency = _rational_efficiency(shape, omega_h, omega_c) if catalyst.delta_p != 0.0 else None
    heats = _heats(shape.d, shape.n, omega_h, omega_c, catalyst.delta_p)
    report = CycleReport.from_heats(*heats, efficiency=efficiency)
    # the heats have opposite signs, so the work is finite exactly when both are
    check_finite(report.work)
    return report, catalyst


def sweep_simple_perms(
    catalyst_dim: int,
    omega_h: float,
    omega_c: float,
    beta: InverseTemperaturePair,
) -> list[tuple[SimplePermSpec, CycleReport, CatalystState]]:
    """`simple_perm_report` of every split (d - n, n) of a d-block catalyst,
    n = 1..d, and [] for d < 1.  Bad spacings or Boltzmann factors raise
    ValueError first, then the d**2 populations the sweep returns raise
    GuardExceededError (exit 4) above MAX_FLOW_ENTRIES, before any solve.
    """
    d = int(catalyst_dim)
    if d < 1:
        return []
    _qubit_boltzmann(float(omega_h), float(omega_c), beta)
    _check_flow_entries(d * d)
    shapes = [SimplePermSpec(d - n, n) for n in range(1, d + 1)]
    return [(shape, *simple_perm_report(shape, omega_h, omega_c, beta)) for shape in shapes]


def optimal_simple_perm_efficiency(
    catalyst_dim: int,
    omega_h: float,
    omega_c: float,
    beta: InverseTemperaturePair,
) -> float:
    """Best engine efficiency over simple permutations of a d-block catalyst.

    Requires omega_c/omega_h <= d <= beta_c*omega_c/(beta_h*omega_h), read
    exactly from `_engine_window` (else ValueError): the window in which the
    single-cold-swap ladder runs below the Carnot bound, with optimum
    1 - omega_c/(d*omega_h).  The efficiency 1 - n*omega_c/(d*omega_h) falls
    as n grows and the (d - 1, 1) ladder runs wherever its d/1 lies in
    `_catalytic_window`, so the ladder is the optimum by construction.  At
    d = beta_c*omega_c/(beta_h*omega_h) it sits at the Carnot limit with zero work.
    """
    d = int(catalyst_dim)
    lower, upper = _engine_window(omega_h, omega_c, beta)
    if not (lower <= d <= upper):
        ends = ", ".join(f"{_float(end):.6g}" for end in (lower, upper))
        raise ValueError(f"catalyst dimension {d} outside the admissible window [{ends}]")
    return _rational_efficiency(SimplePermSpec(d - 1, 1), omega_h, omega_c)


def _catalytic_window(quality, freq_ratio, exponent_ratio):
    """Whether the simple permutation with d/n = quality runs as an engine:
    max(1, omega_c/omega_h) < d/n < beta_c*omega_c/(beta_h*omega_h).

    Inside the window its catalyst is valid and its work positive, however
    small; outside it the work is not positive, except at d/n = 1, the bare
    swap with a trivial catalyst, which the window leaves out.  Elementwise
    over arrays of frequency ratios omega_c/omega_h and exponent ratios.
    """
    return (np.maximum(1.0, freq_ratio) < quality) & (quality < exponent_ratio)


def _engine_window(omega_h: float, omega_c: float, beta) -> tuple[Fraction, Fraction]:
    """Validated d/n window ends of `_catalytic_window`, max(1, omega_c/omega_h) and
    beta_c*omega_c/(beta_h*omega_h), exact Fractions of the float inputs."""
    check_spacings(omega_h, omega_c)
    w_h, w_c, b_h, b_c = (Fraction(float(x)) for x in (omega_h, omega_c, beta.beta_h, beta.beta_c))
    return max(Fraction(1), w_c / w_h), b_c * w_c / (b_h * w_h)


def _simplest_between(low: Fraction, high: Fraction) -> Fraction:
    """Simplest rational strictly between 1 <= low < high, by continued fractions."""
    w = math.floor(low)
    if w + 1 < high:
        return Fraction(w + 1)
    if low == w:
        return w + Fraction(1, math.floor(1 / (high - w)) + 1)
    return w + 1 / _simplest_between(1 / (high - w), 1 / (low - w))


def feasible_quality(
    omega_h: float,
    omega_c: float,
    beta: InverseTemperaturePair,
) -> SimplePermSpec:
    """The (d, n) split with the smallest d, then the fewest n, whose simple
    permutation runs as an engine here, for any d and with no flow solve: the
    simplest rational d/n strictly between the exact ends of `_engine_window`.
    `regime_map`'s float flag reads 0 only where d/n lies within float rounding
    of an end (in (1.5, 1.5*(1 + 1e-9)) at 499999961/333333307).  An empty
    window raises NoEngineRegimeError; deep work may underflow to 0.0.
    """
    low, high = _engine_window(omega_h, omega_c, beta)
    if not high > low:  # then 0 < high <= low = 1, as beta_c > beta_h
        raise NoEngineRegimeError(
            f"no engine regime: d/n window ({float(low):.6g}, {float(high):.6g}) is empty"
        )
    quality = _simplest_between(low, high)
    return SimplePermSpec(quality.numerator - quality.denominator, quality.denominator)


def _as_quality(value) -> Fraction:
    """Coerce a d/n ratio to an exact Fraction.

    Strings keep their decimal meaning ('2.2' -> 11/5); floats go through
    repr for the same reason.  Pass Fractions directly when exactness
    matters.  A ratio that is not a finite rational ('nan', 'inf', 'abc') or
    lies above the float range raises ValueError.
    """
    if isinstance(value, Fraction):
        quality = value
    elif isinstance(value, (str, int, float)):
        try:
            quality = Fraction(repr(value) if isinstance(value, float) else value)
        except ZeroDivisionError as exc:
            raise ValueError(f"d/n ratio {value!r} has a zero denominator") from exc
        except ValueError as exc:
            raise ValueError(f"d/n ratio {value!r} is not a rational number") from exc
    else:
        raise TypeError(f"cannot interpret {value!r} as a d/n ratio")
    if quality <= 0:
        raise ValueError("d/n ratios must be positive")
    try:
        float(quality)
    except OverflowError as exc:
        raise ValueError(f"d/n ratio {value!r} exceeds the float range") from exc
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

    Every grid point carries one flag per region: 'carnot' marks
    beta_c*omega_c > beta_h*omega_h (catalytic engines also run at some
    points where it is 0), 'otto' where the
    bare hot-cold swap runs without a catalyst, and one 'catalytic' flag per
    requested d/n where the simple permutation realising that ratio (in
    lowest terms) produces positive work with a valid catalyst.  That is the
    closed-form window max(1, omega_c/omega_h) < d/n <
    beta_c*omega_c/(beta_h*omega_h), so no flow equations are solved; d/n = 1
    is the bare swap, flagged by 'otto' instead.  Grid points are evaluated
    at beta_h = omega_h = 1; feasibility only depends on the two plotted
    ratios.  Range ends must be finite, so every grid value is; a non-finite
    end raises ValueError, which the CLI reports with exit 2.  A grid of more
    than MAX_REGIME_ROWS rows, resolution**2 * (2 + number of ratios), raises
    GuardExceededError (exit 4) before anything is allocated.
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
    rows = resolution**2 * (2 + len(fractions))
    if rows > MAX_REGIME_ROWS:
        raise GuardExceededError(
            f"regime map of {rows} rows exceeds the cap {MAX_REGIME_ROWS}"
        )

    beta_ratios = np.linspace(beta_lo, beta_hi, resolution)
    freq_ratios = np.linspace(freq_lo, freq_hi, resolution)
    freq = freq_ratios[None, :]
    exponent_product = beta_ratios[:, None] * freq
    carnot = exponent_product > 1.0
    regions = [("", "carnot", carnot), ("", "otto", (freq < 1.0) & carnot)]
    for quality in fractions:
        flags = _catalytic_window(float(quality), freq, exponent_product)
        regions.append((f"{quality.numerator}/{quality.denominator}", "catalytic", flags))
    return RegimeMap(beta_ratios, freq_ratios, tuple(regions))


def fig_work_vs_cold_swaps(
    catalyst_dim: int,
    hot_exponent: float,
    exponent_ratio: float,
    freq_ratio: float,
) -> np.ndarray:
    """Work of every (d - n, n) simple permutation next to the best
    non-catalytic work at the same parameters.

    Parameters are dimensionless: omega_h = 1, beta_h = hot_exponent,
    beta_c*omega_c = exponent_ratio * hot_exponent and omega_c = freq_ratio.
    Returns a (d, 3) float64 array of rows (n, catalytic work, non-catalytic
    baseline), n = 1..d exactly, from one flow solve over all splits; the
    baseline is the ergotropy of the two bath qubits, on the energies
    (0, omega_c, omega_h, omega_h + omega_c) of their flat levels.  A work
    that overflows raises ConfigError, after numpy's overflow warning.
    """
    d = int(catalyst_dim)
    if d < 1:
        raise ValueError("catalyst dimension must be at least 1")
    _check_flow_entries(d)  # before np.arange(1, d + 1) allocates
    omega_h, omega_c, beta = dimensionless_engine(
        hot_exponent, float(hot_exponent) * float(exponent_ratio), freq_ratio
    )
    hot = gibbs_populations(Spectrum.qubit(omega_h), beta.beta_h)
    cold = gibbs_populations(Spectrum.qubit(omega_c), beta.beta_c)
    baseline = ergotropy(
        _kron(hot, cold), Spectrum((0.0, omega_c, omega_h, omega_h + omega_c))
    )
    boltz = _qubit_boltzmann(omega_h, omega_c, beta)
    n = np.arange(1, d + 1)
    # only the transfers outlive the solve, not its (4, d + 1) tables
    transfer = _solve_flow_balance(d, n, *boltz).transfer
    curve = np.empty((d, 3))
    curve[:, 0] = n
    heat_hot, heat_cold = _heats(d, n, omega_h, omega_c, transfer)
    np.add(heat_hot, heat_cold, out=curve[:, 1])
    check_finite(curve[:, 1])
    curve[:, 2] = baseline
    return curve
