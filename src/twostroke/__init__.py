"""Desk-scale models of microscopic two-stroke heat engines.

The working body is two qubits (or small d-level systems) thermalised at two
temperatures, optionally joined by a catalyst whose state must return intact
after every work stroke.  The package computes work, heats, efficiency and
operating modes of individual strokes, optimises over permutations and over
catalyst-assisted simple permutations, bounds catalytic work by a linear
program over bistochastic strokes, and verifies that catalyst coherence is
irrelevant to the machine's performance.
"""

from .catalysis import (
    CatalystState,
    SimplePermSpec,
    build_simple_perm,
    delta_p_closed_form,
    feasible_quality,
    fig_work_vs_cold_swaps,
    optimal_simple_perm_efficiency,
    regime_map,
    simple_perm_report,
    solve_catalyst_state,
    sweep_simple_perms,
)
from .coherence import decohere_catalyst_construction, run_coherence_suite
from .errors import (
    CoherenceCheckError,
    ConfigError,
    CyclicityError,
    DegeneratePointError,
    EngineError,
    GuardExceededError,
    NoEngineRegimeError,
)
from .lp import LPSolution, WorkBoundProblem, lp_dual_check, lp_work_upper_bound
from .permutations import (
    OptimizationResult,
    PermutationMap,
    apply_permutation,
    ergotropy,
    optimal_noncatalytic,
    passive_populations,
    qubit_table,
)
from .thermo import (
    CycleReport,
    InverseTemperaturePair,
    PopulationVector,
    Spectrum,
    classify_modes,
    clausius_lhs,
    combined_spectrum,
    gibbs_populations,
    product_state,
    stroke_report,
)

__all__ = [
    "CatalystState",
    "CoherenceCheckError",
    "ConfigError",
    "CycleReport",
    "CyclicityError",
    "DegeneratePointError",
    "EngineError",
    "GuardExceededError",
    "InverseTemperaturePair",
    "LPSolution",
    "NoEngineRegimeError",
    "OptimizationResult",
    "PermutationMap",
    "PopulationVector",
    "SimplePermSpec",
    "Spectrum",
    "WorkBoundProblem",
    "apply_permutation",
    "build_simple_perm",
    "classify_modes",
    "clausius_lhs",
    "combined_spectrum",
    "decohere_catalyst_construction",
    "delta_p_closed_form",
    "ergotropy",
    "feasible_quality",
    "fig_work_vs_cold_swaps",
    "gibbs_populations",
    "lp_dual_check",
    "lp_work_upper_bound",
    "optimal_noncatalytic",
    "optimal_simple_perm_efficiency",
    "passive_populations",
    "product_state",
    "qubit_table",
    "regime_map",
    "run_coherence_suite",
    "simple_perm_report",
    "solve_catalyst_state",
    "stroke_report",
    "sweep_simple_perms",
]
