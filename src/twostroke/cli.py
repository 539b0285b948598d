"""Command-line front door.

Subcommands: report, table24, optimize, regime-map, fig5, lp-bound,
coherence-check.  Scalar results are printed as JSON, tables as CSV; every
float is rendered with 12 significant digits so emitted files are stable
byte-for-byte across runs and platforms.

Exit codes: 0 success, 2 configuration error or non-finite result, 3
infeasible catalyst or no engine regime, 4 size or iteration guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import catalysis, coherence, lp, permutations, thermo
from .errors import (
    ConfigError,
    CoherenceCheckError,
    GuardExceededError,
    InfeasibleCatalystError,
    NoEngineRegimeError,
)


def round12(value: float | None) -> float | None:
    """Round to 12 significant digits (and normalise -0.0) for stable output.

    A non-finite value cannot be emitted and raises ConfigError (exit 2).
    """
    if value is None:
        return None
    rounded = float(f"{float(value):.12g}")
    if not math.isfinite(rounded):
        raise ConfigError(f"result is not finite ({rounded}) at these parameters")
    return 0.0 if rounded == 0.0 else rounded


def fmt12(value: float | None) -> str:
    if value is None:
        return ""
    rounded = round12(value)
    return f"{rounded:.12g}"


def _rounded(payload):
    """The payload with every float passed through round12."""
    if isinstance(payload, dict):
        return {key: _rounded(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_rounded(value) for value in payload]
    return round12(payload) if isinstance(payload, float) else payload


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, output: str | None) -> None:
    _emit(json.dumps(_rounded(payload), indent=2, allow_nan=False) + "\n", output)


def add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("engine parameters")
    group.add_argument("--beta-h", type=float, help="hot-bath inverse temperature")
    group.add_argument("--beta-c", type=float, help="cold-bath inverse temperature")
    group.add_argument("--omega-h", type=float, help="hot-qubit level spacing")
    group.add_argument("--omega-c", type=float, help="cold-qubit level spacing")
    group.add_argument(
        "--bh-wh",
        type=float,
        help="dimensionless beta_h*omega_h (alternative to explicit flags; omega_h = 1)",
    )
    group.add_argument(
        "--bc-wc", type=float, help="dimensionless beta_c*omega_c (with --bh-wh)"
    )
    group.add_argument(
        "--freq-ratio",
        type=float,
        help="omega_c/omega_h, required by the dimensionless form",
    )


Stroke = Union[None, str, catalysis.SimplePermSpec, permutations.PermutationMap]


@dataclass(frozen=True)
class EngineConfig:
    """Validated engine parameters shared by the stroke-level subcommands.

    `stroke` is None (no stroke selected), the string "otto" for the bare
    hot-cold swap, a SimplePermSpec for a catalytic simple permutation, or an
    explicit PermutationMap.  Explicit permutations and the bare swap run
    without a catalyst.
    """

    omega_h: float
    omega_c: float
    beta: thermo.InverseTemperaturePair
    catalyst_dim: int = 1
    stroke: Stroke = None

    def __post_init__(self) -> None:
        if self.catalyst_dim < 1:
            raise ConfigError("catalyst dimension must be at least 1")
        if isinstance(self.stroke, catalysis.SimplePermSpec):
            if self.stroke.d != self.catalyst_dim:
                raise ConfigError(
                    f"--catalyst-dim {self.catalyst_dim} conflicts with --simple "
                    f"{self.stroke.m},{self.stroke.n} (needs {self.stroke.d})"
                )
        elif self.stroke is not None and self.catalyst_dim != 1:
            raise ConfigError(
                "--otto and --perm run without a catalyst (--catalyst-dim 1)"
            )


def _parse_stroke(args) -> Stroke:
    chosen = [
        flag for flag in ("otto", "simple", "perm") if getattr(args, flag, None)
    ]
    if not chosen:
        return None
    if len(chosen) != 1:
        raise ConfigError("choose exactly one of --otto, --simple M,N or --perm IMAGE")
    if getattr(args, "otto", False):
        return "otto"
    if getattr(args, "simple", None):
        m, n = _parse_int_pair(args.simple, "--simple")
        try:
            return catalysis.SimplePermSpec(m, n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    text = args.perm.strip().lower()
    if text == "identity":
        return permutations.PermutationMap.identity(4)
    try:
        image = tuple(int(part) for part in args.perm.split(","))
        if len(image) != 4:
            raise ConfigError("--perm expects an image of the 4 working-body levels")
        return permutations.PermutationMap(image)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(
            f"--perm expects 'identity' or a valid image list: {args.perm!r}"
        ) from exc


def resolve_engine(args) -> EngineConfig:
    dimensionless = args.bh_wh is not None or args.bc_wc is not None
    explicit = any(
        v is not None for v in (args.beta_h, args.beta_c, args.omega_h, args.omega_c)
    )
    if dimensionless and explicit:
        raise ConfigError(
            "give either explicit (beta, omega) flags or the dimensionless pair, not both"
        )
    if dimensionless:
        if args.bh_wh is None or args.bc_wc is None:
            raise ConfigError("the dimensionless form needs both --bh-wh and --bc-wc")
        if args.freq_ratio is None:
            raise ConfigError("the dimensionless form needs --freq-ratio")
        if args.freq_ratio <= 0 or args.bh_wh <= 0 or args.bc_wc <= 0:
            raise ConfigError("dimensionless parameters must be positive")
        omega_h = 1.0
        omega_c = args.freq_ratio
        beta_h = args.bh_wh
        beta_c = args.bc_wc / args.freq_ratio
    else:
        missing = [
            name
            for name, value in (
                ("--beta-h", args.beta_h),
                ("--beta-c", args.beta_c),
                ("--omega-h", args.omega_h),
                ("--omega-c", args.omega_c),
            )
            if value is None
        ]
        if missing:
            raise ConfigError(f"missing engine flags: {', '.join(missing)}")
        omega_h, omega_c = args.omega_h, args.omega_c
        beta_h, beta_c = args.beta_h, args.beta_c
    if not (0 < omega_h < math.inf and 0 < omega_c < math.inf):
        raise ConfigError("level spacings must be positive and finite")
    try:
        beta = thermo.InverseTemperaturePair(beta_h, beta_c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    stroke = _parse_stroke(args)
    catalyst_dim = getattr(args, "catalyst_dim", None)
    if catalyst_dim is None:
        catalyst_dim = stroke.d if isinstance(stroke, catalysis.SimplePermSpec) else 1
    return EngineConfig(float(omega_h), float(omega_c), beta, catalyst_dim, stroke)


def _parse_int_pair(text: str, name: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{name} expects two comma-separated integers")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{name} expects integers, got {text!r}") from exc


def _noncatalytic_stroke(
    image: tuple[int, ...],
    omega_h: float,
    omega_c: float,
    beta: thermo.InverseTemperaturePair,
) -> thermo.CycleReport:
    hot = thermo.gibbs_populations(thermo.Spectrum.qubit(omega_h), beta.beta_h)
    cold = thermo.gibbs_populations(thermo.Spectrum.qubit(omega_c), beta.beta_c)
    initial = thermo.product_state([1.0], hot, cold)
    perm = permutations.PermutationMap(image)
    final = permutations.apply_permutation(initial, perm)
    return thermo.stroke_report(
        initial,
        final,
        thermo.Spectrum.qubit(omega_h),
        thermo.Spectrum.qubit(omega_c),
        beta,
    )


def cmd_report(args) -> int:
    config = resolve_engine(args)
    if config.stroke is None:
        raise ConfigError("choose exactly one of --otto, --simple M,N or --perm IMAGE")
    if isinstance(config.stroke, catalysis.SimplePermSpec):
        shape = config.stroke
        try:
            report, catalyst = catalysis.simple_perm_report(
                shape, config.omega_h, config.omega_c, config.beta
            )
        except InfeasibleCatalystError:
            raise
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        payload = {
            "report": report.to_dict(),
            "catalyst": {
                "populations": catalyst.populations.tolist(),
                "delta_p": catalyst.delta_p,
            },
            "simple_permutation": {"m": shape.m, "n": shape.n},
        }
        _emit_json(payload, args.output)
        return 0
    if config.stroke == "otto":
        report = _noncatalytic_stroke(
            permutations.OTTO_SWAP_IMAGE, config.omega_h, config.omega_c, config.beta
        )
        if report.work <= thermo.MODE_TOL:
            raise NoEngineRegimeError("no engine regime")
        _emit_json(report.to_dict(), args.output)
        return 0
    report = _noncatalytic_stroke(
        config.stroke.image, config.omega_h, config.omega_c, config.beta
    )
    _emit_json(report.to_dict(), args.output)
    return 0


def cmd_table24(args) -> int:
    config = resolve_engine(args)
    omega_h, omega_c, beta = config.omega_h, config.omega_c, config.beta
    rows = permutations.qubit_table(beta.beta_h, omega_h, beta.beta_c, omega_c)
    lines = ["perm_index,image,work,efficiency"]
    for row in rows:
        image = "-".join(str(x) for x in row.perm.image)
        lines.append(f"{row.index},{image},{fmt12(row.work)},{fmt12(row.efficiency)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_optimize(args) -> int:
    config = resolve_engine(args)
    result = permutations.optimal_noncatalytic(
        thermo.Spectrum.qubit(config.omega_h),
        thermo.Spectrum.qubit(config.omega_c),
        config.beta,
        objective=args.objective,
    )
    payload = {
        "objective": args.objective,
        "best_value": result.best_value,
        "engine_regime": result.engine_regime,
        "witnesses": [list(perm.image) for perm in result.witnesses],
        "report": result.report.to_dict() if result.report else None,
    }
    _emit_json(payload, args.output)
    return 0 if result.engine_regime else 3


def cmd_regime_map(args) -> int:
    qualities = [part.strip() for part in args.d_over_n.split(",") if part.strip()]
    try:
        result = catalysis.regime_map(
            qualities,
            (args.beta_ratio_min, args.beta_ratio_max),
            (args.freq_ratio_min, args.freq_ratio_max),
            args.resolution,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lines = [
        "# regime map over beta_c/beta_h (beta_ratio) and omega_c/omega_h (freq_ratio)",
        "# normalisation: beta_h = 1 and omega_h = 1 at every grid point",
        "# catalytic rows realise d/n in lowest terms, catalyst dimension capped at "
        f"{catalysis.MAX_REGIME_CATALYST_DIM}",
        "# feasible: carnot = any engine possible; otto = bare hot-cold swap runs;"
        " catalytic = the d/n simple permutation runs with a valid catalyst",
        "beta_ratio,freq_ratio,d_over_n,feasible,region_label",
    ]
    # one row per (beta, freq, region), beta outermost; each cell pair is
    # indexed by the flag
    cells = [
        (f"{label},0,{region}", f"{label},1,{region}")
        for label, region, _ in result.regions
    ]
    flags = np.stack([mask for _, _, mask in result.regions], axis=-1).tolist()
    freq_texts = [fmt12(freq) for freq in result.freq_ratios]
    for beta, beta_flags in zip(result.beta_ratios, flags):
        beta_text = fmt12(beta)
        for freq_text, point_flags in zip(freq_texts, beta_flags):
            lines.extend(
                f"{beta_text},{freq_text},{cell[flag]}"
                for cell, flag in zip(cells, point_flags)
            )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_fig5(args) -> int:
    try:
        rows = catalysis.fig_work_vs_cold_swaps(
            args.catalyst_dim, args.bh_wh, args.ratio, args.freq_ratio
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lines = ["n,W_catalytic,W_noncatalytic_baseline"]
    for n, catalytic, baseline in rows:
        lines.append(f"{n},{fmt12(catalytic)},{fmt12(baseline)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_lp_bound(args) -> int:
    config = resolve_engine(args)
    omega_h, omega_c, beta = config.omega_h, config.omega_c, config.beta
    catalyst_dim = config.catalyst_dim
    if args.catalyst_populations:
        try:
            populations = [float(p) for p in args.catalyst_populations.split(",")]
        except ValueError as exc:
            raise ConfigError("--catalyst-populations expects floats") from exc
        if len(populations) != catalyst_dim:
            raise ConfigError(
                f"--catalyst-populations needs {catalyst_dim} entries"
            )
    else:
        populations = [1.0 / catalyst_dim] * catalyst_dim
    hot = thermo.Spectrum.qubit(omega_h)
    cold = thermo.Spectrum.qubit(omega_c)
    try:
        initial = thermo.product_state(
            populations,
            thermo.gibbs_populations(hot, beta.beta_h),
            thermo.gibbs_populations(cold, beta.beta_c),
        )
        hamiltonian = thermo.combined_spectrum(
            thermo.Spectrum.trivial(catalyst_dim), hot, cold
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    solution = lp.lp_work_upper_bound(hamiltonian, initial, catalyst_dim)
    _emit_json(solution.to_dict(), args.output)
    return 0


def cmd_coherence_check(args) -> int:
    try:
        dims = tuple(int(part) for part in args.catalyst_dims.split(","))
    except ValueError as exc:
        raise ConfigError("--catalyst-dims expects comma-separated integers") from exc
    if args.trials < 1 or not dims or min(dims) < 1:
        raise ConfigError("--trials and --catalyst-dims must be positive")
    result = coherence.run_coherence_suite(args.trials, args.seed, dims)
    payload = {
        "trials": result.trials,
        "max_heat_mismatch": result.max_heat_mismatch,
        "max_cyclicity_residual": result.max_cyclicity_residual,
    }
    _emit_json(payload, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostroke",
        description="Two-stroke heat engine models, with and without a catalyst",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="work/heat/efficiency of one stroke")
    add_engine_arguments(report)
    report.add_argument("--otto", action="store_true", help="run the bare hot-cold swap")
    report.add_argument("--simple", metavar="M,N", help="simple permutation shape")
    report.add_argument(
        "--perm", metavar="IMAGE", help="'identity' or explicit image list, e.g. 0,2,1,3"
    )
    report.add_argument("--catalyst-dim", type=int, default=None)
    report.add_argument("--output")
    report.set_defaults(func=cmd_report)

    table = sub.add_parser("table24", help="all 24 qubit permutation strokes as CSV")
    add_engine_arguments(table)
    table.add_argument("--output")
    table.set_defaults(func=cmd_table24)

    optimize = sub.add_parser("optimize", help="exhaustive non-catalytic optimisation")
    add_engine_arguments(optimize)
    optimize.add_argument(
        "--objective", choices=("efficiency", "work"), default="efficiency"
    )
    optimize.add_argument("--output")
    optimize.set_defaults(func=cmd_optimize)

    regime = sub.add_parser("regime-map", help="operating-regime grid as CSV")
    regime.add_argument(
        "--d-over-n", default="2.2,3.2,4", help="comma list of d/n ratios (exact strings)"
    )
    regime.add_argument("--beta-ratio-min", type=float, default=1.01)
    regime.add_argument("--beta-ratio-max", type=float, default=2.0)
    regime.add_argument("--freq-ratio-min", type=float, default=0.05)
    regime.add_argument("--freq-ratio-max", type=float, default=2.0)
    regime.add_argument("--resolution", type=int, default=50)
    regime.add_argument("--output")
    regime.set_defaults(func=cmd_regime_map)

    fig5 = sub.add_parser(
        "fig5", help="work versus cold-swap count at fixed catalyst dimension (CSV)"
    )
    fig5.add_argument("--catalyst-dim", type=int, default=30)
    fig5.add_argument("--bh-wh", type=float, default=0.25, help="beta_h*omega_h")
    fig5.add_argument(
        "--ratio", type=float, default=8.0, help="(beta_c*omega_c)/(beta_h*omega_h)"
    )
    fig5.add_argument("--freq-ratio", type=float, default=0.5, help="omega_c/omega_h")
    fig5.add_argument("--output")
    fig5.set_defaults(func=cmd_fig5)

    bound = sub.add_parser("lp-bound", help="LP upper bound on catalytic work")
    add_engine_arguments(bound)
    bound.add_argument("--catalyst-dim", type=int, default=1)
    bound.add_argument(
        "--catalyst-populations",
        help="comma list of catalyst populations (default: uniform)",
    )
    bound.add_argument("--output")
    bound.set_defaults(func=cmd_lp_bound)

    check = sub.add_parser("coherence-check", help="randomised catalyst-coherence suite")
    check.add_argument("--trials", type=int, default=200)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--catalyst-dims", default="2,3")
    check.add_argument("--output")
    check.set_defaults(func=cmd_coherence_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow shows up as a non-finite result, which exits 2 on its own
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoEngineRegimeError, InfeasibleCatalystError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GuardExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CoherenceCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
