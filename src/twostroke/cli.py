"""Command-line front door.

Subcommands: report, table24, optimize, regime-map, fig5, lp-bound,
coherence-check.  Scalar results are printed as JSON, tables as CSV; every
float is rendered with 12 significant digits so emitted files are stable
byte-for-byte across runs and platforms.

Exit codes: 0 success (also when the reader closes stdout early, as `| head`
does: the rest of the output is dropped, with no traceback), 1 a violated
physics invariant (a failed coherence check), 2 usage or configuration error
(any other ValueError), non-finite result or a stdout that cannot be written
(`-h` included), 3 no engine regime, 4 size or iteration guard exceeded or an
internal fault (a RuntimeError).  A flow solve that yields a negative or
non-finite catalyst is such a fault, since a simple permutation's catalyst
always exists.  So is an `lp-bound` certificate whose residuals exceed
_CERTIFICATE_TOL: it is never printed as optimal.  A failure prints one
`error:` line and no stdout, except optimize's exit 3 (its JSON).
`regime-map` exits 4 on a grid of more than `catalysis.MAX_REGIME_ROWS` CSV
rows (resolution**2 * (2 + number of d/n ratios)), `report --simple` and
`fig5` on a catalyst of more than `catalysis.MAX_FLOW_ENTRIES` blocks (one
split's d populations, or fig5's d rows), `lp-bound` on a body above `lp.MAX_DIMENSION` and
`coherence-check` on a drawn catalyst above `coherence.MAX_SUITE_CATALYST_DIM`,
all before any allocation.
`regime-map` formats every axis value first and then writes its CSV one
beta row at a time, so it holds about 17 bytes per row (a reference to a
shared row text, its flag and a gather index), not the CSV's text.
`fig5` checks that every work of its (d, 3) curve array is finite, then
formats and writes the CSV _CSV_ROWS rows at a time.
`report --perm/--otto`, `table24` and `optimize` share `permutations.sweep_heats`.
The parser is built once per process, on the first `main` call, and reused.
An argv that starts with a subcommand is parsed once, by that subcommand's
parser; any other argv goes through the top-level parser, which prints the
help or the usage error.  A subcommand's parser takes a plain argv, each
token a whole flag of that subcommand (a store flag followed by its value,
which starts with "-" only as a negative number, or a switch alone), in one
pass over its own argparse actions, so a new `add_argument` needs no second
table; the namespace is argparse's, defaults and last-occurrence-wins
included.  Help, usage errors, abbreviations, `--flag=value` and `--` stay
argparse's, byte for byte.  JSON is written by one recursive pass,
`_json_parts`, that rounds each float and appends the exact text of
`json.dumps(..., indent=2)` to a list of pieces, a list joined _JSON_ITEMS
items a piece, so `report --simple`'s long populations are never one text;
every piece is rendered before the first write.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from typing import Iterable, Sequence

import numpy as np

from . import catalysis, coherence, lp, permutations, thermo
from .errors import (
    ConfigError,
    CoherenceCheckError,
    GuardExceededError,
    NoEngineRegimeError,
)


def fmt12(value: float | None) -> str:
    """The text of `value` at 12 significant digits, "0" for -0.0 and "" for
    None, so emitted files are stable.  A non-finite value cannot be emitted:
    `thermo.check_finite` refuses it with ConfigError (exit 2)."""
    if value is None:
        return ""
    text = f"{float(value):.12g}"
    if text in ("inf", "-inf", "nan"):
        thermo.check_finite(value)
    return "0" if text == "-0" else text


def round12(value: float) -> float:
    """The float of fmt12's text: `value` rounded to 12 significant digits,
    -0.0 normalised to 0.0, a non-finite value refused as fmt12 refuses it."""
    return float(fmt12(value))


def _emit(chunks: Iterable[str], output: str | None) -> None:
    """Write text chunks in order to --output or to stdout; an unwritable path
    raises ConfigError."""
    if output is not None:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        except OSError as exc:
            raise ConfigError(f"cannot write --output {output!r}: {exc.strerror}") from exc
    else:
        sys.stdout.writelines(chunks)


_encode_str = json.encoder.encode_basestring_ascii
_CSV_ROWS = 2**14  # fig5 rows formatted per written chunk
_JSON_ITEMS = 2**12  # items of a long JSON list rendered per written piece
_CERTIFICATE_TOL = 1e-7  # lp-bound residual limit, in units of max(1, omega) for the dual


def _json_parts(value, indent: str, out: list[str]) -> None:
    """Append the text of `json.dumps(value, indent=2)`, with every float
    through round12, to `out`.

    `indent` is the newline and indentation of the enclosing level.  json's
    C encoder is used only without `indent`, so one recursive pass here is
    faster than rounding a copy and running json's Python encoder on it.  A
    list is joined _JSON_ITEMS items per appended piece, so that no text
    holds a long list whole.
    """
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(round12(value)))
    elif isinstance(value, dict):
        inner = indent + "  "
        opening = "{" + inner
        for key, item in value.items():
            out.append(opening + _encode_str(key) + ": ")
            _json_parts(item, inner, out)
            opening = "," + inner
        out.append(indent + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = indent + "  "
        separator = "," + inner
        for first in range(0, len(value), _JSON_ITEMS):
            piece = []
            for item in value[first : first + _JSON_ITEMS]:
                piece.append(separator)
                _json_parts(item, inner, piece)
            if not first:
                piece[0] = "[" + inner
            out.append("".join(piece))
        out.append(indent + "]" if value else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value) -> str:
    """The JSON text `_emit_json` writes, without its final newline."""
    out: list[str] = []
    _json_parts(value, "\n", out)
    return "".join(out)


def _emit_json(payload: dict, output: str | None) -> None:
    # every piece is rendered before the first write, so a failure prints no stdout
    out: list[str] = []
    _json_parts(payload, "\n", out)
    out.append("\n")
    _emit(out, output)


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


def resolve_engine(args) -> tuple[float, float, thermo.InverseTemperaturePair]:
    """(omega_h, omega_c, beta) from the explicit or the dimensionless flags."""
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
        return thermo.dimensionless_engine(args.bh_wh, args.bc_wc, args.freq_ratio)
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
    thermo.check_spacings(args.omega_h, args.omega_c)
    beta = thermo.InverseTemperaturePair(args.beta_h, args.beta_c)
    return float(args.omega_h), float(args.omega_c), beta


def _parse_int_pair(text: str, name: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{name} expects two comma-separated integers")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{name} expects integers, got {text!r}") from exc


def _parse_perm(text: str) -> tuple[int, ...]:
    if text.strip().lower() == "identity":
        return tuple(range(4))
    try:
        image = tuple(int(part) for part in text.split(","))
        if len(image) == 4:
            return permutations.PermutationMap(image).image
    except ValueError as exc:
        raise ConfigError(
            f"--perm expects 'identity' or a valid image list: {text!r}"
        ) from exc
    raise ConfigError("--perm expects an image of the 4 working-body levels")


def cmd_report(args) -> int:
    omega_h, omega_c, beta = resolve_engine(args)
    if sum(map(bool, (args.otto, args.simple, args.perm))) != 1:
        raise ConfigError("choose exactly one of --otto, --simple M,N or --perm IMAGE")
    if args.simple:
        shape = catalysis.SimplePermSpec(*_parse_int_pair(args.simple, "--simple"))
        report, catalyst = catalysis.simple_perm_report(shape, omega_h, omega_c, beta)
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
    image = permutations.OTTO_SWAP_IMAGE if args.otto else _parse_perm(args.perm)
    hot, cold = thermo.Spectrum.qubit(omega_h), thermo.Spectrum.qubit(omega_c)
    _, heat_hot, heat_cold = permutations.sweep_heats(
        hot, cold, beta.beta_h, beta.beta_c, np.array([image])
    )
    report = thermo.CycleReport.from_heats(heat_hot[0], heat_cold[0])
    if args.otto and thermo.ENGINE not in report.modes:
        raise NoEngineRegimeError("no engine regime")
    _emit_json(report.to_dict(), args.output)
    return 0


def cmd_table24(args) -> int:
    omega_h, omega_c, beta = resolve_engine(args)
    rows = permutations.qubit_table(beta.beta_h, omega_h, beta.beta_c, omega_c)
    lines = ["perm_index,image,work,efficiency"]
    for row in rows:
        image = "-".join(str(x) for x in row.perm.image)
        lines.append(f"{row.index},{image},{fmt12(row.work)},{fmt12(row.efficiency)}")
    _emit(("\n".join(lines) + "\n",), args.output)
    return 0


def cmd_optimize(args) -> int:
    omega_h, omega_c, beta = resolve_engine(args)
    result = permutations.optimal_noncatalytic(
        thermo.Spectrum.qubit(omega_h),
        thermo.Spectrum.qubit(omega_c),
        beta,
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
    result = catalysis.regime_map(
        qualities,
        (args.beta_ratio_min, args.beta_ratio_max),
        (args.freq_ratio_min, args.freq_ratio_max),
        args.resolution,
    )
    header = (
        "# regime map over beta_c/beta_h (beta_ratio) and omega_c/omega_h (freq_ratio)\n"
        "# normalisation: beta_h = 1 and omega_h = 1 at every grid point\n"
        "# catalytic rows realise d/n in lowest terms\n"
        "# feasible: carnot = beta_c*omega_c > beta_h*omega_h (beta_ratio*freq_ratio > 1);"
        " otto = bare hot-cold swap runs;"
        " catalytic = the d/n simple permutation runs with a valid catalyst\n"
        "beta_ratio,freq_ratio,d_over_n,feasible,region_label\n"
    )
    # One row per (beta, freq, region), beta outermost.  Every axis value is
    # formatted before the first write, so a failure prints no stdout.  A
    # table holds each frequency's rows for both flag values, row 2k + flag
    # of frequency j at lines[2K*j + 2k + flag] = "freq_j,label_k,flag,region_k\n"
    # for K regions, and one gather takes every point's rows.  A beta row is
    # joined only when it is written: joining with "beta," and prefixing it
    # puts "beta," before every row.
    suffixes = np.array(
        [f",{label},{flag},{region}\n" for label, region, _ in result.regions for flag in (0, 1)],
        dtype=object,
    )
    freq_texts = np.array([fmt12(freq) for freq in result.freq_ratios], dtype=object)
    lines = (freq_texts[:, None] + suffixes).ravel()
    flags = np.stack([mask for _, _, mask in result.regions], axis=-1)
    rows = lines.take(flags + np.arange(0, lines.size, 2).reshape(flags.shape[1:]))
    beta_texts = [fmt12(beta) + "," for beta in result.beta_ratios]
    body = (
        beta_text + beta_text.join(row.tolist())
        for beta_text, row in zip(beta_texts, rows.reshape(len(beta_texts), -1))
    )
    _emit(itertools.chain((header,), body), args.output)
    return 0


def cmd_fig5(args) -> int:
    curve = catalysis.fig_work_vs_cold_swaps(
        args.catalyst_dim, args.bh_wh, args.ratio, args.freq_ratio
    )
    baseline = fmt12(curve[0, 2])  # the same at every n; the works are finite
    # "%.12g" is fmt12's format, and adding 0.0 turns -0.0 into the 0 it prints
    row = "%d,%.12g," + baseline + "\n"
    body = (
        (row * len(part)) % tuple((part + 0.0).ravel().tolist())
        for part in np.split(curve[:, :2], range(_CSV_ROWS, len(curve), _CSV_ROWS))
    )
    _emit(itertools.chain(("n,W_catalytic,W_noncatalytic_baseline\n",), body), args.output)
    return 0


def cmd_lp_bound(args) -> int:
    omega_h, omega_c, beta = resolve_engine(args)
    catalyst_dim = args.catalyst_dim
    if catalyst_dim < 1:
        raise ConfigError("catalyst dimension must be at least 1")
    lp.check_dimension(4 * catalyst_dim)  # before building a state of that size
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
    initial = thermo.product_state(
        populations,
        thermo.gibbs_populations(hot, beta.beta_h),
        thermo.gibbs_populations(cold, beta.beta_c),
    )
    hamiltonian = thermo.combined_spectrum(thermo.Spectrum.trivial(catalyst_dim), hot, cold)
    solution = lp.lp_work_upper_bound(hamiltonian, initial, catalyst_dim)
    # a certificate that fails its own residuals is a fault, never "optimal"
    dual_limit = _CERTIFICATE_TOL * max(1.0, omega_h, omega_c)
    for name, residual in solution.residuals.items():
        limit = dual_limit if name == "dual_max_violation" else _CERTIFICATE_TOL
        if not residual <= limit:
            raise RuntimeError(
                f"the work bound failed its certificate: {name} {residual:.3e} exceeds {limit:.3e}"
            )
    _emit_json(solution.to_dict(), args.output)
    return 0


def cmd_coherence_check(args) -> int:
    try:
        dims = tuple(int(part) for part in args.catalyst_dims.split(","))
    except ValueError as exc:
        raise ConfigError("--catalyst-dims expects comma-separated integers") from exc
    if args.trials < 1 or not dims or min(dims) < 1:
        raise ConfigError("--trials and --catalyst-dims must be positive")
    if args.seed < 0:
        raise ConfigError("--seed must be a non-negative integer")
    result = coherence.run_coherence_suite(args.trials, args.seed, dims)
    payload = {
        "trials": result.trials,
        "max_heat_mismatch": result.max_heat_mismatch,
        "max_cyclicity_residual": result.max_cyclicity_residual,
    }
    _emit_json(payload, args.output)
    return 0


# argparse's own pattern (^-\d+$|^-\d*\.\d+$) reads -1e-3 and -inf as options
_NEGATIVE_NUMBER = re.compile(
    r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$|^-(?:inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it prints one `error:` line,
    and takes any negative float literal (-1e-3, -inf, -nan) as a value, so
    the range check, not argparse, refuses it.  A help text that cannot be
    written raises OSError inside `main`, which reports it (exit 2): argparse
    would drop the write error, or leave it to the interpreter's last flush.

    `parse_args` first tries `_exact_parse`, which reads a plain
    `--flag value ... --switch` argv straight from this parser's own actions,
    so a new `add_argument` needs no second table.  Any other argv goes to
    argparse unchanged, so help, usage errors, abbreviations and
    `--flag=value` stay argparse's."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def parse_args(self, args=None, namespace=None):
        parsed = None if args is None else self._exact_parse(args, namespace)
        return super().parse_args(args, namespace) if parsed is None else parsed

    def _exact_parse(self, args, namespace):
        """The namespace argparse would give, or None, leaving `namespace`
        untouched, unless every token is a whole option string of this parser:
        a store option followed by one value that does not start with "-" (a
        _NEGATIVE_NUMBER literal excepted), or a store_true option alone.  A
        parser with a positional, a required action or an exclusive group, and
        a value that fails its type or choices, go to argparse too.  (argparse
        takes a negative literal as a value only while no option string is its
        first two characters or starts with it, as none here does.)"""
        if self._mutually_exclusive_groups or any(
            action.required or not action.option_strings for action in self._actions
        ):
            return None
        parsed = []
        tokens = iter(args)
        for token in tokens:
            action = self._option_string_actions.get(token)
            kind = type(action)
            if kind is argparse._StoreTrueAction:
                parsed.append((action, action.const))
                continue
            if kind is not argparse._StoreAction or action.nargs is not None:
                return None
            value = next(tokens, None)
            if value is None or value.startswith("-") and not (
                self._negative_number_matcher.match(value)
                and not self._has_negative_number_optionals
            ):
                return None
            try:
                value = value if action.type is None else action.type(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            parsed.append((action, value))
        namespace = argparse.Namespace() if namespace is None else namespace
        seen = {action for action, _ in parsed}
        for action in self._actions:
            dest, default = action.dest, action.default
            if dest is argparse.SUPPRESS or default is argparse.SUPPRESS:
                continue
            if hasattr(namespace, dest):
                continue
            # argparse runs a string default through `type` when the option is absent
            if isinstance(default, str) and action not in seen:
                default = self._get_value(action, default)
            setattr(namespace, dest, default)
        for dest, default in self._defaults.items():
            if not hasattr(namespace, dest):
                setattr(namespace, dest, default)
        for action, value in parsed:
            setattr(namespace, action.dest, value)
        return namespace

    def error(self, message: str):
        raise ConfigError(message)

    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)

    def exit(self, status: int = 0, message: str | None = None):
        sys.stdout.flush()  # the help just written, while main can still report a failure
        super().exit(status, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, shared by every `main` call; do not modify it.

    Its `commands` maps each subcommand name to that subcommand's parser.
    """
    parser = _Parser(
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
    report.set_defaults(func=cmd_report)

    table = sub.add_parser("table24", help="all 24 qubit permutation strokes as CSV")
    add_engine_arguments(table)
    table.set_defaults(func=cmd_table24)

    optimize = sub.add_parser("optimize", help="exhaustive non-catalytic optimisation")
    add_engine_arguments(optimize)
    optimize.add_argument(
        "--objective", choices=("efficiency", "work"), default="efficiency"
    )
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
    fig5.set_defaults(func=cmd_fig5)

    bound = sub.add_parser("lp-bound", help="LP upper bound on catalytic work")
    add_engine_arguments(bound)
    bound.add_argument("--catalyst-dim", type=int, default=1)
    bound.add_argument(
        "--catalyst-populations",
        help="comma list of catalyst populations (default: uniform)",
    )
    bound.set_defaults(func=cmd_lp_bound)

    check = sub.add_parser("coherence-check", help="randomised catalyst-coherence suite")
    check.add_argument("--trials", type=int, default=200)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--catalyst-dims", default="2,3")
    check.set_defaults(func=cmd_coherence_check)

    for command in sub.choices.values():
        command.add_argument("--output")
    parser.commands = sub.choices
    return parser


def _discard_stdout() -> None:
    """Point a real stdout fd at devnull after a failed write, so that the
    interpreter's final flush of what is still buffered stays silent."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # an in-process stream such as StringIO
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        # A known subcommand goes straight to its own parser, the one the
        # top-level parser would hand the rest of argv to; anything else
        # (no argv, -h, a typo) gets the top-level help or usage error.
        command = parser.commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        # overflow shows up as a non-finite result, which exits 2 on its own
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`| head`), which ends the output, not the run.
        _discard_stdout()
        return 0
    except OSError as exc:
        # Any other failed write to stdout (`> /dev/full`): `_emit` turns an
        # unwritable --output into ConfigError, so no other OSError gets here.
        _discard_stdout()
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, CoherenceCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NoEngineRegimeError):
            return 3
        if isinstance(exc, (GuardExceededError, RuntimeError)):
            return 4
        # ConfigError, or invalid input that a library call refused
        return 1 if isinstance(exc, CoherenceCheckError) else 2


if __name__ == "__main__":
    sys.exit(main())
