"""The four benchmark workloads: seeded inputs, one job each, output checks.

A workload is three functions over the `twostroke` modules passed in as
`mods` (a namespace with one attribute per module):

- `make_input(rng)` draws one job's inputs from a seeded generator;
- `run(mods, inp)` is the timed job; it looks every function up on its
  module at call time, so the tracer can wrap it there;
- `check(mods, inp, out)` runs outside the timed section and returns the
  problems it found (an empty list means the output is correct).

Every job of a workload costs about the same, so a run's percentiles
describe one job size rather than the boundary between several, and no job
takes less than about 10 ms, so timer and loop overhead stay negligible.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

RELATIVE_TOL = 1e-9
RESIDUAL_TOL = 1e-9
FIRST_LAW_TOL = 1e-11
MODE_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_input: Callable[[np.random.Generator], dict]
    run: Callable[[Any, dict], Any]
    check: Callable[[Any, dict, Any], list]
    warm: Callable[[Any], None] = lambda mods: None


def call_cli(mods, argv: list[str]) -> tuple[int, str]:
    """Run one CLI invocation in process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mods.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return code, out.getvalue()


def strict_json(text: str):
    """Parse JSON, refusing NaN and infinities."""

    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")

    return json.loads(text, parse_constant=reject)


def _close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * max(abs(expected), 1e-300)


def _qubit_gibbs(beta_omega: float) -> np.ndarray:
    weight = math.exp(-beta_omega)
    return np.array([1.0, weight]) / (1.0 + weight)


# --- catalyst-ladder -------------------------------------------------------

LADDER_DIM = 120


def ladder_input(rng: np.random.Generator) -> dict:
    return {
        "bh_wh": float(rng.uniform(0.2, 0.3)),
        "ratio": float(rng.uniform(6.0, 10.0)),
        "freq_ratio": float(rng.uniform(0.5, 0.9)),
    }


def ladder_run(mods, inp: dict):
    return mods.catalysis.fig_work_vs_cold_swaps(
        LADDER_DIM, inp["bh_wh"], inp["ratio"], inp["freq_ratio"]
    )


def ladder_check(mods, inp: dict, rows) -> list:
    """Each work against (d - n*freq)*delta_p in closed form; the baseline
    against the ergotropy of the sorted two-qubit populations."""
    d, freq = LADDER_DIM, inp["freq_ratio"]
    boltz_hot = math.exp(-inp["bh_wh"])
    boltz_cold = math.exp(-inp["bh_wh"] * inp["ratio"])
    probs = np.kron(_qubit_gibbs(inp["bh_wh"]), _qubit_gibbs(inp["bh_wh"] * inp["ratio"]))
    energies = np.array([0.0, freq, 1.0, 1.0 + freq])
    passive = np.sort(energies) @ np.sort(probs)[::-1]
    baseline = float(energies @ probs - passive)
    if [row[0] for row in rows] != list(range(1, d + 1)):
        return ["rows are not n = 1..d in order"]
    expected = [
        (d - n * freq) * mods.catalysis.delta_p_closed_form(
            mods.catalysis.SimplePermSpec(d - n, n), boltz_hot, boltz_cold
        )
        for n in range(1, d + 1)
    ]
    # Where the transfer changes sign the closed form cancels to a few digits
    # (at 1e-20 it can be off by 1e-9 relative, more than the solve), so rows
    # far below the curve's peak are compared at 1e-9 of peak * 1e-9.
    floor = 1e-9 * max(abs(e) for e in expected)
    problems = []
    for (n, work, row_baseline), want in zip(rows, expected):
        if not abs(work - want) <= RELATIVE_TOL * max(abs(want), floor):
            problems.append(f"n={n}: work {work!r} != closed form {want!r}")
        if abs(row_baseline - baseline) > 1e-12:
            problems.append(f"n={n}: baseline {row_baseline!r} != ergotropy {baseline!r}")
    return problems


# --- regime-csv ------------------------------------------------------------

REGIME_QUALITIES = ("5/3", "2.2", "3.2", "4", "63/2")
REGIME_RESOLUTION = 40
REGIME_COLUMNS = "beta_ratio,freq_ratio,d_over_n,feasible,region_label"
REGIME_REDERIVED = 5


def regime_input(rng: np.random.Generator) -> dict:
    return {
        "beta_lo": float(rng.uniform(1.01, 1.2)),
        "beta_hi": float(rng.uniform(3.5, 4.5)),
        "freq_lo": float(rng.uniform(0.05, 0.2)),
        "freq_hi": float(rng.uniform(2.0, 2.5)),
        "rederive_seed": int(rng.integers(2**31)),
    }


def regime_argv(inp: dict) -> list[str]:
    return [
        "regime-map",
        "--d-over-n", ",".join(REGIME_QUALITIES),
        "--resolution", str(REGIME_RESOLUTION),
        "--beta-ratio-min", repr(inp["beta_lo"]),
        "--beta-ratio-max", repr(inp["beta_hi"]),
        "--freq-ratio-min", repr(inp["freq_lo"]),
        "--freq-ratio-max", repr(inp["freq_hi"]),
    ]


def regime_run(mods, inp: dict):
    return call_cli(mods, regime_argv(inp))


def regime_check(mods, inp: dict, out) -> list:
    """Row layout, carnot/otto flags from their definitions, catalytic rows
    inside their d/n window, and a few catalytic rows re-derived point by
    point with the scalar solver."""
    code, text = out
    if code != 0:
        return [f"exit code {code}"]
    lines = text.split("\n")
    if lines[-1] != "":
        return ["output does not end with a newline"]
    lines = lines[:-1]
    res = REGIME_RESOLUTION
    qualities = [Fraction(q) for q in REGIME_QUALITIES]
    labels = [f"{q.numerator}/{q.denominator}" for q in qualities]
    per_point = 2 + len(qualities)
    if len(lines) != 5 + res * res * per_point:
        return [f"{len(lines)} lines, expected {5 + res * res * per_point}"]
    if not all(line.startswith("#") for line in lines[:4]) or lines[4] != REGIME_COLUMNS:
        return ["header lines or column line wrong"]
    betas = np.linspace(inp["beta_lo"], inp["beta_hi"], res)
    freqs = np.linspace(inp["freq_lo"], inp["freq_hi"], res)
    problems = []
    candidates = []
    for point in range(res * res):
        beta, freq = float(betas[point // res]), float(freqs[point % res])
        product = beta * freq
        carnot = product > 1.0
        expected = [("", carnot, "carnot"), ("", freq < 1.0 and carnot, "otto")]
        base = 5 + point * per_point
        for offset, (label, flag, region) in enumerate(expected):
            cells = lines[base + offset].split(",")
            if cells[2:] != [label, str(int(flag)), region]:
                problems.append(f"line {base + offset}: {cells} expected flag {int(flag)}")
        for k, (quality, label) in enumerate(zip(qualities, labels)):
            index = base + 2 + k
            cells = lines[index].split(",")
            if cells[2] != label or cells[4] != "catalytic" or cells[3] not in ("0", "1"):
                problems.append(f"line {index}: malformed catalytic row {cells}")
                continue
            inside = 1.0 < float(quality) < product
            if cells[3] == "1" and not inside:
                problems.append(f"line {index}: feasible outside the d/n window")
            if inside:
                candidates.append((index, beta, freq, quality, cells[3] == "1"))
        point_text = lines[base].split(",", 2)[:2]
        if not (_close(float(point_text[0]), beta, 1e-11) and _close(float(point_text[1]), freq, 1e-11)):
            problems.append(f"line {base}: grid point {point_text} != ({beta!r}, {freq!r})")
        if any(lines[index].split(",", 2)[:2] != point_text for index in range(base + 1, base + per_point)):
            problems.append(f"lines {base}..{base + per_point - 1}: grid point differs between rows")
    if problems or not candidates:
        return problems or ["no catalytic row inside its window"]
    rng = np.random.default_rng(inp["rederive_seed"])
    picks = rng.choice(len(candidates), size=min(REGIME_REDERIVED, len(candidates)), replace=False)
    for pick in picks:
        index, beta, freq, quality, feasible = candidates[int(pick)]
        shape = mods.catalysis.SimplePermSpec(quality.numerator - quality.denominator, quality.denominator)
        try:
            report, _ = mods.catalysis.simple_perm_report(
                shape, 1.0, freq, mods.thermo.InverseTemperaturePair(1.0, beta)
            )
            expected = report.work > MODE_TOL
        except mods.errors.InfeasibleCatalystError:
            expected = False
        if expected != feasible:
            problems.append(f"line {index}: feasible={feasible}, scalar solve says {expected}")
    return problems


# --- lp-bound --------------------------------------------------------------

LP_CATALYST_DIM = 2


def lp_input(rng: np.random.Generator) -> dict:
    return {
        "c": float(rng.uniform(0.55, 0.9)),
        "omega_c": float(rng.uniform(0.3, 0.8)),
        "beta_c": float(rng.uniform(2.0, 5.0)),
    }


def lp_run(mods, inp: dict):
    thermo = mods.thermo
    hot = thermo.Spectrum.qubit(1.0)
    cold = thermo.Spectrum.qubit(inp["omega_c"])
    initial = thermo.product_state(
        [inp["c"], 1.0 - inp["c"]],
        thermo.gibbs_populations(hot, 1.0),
        thermo.gibbs_populations(cold, inp["beta_c"]),
    )
    hamiltonian = thermo.combined_spectrum(thermo.Spectrum.trivial(LP_CATALYST_DIM), hot, cold)
    return mods.lp.lp_work_upper_bound(hamiltonian, initial, LP_CATALYST_DIM)


def bistochastic_bound(probs: np.ndarray, energies: np.ndarray, catalyst_dim: int) -> float:
    """Best work over bistochastic B that keep the catalyst block sums of B p,
    solved by HiGHS over the n*n entries of B."""
    from scipy.optimize import linprog

    n = probs.size
    block = n // catalyst_dim
    # cost[i, j] multiplies B[i, j]: the final energy is sum_ij E_i B_ij p_j
    cost = np.outer(energies, probs).reshape(-1)
    rows, rhs = [], []
    for i in range(n):
        row = np.zeros((n, n))
        row[i, :] = 1.0
        rows.append(row.reshape(-1))
        rhs.append(1.0)
    for j in range(n):
        col = np.zeros((n, n))
        col[:, j] = 1.0
        rows.append(col.reshape(-1))
        rhs.append(1.0)
    for k in range(catalyst_dim):
        marg = np.zeros((n, n))
        marg[k * block:(k + 1) * block, :] = probs
        rows.append(marg.reshape(-1))
        rhs.append(float(probs[k * block:(k + 1) * block].sum()))
    result = linprog(cost, A_eq=np.array(rows), b_eq=np.array(rhs), bounds=(0, None), method="highs")
    if result.status != 0:
        raise RuntimeError(f"HiGHS failed: {result.message}")
    return float(energies @ probs - result.fun)


def lp_check(mods, inp: dict, solution) -> list:
    """Status, residuals, and the value against an independent HiGHS solve of
    the same relaxation in bistochastic-matrix coordinates."""
    if solution.status != "optimal":
        return [f"status {solution.status}"]
    problems = [
        f"residual {name} = {value!r}"
        for name, value in solution.residuals.items()
        if not abs(value) <= RESIDUAL_TOL
    ]
    catalyst = np.array([inp["c"], 1.0 - inp["c"]])
    probs = np.kron(np.kron(catalyst, _qubit_gibbs(1.0)), _qubit_gibbs(inp["beta_c"] * inp["omega_c"]))
    energies = np.tile([0.0, inp["omega_c"], 1.0, 1.0 + inp["omega_c"]], LP_CATALYST_DIM)
    expected = bistochastic_bound(probs, energies, LP_CATALYST_DIM)
    if not abs(solution.value - expected) <= 1e-9:
        problems.append(f"value {solution.value!r} != HiGHS {expected!r}")
    return problems


def lp_warm(mods) -> None:
    mods.permutations.images_array(4 * LP_CATALYST_DIM)


# --- cli-queries -----------------------------------------------------------


def cli_input(rng: np.random.Generator) -> dict:
    beta_h = float(rng.uniform(0.5, 1.0))
    d = int(rng.integers(2, 6))
    return {
        "beta_h": beta_h,
        "beta_c": beta_h * float(rng.uniform(1.5, 4.0)),
        "omega_c": float(rng.uniform(0.3, 1.3)),
        "m": d - int(rng.integers(1, d + 1)),
        "d": d,
        "perm": [int(x) for x in rng.permutation(4)],
        "coherence_seed": int(rng.integers(2**31)),
    }


def cli_calls(inp: dict) -> list[list[str]]:
    engine = [
        "--beta-h", repr(inp["beta_h"]), "--beta-c", repr(inp["beta_c"]),
        "--omega-h", "1", "--omega-c", repr(inp["omega_c"]),
    ]
    ratio = inp["beta_c"] * inp["omega_c"] / inp["beta_h"]
    return [
        ["report", *engine, "--simple", f"{inp['m']},{inp['d'] - inp['m']}"],
        ["report", *engine, "--perm", ",".join(map(str, inp["perm"]))],
        ["report", *engine, "--otto"],
        ["table24", *engine],
        ["optimize", *engine, "--objective", "efficiency"],
        ["optimize", *engine, "--objective", "work"],
        ["lp-bound", *engine, "--catalyst-dim", "1"],
        ["fig5", "--catalyst-dim", "12", "--bh-wh", repr(inp["beta_h"]),
         "--ratio", repr(ratio), "--freq-ratio", repr(inp["omega_c"])],
        ["coherence-check", "--trials", "3", "--seed", str(inp["coherence_seed"])],
    ]


def cli_run(mods, inp: dict):
    return [call_cli(mods, argv) for argv in cli_calls(inp)]


def _first_law(report: dict, where: str) -> list:
    gap = report["work"] - (report["heat_hot"] + report["heat_cold"])
    scale = max(1.0, abs(report["heat_hot"]), abs(report["heat_cold"]))
    return [] if abs(gap) <= FIRST_LAW_TOL * scale else [f"{where}: first law off by {gap!r}"]


def cli_check(mods, inp: dict, outs) -> list:
    """Exit codes, strict JSON, CSV row counts, the first law, and the
    cross-checks between table24, optimize and lp-bound."""
    (simple, perm, otto, table, opt_eff, opt_work, bound, fig5, coherence) = outs
    hot = _qubit_gibbs(inp["beta_h"])
    cold = _qubit_gibbs(inp["beta_c"] * inp["omega_c"])
    otto_work = (1.0 - inp["omega_c"]) * (hot[1] - cold[1])
    problems = []

    def expect(name, out, code):
        if out[0] != code:
            problems.append(f"{name}: exit code {out[0]}, expected {code}")
            return False
        return True

    if expect("report --simple", simple, 0):
        payload = strict_json(simple[1])
        problems += _first_law(payload["report"], "report --simple")
        if len(payload["catalyst"]["populations"]) != inp["d"]:
            problems.append("report --simple: catalyst has the wrong dimension")
    if expect("report --perm", perm, 0):
        problems += _first_law(strict_json(perm[1]), "report --perm")
    if expect("report --otto", otto, 0 if otto_work > MODE_TOL else 3) and otto[0] == 0:
        problems += _first_law(strict_json(otto[1]), "report --otto")

    max_work = None
    if expect("table24", table, 0):
        rows = table[1].split("\n")
        if rows[0] != "perm_index,image,work,efficiency" or len(rows) != 26 or rows[-1] != "":
            problems.append("table24: wrong header or row count")
        else:
            max_work = max(float(row.split(",")[2]) for row in rows[1:-1])
    engine = max_work is not None and max_work > MODE_TOL
    for name, out in (("optimize --objective efficiency", opt_eff), ("optimize --objective work", opt_work)):
        if expect(name, out, 0 if engine else 3):
            payload = strict_json(out[1])
            if payload["report"] is not None:
                problems += _first_law(payload["report"], name)
    if engine and opt_work[0] == 0:
        best = strict_json(opt_work[1])["best_value"]
        if not _close(best, max_work, FIRST_LAW_TOL):
            problems.append(f"optimize work {best!r} != table24 maximum {max_work!r}")

    if expect("lp-bound", bound, 0):
        payload = strict_json(bound[1])
        if payload["status"] != "optimal":
            problems.append(f"lp-bound: status {payload['status']}")
        problems += [
            f"lp-bound: residual {name} = {value!r}"
            for name, value in payload["residuals"].items()
            if not abs(value) <= RESIDUAL_TOL
        ]
        if max_work is not None and abs(payload["value"] - max(max_work, 0.0)) > FIRST_LAW_TOL:
            problems.append(f"lp-bound value {payload['value']!r} != best permutation work")
    if expect("fig5", fig5, 0):
        rows = fig5[1].split("\n")
        if rows[0] != "n,W_catalytic,W_noncatalytic_baseline" or len(rows) != 14 or rows[-1] != "":
            problems.append("fig5: wrong header or row count")
    if expect("coherence-check", coherence, 0):
        payload = strict_json(coherence[1])
        if payload["trials"] != 3:
            problems.append("coherence-check: wrong trial count")
    return problems


def cli_warm(mods) -> None:
    mods.permutations.images_array(4)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "catalyst-ladder",
            "scalar catalyst flow solves: 120 dense 121x121 solves per job, no LP",
            ladder_input, ladder_run, ladder_check,
        ),
        Workload(
            "regime-csv",
            "batched flow solves over a 40x40 grid for five d/n ratios plus CSV rendering through the CLI",
            regime_input, regime_run, regime_check,
        ),
        Workload(
            "lp-bound",
            "exact LP work bound at dimension 8: 40320 permutation columns built, deduplicated and solved",
            lp_input, lp_run, lp_check, lp_warm,
        ),
        Workload(
            "cli-queries",
            "nine small CLI calls per job: parsing, validation, bookkeeping and rendering dominate",
            cli_input, cli_run, cli_check, cli_warm,
        ),
    )
}
