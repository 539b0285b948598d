import argparse
import dataclasses
import errno
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twostroke as ts
from twostroke import catalysis, cli, coherence, lp, simplex
from twostroke.cli import build_parser, fmt12, main
from twostroke.errors import ConfigError

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"
ENGINE = ("--beta-h", "1", "--beta-c", "3", "--omega-h", "1", "--omega-c", "0.5")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_cli(*argv):
    """(exit code, stdout) of one call in a new interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "twostroke.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    return done.returncode, done.stdout


def recorded_emit(monkeypatch):
    """The pieces of the text given to `_emit`, which still writes them."""
    pieces = []
    emit = cli._emit

    def record(text, output):
        pieces.extend(text)
        emit(pieces, output)

    monkeypatch.setattr(cli, "_emit", record)
    return pieces


class TestReport:
    def test_worked_example_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "report", "--beta-h", "6", "--beta-c", "7",
            "--omega-h", "2", "--omega-c", "3", "--simple", "2,3",
        )
        assert code == 0
        assert out == (GOLDEN / "report_worked_example.json").read_text()
        payload = json.loads(out)
        assert payload["report"]["efficiency"] == 0.1
        assert payload["report"]["work"] > 0.0

    def test_otto_out_of_regime(self, capsys):
        code, out, err = run_cli(
            capsys,
            "report", "--beta-h", "6", "--beta-c", "7",
            "--omega-h", "2", "--omega-c", "3", "--otto",
        )
        assert code == 3
        assert "no engine regime" in err

    def test_otto_in_regime(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "report", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5", "--otto",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["efficiency"] == 0.5
        assert "engine" in payload["modes"]

    def test_identity_permutation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "report", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5", "--perm", "identity",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["work"] == 0.0
        assert payload["heat_hot"] == 0.0
        assert payload["efficiency"] is None

    def test_perm_matches_table24_row(self, capsys):
        # report --perm and table24 evaluate a stroke with the same code
        rng = np.random.default_rng(8)
        for _ in range(10):
            beta_h = rng.uniform(0.05, 5.0)
            engine = [
                "--beta-h", repr(beta_h), "--beta-c", repr(beta_h * rng.uniform(1.01, 6.0)),
                "--omega-h", repr(rng.uniform(0.05, 3.0)),
                "--omega-c", repr(rng.uniform(0.05, 3.0)),
            ]
            code, table, _ = run_cli(capsys, "table24", *engine)
            assert code == 0
            for row in table.splitlines()[1:]:
                _, image, work, efficiency = row.split(",")
                code, out, _ = run_cli(
                    capsys, "report", *engine, "--perm", image.replace("-", ",")
                )
                assert code == 0
                payload = json.loads(out)
                assert payload["work"] == float(work), image
                assert payload["efficiency"] == (float(efficiency) if efficiency else None)

    def test_flag_conflicts(self, capsys):
        code, _, err = run_cli(
            capsys,
            "report", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
            "--otto", "--perm", "identity",
        )
        assert code == 2
        assert "exactly one" in err


class TestConfigValidation:
    def test_beta_ordering(self, capsys):
        code, _, err = run_cli(
            capsys,
            "report", "--beta-h", "3", "--beta-c", "1",
            "--omega-h", "1", "--omega-c", "0.5", "--otto",
        )
        assert code == 2
        assert "beta_c > beta_h" in err

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "report", "--beta-h", "1", "--otto")
        assert code == 2
        assert "missing engine flags" in err

    def test_dimensionless_needs_freq_ratio(self, capsys):
        code, _, err = run_cli(
            capsys, "table24", "--bh-wh", "1", "--bc-wc", "1.5"
        )
        assert code == 2
        assert "freq-ratio" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--omega-h", "inf"),
            ("--omega-h", "nan"),
            # the hot Boltzmann factor underflows to 0 and is rejected
            ("--omega-h", "1e3"),
        ],
    )
    def test_out_of_range_report_exits_cleanly(self, capsys, flag, value):
        params = {"--beta-h": "6", "--beta-c": "7", "--omega-h": "2", "--omega-c": "3"}
        params[flag] = value
        argv = [item for pair in params.items() for item in pair]
        code, out, err = run_cli(capsys, "report", *argv, "--simple", "2,3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # efficiencies overflow to -inf
            ["table24", "--beta-h", "2", "--beta-c", "1e308",
             "--omega-h", "3", "--omega-c", "1e308"],
            # the hot heat overflows to inf
            ["report", "--beta-h", "5e-324", "--beta-c", "2",
             "--omega-h", "1e308", "--omega-c", "1", "--simple", "1,40"],
            # the combined spectrum overflows
            ["lp-bound", "--beta-h", "1", "--beta-c", "1e300",
             "--omega-h", "1e308", "--omega-c", "1e308", "--catalyst-dim", "2"],
            # the rational efficiency 1 - n*omega_c/(d*omega_h) is below -1.8e308
            ["report", "--beta-h", "0.3", "--beta-c", "1e300",
             "--omega-h", "0.3", "--omega-c", "1e308", "--simple", "4,5"],
            # the cold heat -n*omega_c*transfer overflows to -inf
            ["report", "--beta-h", "0.25", "--beta-c", "25",
             "--omega-h", "1", "--omega-c", "1e306", "--simple", "800,200"],
        ],
    )
    def test_non_finite_result_exits_cleanly(self, capsys, argv):
        # an overflow warning would reach stderr ahead of the error line
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deep_cold_limit_solves(self, capsys):
        # exp(-beta_c*omega_c) underflows to 0 at both beta_c; the flow solve
        # takes that limit, so both print the same stroke
        outs = []
        for beta_c in ("1e308", "1e3"):
            code, out, err = run_cli(
                capsys,
                "report", "--beta-h", "6", "--beta-c", beta_c,
                "--omega-h", "2", "--omega-c", "3", "--simple", "2,3",
            )
            assert code == 0 and err == ""
            outs.append(out)
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert payload["catalyst"]["delta_p"] == 2.3194800755e-16
        assert payload["report"]["efficiency"] == 0.1

    @pytest.mark.parametrize(
        "argv",
        [
            # -1e-3 is read as a value, so the range check refuses it
            ["report", "--beta-h", "-1e-3", "--beta-c", "3",
             "--omega-h", "1", "--omega-c", "0.5", "--otto"],
            # report works out the catalyst dimension; there is no flag for it
            ["report", "--beta-h", "1", "--beta-c", "3", "--omega-h", "1",
             "--omega-c", "0.5", "--simple", "2,1", "--catalyst-dim", "3"],
            ["twostroke"],
            [],
            ["fig5", "--bh-wh", "-2e-1"],
            ["report", *ENGINE, "--simple", "1,1,1"],
            ["report", *ENGINE, "--simple", "a,b"],
            ["report", *ENGINE, "--perm", "0,1,2,3,4"],
            ["report", *ENGINE, "--perm", "0,0,1,2"],
            ["lp-bound", *ENGINE, "--catalyst-dim", "0"],
            ["lp-bound", *ENGINE, "--catalyst-dim", "2", "--catalyst-populations", "a,b"],
            ["coherence-check", "--catalyst-dims", "2,,3"],
            ["report", "--bh-wh", "1", "--freq-ratio", "0.5", "--otto"],
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        # a negative float literal is a value, never a flag without one
        assert "expected one argument" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig5", "--bh-wh", "nan"],
            ["fig5", "--freq-ratio", "inf"],
            ["fig5", "--ratio", "nan"],
            ["report", "--bh-wh", "1", "--bc-wc", "3", "--freq-ratio", "nan", "--otto"],
        ],
    )
    def test_non_finite_dimensionless_refused(self, capsys, argv):
        # fig5 and the dimensionless flags share one conversion and one check
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: dimensionless parameters must be positive and finite\n"

    def test_mixed_forms_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "table24", "--bh-wh", "1", "--bc-wc", "1.5", "--freq-ratio", "0.5",
            "--beta-h", "1",
        )
        assert code == 2


class TestTable24:
    def test_matches_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table24", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
        )
        assert code == 0
        assert out == (GOLDEN / "table24_reference.csv").read_text()

    def test_identity_row_reads_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table24", "--beta-h", "0.441", "--beta-c", "1.383",
            "--omega-h", "0.646", "--omega-c", "0.541",
        )
        assert code == 0
        assert out.splitlines()[1] == "1,0-1-2-3,0,"

    def test_dimensionless_form_equivalent(self, capsys):
        code, explicit, _ = run_cli(
            capsys,
            "table24", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
        )
        assert code == 0
        code, dimensionless, _ = run_cli(
            capsys,
            "table24", "--bh-wh", "1", "--bc-wc", "1.5", "--freq-ratio", "0.5",
        )
        assert code == 0
        assert explicit == dimensionless

    def test_deterministic(self, capsys):
        args = (
            "table24", "--beta-h", "0.7", "--beta-c", "2.9",
            "--omega-h", "1.3", "--omega-c", "0.4",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            "table24", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == (GOLDEN / "table24_reference.csv").read_text()

    @pytest.mark.parametrize("target", [".", "missing/table.csv"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, target):
        # a directory, and a file under a directory that does not exist
        code, out, err = run_cli(
            capsys,
            "table24", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5", "--output", str(tmp_path / target),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --output") and err.count("\n") == 1
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", [["table24"], ["report", "--otto"]])
    def test_empty_output_path_exits_2(self, capsys, command):
        code, out, err = run_cli(
            capsys, command[0], *ENGINE, *command[1:], "--output", ""
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --output '': ") and err.count("\n") == 1


class TestOptimize:
    def test_engine_regime(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["best_value"] == 0.5
        assert [0, 2, 1, 3] in payload["witnesses"]
        assert payload["engine_regime"] is True

    def test_report_is_the_otto_optimum(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--beta-h", "0.8869471487749057", "--beta-c", "2.68651796841689",
            "--omega-h", "1", "--omega-c", "0.33389225051650623",
        )
        assert code == 0
        payload = json.loads(out)
        # 1 - omega_c/omega_h, to 12 digits
        assert payload["best_value"] == payload["report"]["efficiency"] == 0.666107749483

    def test_no_regime_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--beta-h", "6", "--beta-c", "7",
            "--omega-h", "2", "--omega-c", "3",
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["engine_regime"] is False
        assert payload["witnesses"] == []
        assert payload["report"] is None

    def test_work_objective(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--objective", "work", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        initial = ts.product_state(
            [1.0],
            ts.gibbs_populations(ts.Spectrum.qubit(1.0), 1.0),
            ts.gibbs_populations(ts.Spectrum.qubit(0.5), 3.0),
        )
        spectrum = ts.combined_spectrum(
            ts.Spectrum.trivial(1), ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5)
        )
        expected = ts.ergotropy(initial.probs, spectrum)
        assert payload["best_value"] == pytest.approx(expected, rel=1e-11)


class TestRegimeMap:
    def test_small_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "regime-map", "--d-over-n", "5/3,2.2",
            "--beta-ratio-min", "1.05", "--beta-ratio-max", "1.5",
            "--freq-ratio-min", "0.5", "--freq-ratio-max", "1.8",
            "--resolution", "6",
        )
        assert code == 0
        lines = out.splitlines()
        header = [line for line in lines if line.startswith("#")]
        assert header[2] == "# catalytic rows realise d/n in lowest terms"
        data = [line for line in lines if line and not line.startswith("#")]
        assert data[0] == "beta_ratio,freq_ratio,d_over_n,feasible,region_label"
        # 6x6 grid, each point: carnot + otto + two catalytic rows
        assert len(data) - 1 == 36 * 4

    def test_matches_golden(self, capsys):
        code, out, err = run_cli(
            capsys,
            "regime-map", "--d-over-n", "5/3,2.2,4,1/2", "--resolution", "6",
            "--beta-ratio-min", "1.01", "--beta-ratio-max", "40",
            "--freq-ratio-min", "0.05", "--freq-ratio-max", "2.5",
        )
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "regime_map_small.csv").read_text()

    @pytest.mark.parametrize(
        "flag, value",
        [("--freq-ratio-max", "inf"), ("--beta-ratio-max", "inf"), ("--freq-ratio-min", "nan")],
    )
    def test_non_finite_range_end(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "regime-map", "--resolution", "3", flag, value)
        assert code == 2
        assert out == ""
        assert err == "error: regime map range ends must be finite\n"

    def test_bad_ratio(self, capsys):
        code, out, err = run_cli(
            capsys, "regime-map", "--d-over-n", "65", "--resolution", "4"
        )
        assert (code, err) == (0, "")
        assert out.count(",65/1,") == 16
        code, out, err = run_cli(
            capsys, "regime-map", "--d-over-n", "2,1e400", "--resolution", "4"
        )
        assert (code, out) == (2, "")
        assert err == "error: d/n ratio '1e400' exceeds the float range\n"

    def test_oversize_grid(self, capsys):
        code, out, err = run_cli(capsys, "regime-map", "--resolution", "1000000")
        assert (code, out) == (4, "")
        assert err == "error: regime map of 5000000000000 rows exceeds the cap 10000000\n"

    @staticmethod
    def reference_csv(chart):
        """The CSV written one row at a time, straight from the RegimeMap."""
        lines = [
            "# regime map over beta_c/beta_h (beta_ratio) and omega_c/omega_h (freq_ratio)",
            "# normalisation: beta_h = 1 and omega_h = 1 at every grid point",
            "# catalytic rows realise d/n in lowest terms",
            "# feasible: carnot = beta_c*omega_c > beta_h*omega_h (beta_ratio*freq_ratio > 1);"
            " otto = bare hot-cold swap runs;"
            " catalytic = the d/n simple permutation runs with a valid catalyst",
            "beta_ratio,freq_ratio,d_over_n,feasible,region_label",
        ]
        for i, beta in enumerate(chart.beta_ratios):
            for j, freq in enumerate(chart.freq_ratios):
                for label, region, mask in chart.regions:
                    lines.append(
                        f"{fmt12(beta)},{fmt12(freq)},{label},{int(mask[i, j])},{region}"
                    )
        return "\n".join(lines) + "\n"

    def test_matches_row_reference(self, capsys, tmp_path):
        rng = np.random.default_rng(12)
        pool = ["1/2", "1", "5/3", "63/2", "2.2", "3.2", "4", "7/5", "130/3"]
        for case in range(16):
            qualities = list(rng.choice(pool, size=rng.integers(1, 7), replace=False))
            resolution = int(rng.integers(2, 61))
            beta_lo = float(rng.uniform(1.01, 1.5))
            beta_hi = float(rng.uniform(beta_lo + 0.1, 40.0))
            freq_lo = float(rng.uniform(0.05, 0.5))
            freq_hi = float(rng.uniform(freq_lo + 0.1, 2.5))
            chart = ts.regime_map(
                qualities, (beta_lo, beta_hi), (freq_lo, freq_hi), resolution
            )
            argv = [
                "regime-map", "--d-over-n", ",".join(qualities),
                "--resolution", str(resolution),
                "--beta-ratio-min", repr(beta_lo), "--beta-ratio-max", repr(beta_hi),
                "--freq-ratio-min", repr(freq_lo), "--freq-ratio-max", repr(freq_hi),
            ]
            if case == 0:
                path = tmp_path / "regime.csv"
                assert run_cli(capsys, *argv, "--output", str(path)) == (0, "", "")
                out = path.read_text()
            else:
                code, out, err = run_cli(capsys, *argv)
                assert (code, err) == (0, "")
            assert out == self.reference_csv(chart), argv

    def test_many_regions_match_row_reference(self, capsys):
        # 72 regions: 144 table rows per frequency
        qualities = [f"{d}/7" for d in range(8, 78)]
        chart = ts.regime_map(qualities, (1.01, 12.0), (0.05, 2.5), 7)
        code, out, _ = run_cli(
            capsys, "regime-map", "--d-over-n", ",".join(qualities), "--resolution", "7",
            "--beta-ratio-min", "1.01", "--beta-ratio-max", "12",
            "--freq-ratio-min", "0.05", "--freq-ratio-max", "2.5",
        )
        assert code == 0
        assert out == self.reference_csv(chart)

    @pytest.mark.parametrize(
        "case", ["workload", "readme", "resolution-2", "one-ratio", "subnormal-axis"]
    )
    def test_bytes_match_point_loop(self, capsys, tmp_path, case):
        """stdout and --output bytes against a per-point triple loop."""
        rng = np.random.default_rng(2201)
        ranges = {
            "--beta-ratio-min": float(rng.uniform(1.01, 1.2)),
            "--beta-ratio-max": float(rng.uniform(3.5, 4.5)),
            "--freq-ratio-min": float(rng.uniform(0.05, 0.2)),
            "--freq-ratio-max": float(rng.uniform(2.0, 2.5)),
        }
        argv = {
            # the regime-csv benchmark's shape
            "workload": ["--d-over-n", "5/3,2.2,3.2,4,63/2", "--resolution", "40"],
            "readme": next(a for a in readme_commands() if a[0] == "regime-map")[1:],
            "resolution-2": ["--d-over-n", "1/2,63/2", "--resolution", "2"],
            "one-ratio": ["--d-over-n", "7/5", "--resolution", "23"],
            "subnormal-axis": [
                "--resolution", "9", "--freq-ratio-min", "1e-320", "--freq-ratio-max", "3e-318",
            ],
        }[case]
        if case not in ("readme", "subnormal-axis"):
            argv += [item for flag, value in ranges.items() for item in (flag, repr(value))]
        args = build_parser().commands["regime-map"].parse_args(argv)
        chart = ts.regime_map(
            args.d_over_n.split(","),
            (args.beta_ratio_min, args.beta_ratio_max),
            (args.freq_ratio_min, args.freq_ratio_max),
            args.resolution,
        )
        expected = self.reference_csv(chart).encode()
        code, out, err = run_cli(capsys, "regime-map", *argv)
        assert (code, err) == (0, "")
        assert out.encode() == expected
        path = tmp_path / "regime.csv"
        assert run_cli(capsys, "regime-map", *argv, "--output", str(path)) == (0, "", "")
        assert path.read_bytes() == expected

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads the child's VmHWM"
    )
    def test_large_map_streams_in_bounded_memory(self, tmp_path):
        """A 2.52M-row map (about 100 MB of CSV) peaks well below the CSV's size.

        The child reports its own peak RSS, VmHWM.  Neither RUSAGE_CHILDREN
        (the largest child of the whole test run) nor the child's ru_maxrss
        will do: Linux carries the forking parent's peak across exec into the
        child's ru_maxrss.  The renderer held about three copies of the CSV
        before it streamed rows (370 MB peak here); it now holds about 17
        bytes per row (about 75 MB).
        """
        path = tmp_path / "regime.csv"
        child = (
            "import re, sys\n"
            "from twostroke.cli import main\n"
            "code = main(['regime-map', '--d-over-n', '5/3,2.2,3.2,4,63/2',"
            " '--resolution', '600', '--output', sys.argv[1]])\n"
            "with open('/proc/self/status') as status:\n"
            "    peak_kb = re.search(r'VmHWM:\\s+(\\d+) kB', status.read()).group(1)\n"
            "print(code, int(peak_kb) / 1024)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-c", child, str(path)],
            capture_output=True, text=True, env=env, check=True,
        )
        code, peak_mb = done.stdout.split()
        with path.open("rb") as handle:
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))
        path.unlink()
        assert (code, done.stderr, rows) == ("0", "", 5 + 600 * 600 * 7)
        assert float(peak_mb) < 150

    def test_zero_denominator(self, capsys):
        code, out, err = run_cli(
            capsys, "regime-map", "--d-over-n", "1/0", "--resolution", "2"
        )
        assert (code, out) == (2, "")
        assert err == "error: d/n ratio '1/0' has a zero denominator\n"

    @pytest.mark.parametrize("ratio", ["nan", "inf", "abc"])
    def test_ratio_that_is_not_rational(self, capsys, ratio):
        # named as the ratio it is, by the CLI and by the library alike
        message = f"d/n ratio {ratio!r} is not a rational number"
        code, out, err = run_cli(capsys, "regime-map", "--d-over-n", ratio)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        with pytest.raises(ValueError) as info:
            catalysis.regime_map([ratio], (1.01, 2.0), (0.05, 2.0), 2)
        assert str(info.value) == message


class TestFig5:
    def test_default_curve(self, capsys):
        code, out, _ = run_cli(capsys, "fig5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,W_catalytic,W_noncatalytic_baseline"
        assert len(lines) == 31
        works = {}
        for line in lines[1:]:
            n, w, _ = line.split(",")
            works[int(n)] = float(w)
        assert all(works[n] <= 0 for n in range(1, 4))
        assert all(works[n] > 0 for n in range(4, 31))

    def test_invalid_parameters(self, capsys):
        code, _, err = run_cli(capsys, "fig5", "--ratio", "0.4", "--freq-ratio", "0.5")
        assert code == 2
        assert err == "error: hot bath must be hotter: beta_c > beta_h required\n"

    @pytest.mark.parametrize(
        "golden, argv",
        [
            # the README example: bc < bh, the cold segment runs backward
            ("fig5_dim30.csv", ["--ratio", "8", "--freq-ratio", "0.7"]),
            # bc > bh, the cold segment runs forward
            ("fig5_dim30_forward.csv", ["--ratio", "0.5", "--freq-ratio", "0.4"]),
        ],
    )
    def test_matches_golden(self, capsys, golden, argv):
        code, out, _ = run_cli(
            capsys, "fig5", "--catalyst-dim", "30", "--bh-wh", "0.25", *argv
        )
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize(
        "argv, md5",
        [
            ([], "fd37227e766bf806cf30e6631da7f869"),
            (["--ratio", "0.5", "--freq-ratio", "0.4"], "36c7185f70d4f431ac444918ab5c28ec"),
        ],
    )
    @pytest.mark.parametrize("chunks", ["one", "several"])
    def test_chunked_csv_keeps_its_bytes(self, capsys, monkeypatch, argv, md5, chunks):
        # md5 of the CSV at d = 3000 as written before the solve and the CSV
        # were chunked; several = 12 solve chunks and 3 CSV chunks, one short
        if chunks == "several":
            monkeypatch.setattr(catalysis, "_FLOW_CHUNK", 256)
            monkeypatch.setattr(cli, "_CSV_ROWS", 1100)
        writes = recorded_emit(monkeypatch)
        code, out, err = run_cli(capsys, "fig5", "--catalyst-dim", "3000", *argv)
        assert (code, err) == (0, "")
        assert hashlib.md5(out.encode()).hexdigest() == md5
        assert len(writes) == {"one": 2, "several": 4}[chunks]

    def test_overflowing_work_prints_nothing(self, capsys, monkeypatch):
        # rows 180 on overflow to -inf; the finite rows before them are not written
        monkeypatch.setattr(cli, "_CSV_ROWS", 100)
        code, out, err = run_cli(
            capsys, "fig5", "--catalyst-dim", "1000", "--ratio", "1e308", "--freq-ratio", "1e306"
        )
        assert (code, out) == (2, "")
        assert err == "error: result is not finite (-inf) at these parameters\n"

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads the child's VmHWM"
    )
    def test_large_curve_in_bounded_memory(self):
        """fig5 at d = 2^20 peaks at about 140 MB (VmHWM of the child, see
        test_large_map_streams_in_bounded_memory), 335 MB when the flow solve
        closed every split at once and the curve was a list of tuples."""
        child = (
            "import re\n"
            "from twostroke.cli import main\n"
            "code = main(['fig5', '--catalyst-dim', '1048576', '--output', '/dev/null'])\n"
            "with open('/proc/self/status') as status:\n"
            "    peak_kb = re.search(r'VmHWM:\\s+(\\d+) kB', status.read()).group(1)\n"
            "print(code, int(peak_kb) / 1024)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env, check=True
        )
        code, peak_mb = done.stdout.split()
        assert (code, done.stderr) == ("0", "")
        assert float(peak_mb) < 210


class TestFlowSolveExits:
    REPORT = ["report", "--beta-h", "6", "--beta-c", "7", "--omega-h", "2", "--omega-c", "3"]

    @pytest.mark.parametrize(
        "argv, entries",
        [
            ([*REPORT, "--simple", "99999999,1"], 100000000),
            (["fig5", "--catalyst-dim", "4194305"], 4194305),
            # refused before np.arange(1, d + 1), which numpy cannot allocate
            (["fig5", "--catalyst-dim", "99999999999999999999"], 99999999999999999999),
        ],
    )
    def test_size_guard_exit_code(self, capsys, argv, entries):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err == (
            f"error: flow solve of {entries} catalyst populations exceeds the cap 4194304\n"
        )

    @pytest.mark.parametrize("argv", [[*REPORT, "--simple", "2,3"], ["fig5"]])
    def test_internal_fault_exit_code(self, capsys, monkeypatch, argv):
        # every population of a d > 1 catalyst is below 1, so the solver's
        # own check flags it
        monkeypatch.setattr(catalysis, "NEGATIVE_POPULATION_TOL", -1.0)
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err == (
            "error: flow solve gave a negative or non-finite catalyst population; this is a bug\n"
        )


class TestLpBound:
    def test_singular_master_basis_is_an_internal_fault(self, capsys):
        # phase one drops rows of this degenerate master and phase two meets
        # a singular basis; LinAlgError is a ValueError, which exited 2 before
        code, out, err = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1.4791840270206305", "--beta-c", "6.092192058055817",
            "--omega-h", "2.278402649849333", "--omega-c", "2.3719128530096794",
            "--catalyst-dim", "7", "--catalyst-populations",
            "0.29385145859415635,0.22129905955007187,0.030301064832904078,"
            "0.007270063214755719,0.08218312396547729,0.14876734100172545,"
            "0.21632788884090928",
        )
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("; this is a bug\n")

    @pytest.mark.parametrize(
        "body, residual",
        [
            # the bound is 0.00491234577605, the d_s = 2 bound of the two
            # non-empty blocks; the failed certificate printed -6.9e-18
            (
                ["--beta-h", "1.4147704192717623", "--beta-c", "7.218058026014194",
                 "--omega-h", "2.876740435208829", "--omega-c", "2.584196823165261",
                 "--catalyst-dim", "3", "--catalyst-populations",
                 "0.3540613699571716,0.6459386300428284,0.0"],
                "dual_max_violation 3.125e-02",
            ),
            # the bound is 0.01602310802; the failed certificate printed 0.0
            (
                ["--beta-h", "0.8873738936793687", "--beta-c", "5.190277231484787",
                 "--omega-h", "1.60034298497652", "--omega-c", "2.5009969501025267",
                 "--catalyst-dim", "5", "--catalyst-populations",
                 "0.561121891634429,0.06600991925701835,0.05165022551639061,"
                 "0.32121796359216204,0.0"],
                "dual_max_violation 1.562e-02",
            ),
        ],
    )
    def test_failed_certificate_is_an_internal_fault(self, capsys, body, residual):
        # a zero catalyst population left these masters with a certificate
        # that fails by far more than its tolerance; never print it as optimal
        code, out, err = run_cli(capsys, "lp-bound", *body)
        assert (code, out) == (4, "")
        assert err.startswith("error: the work bound failed its certificate: " + residual)
        assert err.count("\n") == 1

    def test_certificate_tolerance_scales_the_dual_with_omega(self, capsys, monkeypatch):
        # the limits are 1e-7 on the primal residuals and 1e-7 max(1, omega)
        # on the dual violation: at omega_h = 3, 2.9e-7 passes and 3.1e-7 fails
        solve = lp.lp_work_upper_bound

        def with_residuals(residuals):
            def solved(*args):
                solution = solve(*args)
                solution.residuals.update(residuals)
                return solution

            monkeypatch.setattr(lp, "lp_work_upper_bound", solved)
            return run_cli(
                capsys, "lp-bound", "--beta-h", "1", "--beta-c", "3",
                "--omega-h", "3", "--omega-c", "0.5", "--catalyst-dim", "2",
            )

        assert with_residuals({"dual_max_violation": 2.9e-7})[0] == 0
        assert with_residuals({"dual_max_violation": 3.1e-7})[0] == 4
        assert with_residuals({"weight_sum_error": 0.9e-7})[0] == 0
        assert with_residuals({"primal_marginal_max": 1.1e-7})[0] == 4
        assert with_residuals({"weight_sum_error": math.nan})[0] == 4

    def test_trivial_catalyst_matches_ergotropy(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        initial = ts.product_state(
            [1.0],
            ts.gibbs_populations(ts.Spectrum.qubit(1.0), 1.0),
            ts.gibbs_populations(ts.Spectrum.qubit(0.5), 3.0),
        )
        spectrum = ts.combined_spectrum(
            ts.Spectrum.trivial(1), ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5)
        )
        assert payload["value"] == pytest.approx(
            ts.ergotropy(initial.probs, spectrum), rel=1e-10
        )

    def test_custom_catalyst_populations(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
            "--catalyst-dim", "2", "--catalyst-populations", "0.7,0.3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "optimal"
        assert payload["value"] >= 0.0
        assert len(payload["dual"]["x"]) == 1

    def test_guard_exit_code(self, capsys):
        # 10**12 once ran out of memory building its state before the LP refused it
        for dim in (9, 10**12):
            code, out, err = run_cli(
                capsys,
                "lp-bound", "--beta-h", "1", "--beta-c", "3",
                "--omega-h", "1", "--omega-c", "0.5", "--catalyst-dim", str(dim),
            )
            assert code == 4
            assert out == ""
            assert err == f"error: LP dimension {4 * dim} exceeds the cap 32\n"

    @pytest.mark.parametrize(
        "golden, dim, populations",
        [
            # the README example
            ("lp_bound_readme.json", "2", "0.7,0.3"),
            ("lp_bound_dim4.json", "4", "0.4,0.3,0.2,0.1"),
            # a zero block: the first master's block rows are rank-deficient
            ("lp_bound_dim3_zero_population.json", "3", "0.6,0,0.4"),
        ],
    )
    def test_matches_golden(self, capsys, golden, dim, populations):
        code, out, _ = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
            "--catalyst-dim", dim, "--catalyst-populations", populations,
        )
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_iteration_limit_exit_code(self, capsys, monkeypatch):
        # the master program needs only a few pivots, so allow none
        monkeypatch.setattr(simplex, "MAX_ITERATIONS", 0)
        code, out, err = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5", "--catalyst-dim", "3",
        )
        assert code == 4
        assert out == ""
        assert err == "error: simplex iteration limit exceeded\n"

    def test_internal_fault_exit_code(self, capsys, monkeypatch):
        def unbounded(*args, **kwargs):
            raise RuntimeError("phase one reported unbounded; this is a bug")

        monkeypatch.setattr(simplex, "simplex_solve", unbounded)
        code, out, err = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5", "--catalyst-dim", "3",
        )
        assert code == 4
        assert out == ""
        assert err == "error: phase one reported unbounded; this is a bug\n"

    def test_infeasible_master_exit_code(self, capsys, monkeypatch):
        build = lp.build_work_bound_problem

        def all_in_block_zero(hamiltonian, initial, catalyst_dim, images):
            # no column keeps the catalyst, so the master has no feasible point
            problem = build(hamiltonian, initial, catalyst_dim, images)
            marginals = np.zeros_like(problem.marginals)
            marginals[:, 0] = 1.0
            return dataclasses.replace(problem, marginals=marginals)

        monkeypatch.setattr(lp, "build_work_bound_problem", all_in_block_zero)
        code, out, err = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
            "--catalyst-dim", "3", "--catalyst-populations", "0.5,0.3,0.2",
        )
        assert code == 4
        assert out == ""
        assert err == "error: phase one found the program infeasible; this is a bug\n"

    @pytest.mark.parametrize(
        "beta_h, beta_c, omega_h",
        # extreme populations: a cold gap of 1e-12 and beta_c * omega_h up to
        # 4.9e5; both once ended in a traceback
        [("0.5", "100", "100"), ("1", "700", "700")],
    )
    def test_extreme_parameters_solve(self, capsys, beta_h, beta_c, omega_h):
        code, out, err = run_cli(
            capsys,
            "lp-bound", "--beta-h", beta_h, "--beta-c", beta_c,
            "--omega-h", omega_h, "--omega-c", "1e-12", "--catalyst-dim", "2",
        )
        assert code == 0, err
        payload = json.loads(out, parse_constant=pytest.fail)
        assert payload["status"] == "optimal"
        assert max(payload["residuals"].values()) <= 1e-9

    def test_population_length_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
            "--catalyst-dim", "2", "--catalyst-populations", "1.0",
        )
        assert code == 2

    def test_unnormalised_catalyst_populations(self, capsys):
        # the sum prints as a plain float, not as numpy's scalar repr
        code, out, err = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1", "--beta-c", "2",
            "--omega-h", "1", "--omega-c", "0.5",
            "--catalyst-dim", "2", "--catalyst-populations", "0.3,0.3",
        )
        assert code == 2
        assert out == ""
        assert err == "error: catalyst factor must sum to 1 (got 0.6)\n"

    def test_non_finite_catalyst_populations(self, capsys):
        code, out, err = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
            "--catalyst-dim", "2", "--catalyst-populations", "nan,nan",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestCoherenceCheck:
    def test_small_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "coherence-check", "--trials", "10", "--seed", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 10
        assert payload["max_heat_mismatch"] <= 1e-10
        assert payload["max_cyclicity_residual"] <= 1e-10

    def test_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "coherence-check", "--seed", "-1")
        assert (code, out, err) == (2, "", "error: --seed must be a non-negative integer\n")

    def test_seed_fixes_output(self, capsys):
        _, first, _ = run_cli(capsys, "coherence-check", "--trials", "8", "--seed", "11")
        _, second, _ = run_cli(capsys, "coherence-check", "--trials", "8", "--seed", "11")
        assert first == second

    def test_matches_golden(self, capsys):
        # README's example, byte for byte
        code, out, err = run_cli(
            capsys, "coherence-check", "--trials", "200", "--seed", "0"
        )
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "coherence_check_seed0.json").read_text()

    def test_size_guard_exit_code(self, capsys, monkeypatch):
        # one trial draws only d = 2, so the unreached 129 is not refused
        code, _, err = run_cli(
            capsys, "coherence-check", "--trials", "1", "--catalyst-dims", "2,129"
        )
        assert (code, err) == (0, "")

        def refuse(*args):
            raise AssertionError("the suite drew an engine past its cap")

        monkeypatch.setattr(coherence, "_draw_engine", refuse)
        code, out, err = run_cli(
            capsys, "coherence-check", "--trials", "2", "--catalyst-dims", "2,129"
        )
        assert (code, out) == (4, "")
        assert err == "error: catalyst dimension 129 exceeds the cap 128\n"

    def test_violated_invariant_exits_1(self, capsys, monkeypatch):
        # eigenvalues in the wrong order against their eigenvectors give the
        # decohered engine other heats
        eigenbasis = coherence._phase_fixed_descending_eigenbasis

        def misordered(rho):
            values, vectors = eigenbasis(rho)
            return values[..., ::-1], vectors

        monkeypatch.setattr(coherence, "_phase_fixed_descending_eigenbasis", misordered)
        code, out, err = run_cli(
            capsys, "coherence-check", "--trials", "20", "--seed", "0"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: decohered engine heats differ by ")
        assert err.count("\n") == 1


class TestParserReuse:
    """main reuses one parser per process; no call may see an earlier call's
    flags, and each prints what it prints in a fresh interpreter."""

    def test_output_flag_does_not_carry_over(self, capsys, tmp_path):
        target = tmp_path / "otto.json"
        code, out, _ = run_cli(capsys, "report", *ENGINE, "--otto", "--output", str(target))
        assert (code, out) == (0, "")
        written = target.read_text()
        target.unlink()
        code, out, _ = run_cli(capsys, "report", *ENGINE, "--otto")
        assert code == 0
        assert out == written
        assert list(tmp_path.iterdir()) == []
        assert fresh_cli("report", *ENGINE, "--otto") == (0, out)

    def test_objective_default_restored(self, capsys):
        code, work, _ = run_cli(capsys, "optimize", *ENGINE, "--objective", "work")
        assert code == 0
        assert json.loads(work)["objective"] == "work"
        code, default, _ = run_cli(capsys, "optimize", *ENGINE)
        assert code == 0
        assert json.loads(default)["objective"] == "efficiency"
        assert fresh_cli("optimize", *ENGINE, "--objective", "work") == (0, work)
        assert fresh_cli("optimize", *ENGINE) == (0, default)

    def test_usage_error_then_valid_call(self, capsys):
        code, out, err = run_cli(capsys, "table24", *ENGINE, "--no-such-flag")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fresh_cli("table24", *ENGINE, "--no-such-flag") == (2, "")
        code, out, err = run_cli(capsys, "table24", *ENGINE)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "table24_reference.csv").read_text()
        assert fresh_cli("table24", *ENGINE) == (0, out)

    def test_parser_built_at_most_once(self, capsys):
        for argv in (["report", *ENGINE, "--otto"], ["table24", *ENGINE], ["bogus"]) * 3:
            main(argv)
        capsys.readouterr()
        info = build_parser.cache_info()
        assert info.misses <= 1 and info.hits >= 9


# argv shapes each subcommand's parser must treat as the top-level parser does
DISPATCH_ARGV = [
    ["report", *ENGINE, "--otto"],
    ["report", *ENGINE, "--simple", "2,3"],
    ["table24", "--bh-wh", "1", "--bc-wc", "1.5", "--freq-ratio", "0.5"],
    ["optimize", *ENGINE, "--objective", "work"],
    ["regime-map", "--resolution", "2", "--d-over-n", "5/3"],
    ["fig5", "--catalyst-dim", "3"],
    ["lp-bound", *ENGINE, "--catalyst-dim", "2", "--catalyst-populations", "0.6,0.4"],
    ["coherence-check", "--trials", "1", "--seed", "5"],
    ["report", "--beta-h=1", "--beta-c=3", "--omega-h=1", "--omega-c=0.5", "--otto"],
    ["report", "-h"],
    ["report", "--bet", "1", "--beta-c", "3", "--omega-h", "1", "--omega-c", "0.5"],
    ["report", *ENGINE, "--", "--otto"],
    ["report", "--", *ENGINE, "--otto"],
    ["report", "--beta-h", "-1", "--beta-c", "3", "--omega-h", "1", "--omega-c", "-.5",
     "--otto"],
    ["report", *ENGINE[:2], "--beta-c", "-1e-3", *ENGINE[4:], "--otto"],
    ["coherence-check", "--trials", "1", "--seed", "-3"],
    ["report", *ENGINE, "--simple", "2,3", "--perm", "identity"],
    ["report", *ENGINE, "--perm"],
    ["table24", *ENGINE, "--no-such-flag"],
    ["optimize", *ENGINE, "--objective", "power"],
    [],
    ["-h"],
    ["bogus"],
    ["--", "report"],
    # at the edge of the subcommand parser's exact parse
    ["report", *ENGINE, "--beta-h", "2", "--otto"],
    ["report", *ENGINE, "--otto", "--otto"],
    ["report", *ENGINE, "--otto", "--output", ""],
    ["report", *ENGINE, "--perm", "-x"],
    ["report", *ENGINE[:2], "--beta-c", "-inf", *ENGINE[4:], "--otto"],
    ["optimize", *ENGINE, "--objective", "power", "--objective", "work"],
]


class TestDispatch:
    """main hands an argv that starts with a subcommand straight to that
    subcommand's parser; everything it prints is what the top-level parser's
    dispatch prints.  That dispatch parses the subcommand's argv with argparse
    alone (`parse_known_args`), so each argv here also compares the exact
    parse with argparse."""

    @staticmethod
    def outcome(monkeypatch, capsys, argv, *, through_sys_argv=False):
        parsed = []
        parse_args = cli._Parser.parse_args

        def recording(self, *args, **kwargs):
            parsed.append(parse_args(self, *args, **kwargs))
            return parsed[-1]

        with monkeypatch.context() as patch:
            patch.setattr(cli._Parser, "parse_args", recording)
            if through_sys_argv:
                patch.setattr(sys, "argv", ["twostroke", *argv])
            try:
                code = main(None if through_sys_argv else list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
        out, err = capsys.readouterr()
        return code, out, err, [vars(namespace) for namespace in parsed]

    @pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=lambda argv: " ".join(argv) or "-")
    def test_same_outcome_as_top_level_dispatch(self, monkeypatch, capsys, argv):
        direct = self.outcome(monkeypatch, capsys, argv)
        from_sys_argv = self.outcome(monkeypatch, capsys, argv, through_sys_argv=True)
        monkeypatch.setattr(build_parser(), "commands", {})
        top_level = self.outcome(monkeypatch, capsys, argv)
        assert direct == from_sys_argv == top_level
        if direct[0] == 0:
            assert len(direct[3]) == 1

    @pytest.mark.parametrize("argv", DISPATCH_ARGV[:9], ids=lambda argv: argv[0])
    def test_valid_call_skips_the_top_level_parser(self, monkeypatch, capsys, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a subcommand's argv")

        monkeypatch.setattr(build_parser(), "parse_args", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_commands_are_the_top_level_subparsers(self):
        parser = build_parser()
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert parser.commands is action.choices
        assert sorted(parser.commands) == [
            "coherence-check", "fig5", "lp-bound", "optimize", "regime-map", "report",
            "table24",
        ]


def test_exact_parse_reads_any_parser_as_argparse_would():
    parser = cli._Parser(prog="probe")
    parser.add_argument("--scale", type=float, default="1.5")  # converted when absent
    parser.add_argument("--name", default="x")
    parser.add_argument("--flag", action="store_true")
    parser.set_defaults(name="y", extra=3)
    for argv in ([], ["--flag"], ["--scale", "2", "--scale", "-1e-3"], ["--name", "z"]):
        expected = argparse.ArgumentParser.parse_args(parser, argv)
        assert repr(parser._exact_parse(argv, None)) == repr(expected)
    parser.add_argument("path")  # with a positional, argparse parses every argv
    assert parser._exact_parse(["--flag"], None) is None


def rounded(payload):
    """The payload with every float passed through round12 (the writer's oracle)."""
    if isinstance(payload, dict):
        return {key: rounded(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [rounded(value) for value in payload]
    return cli.round12(payload) if isinstance(payload, float) else payload


def oracle_json(payload):
    try:
        return json.dumps(rounded(payload), indent=2, allow_nan=False)
    except ConfigError as exc:
        return exc


def written_json(payload):
    try:
        return cli._json_text(payload)
    except ConfigError as exc:
        return exc


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([
        0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e308, -1.7976931348623157e308,
        0.1 + 0.2, 1 / 3, 2.675e-5, 0.9999999999995, 123456789012.5, -9.9999999999995e99,
    ]),
)
TEXT = st.one_of(
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\n\t\x7f", "é ü 中 \U0001f600", ""]),
)
SCALARS = st.one_of(FINITE, st.integers(), st.booleans(), st.none(), TEXT)


def payloads(scalars):
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(TEXT, children, max_size=4),
        ),
        max_leaves=24,
    )


class TestJsonText:
    """`_json_text` writes exactly what rounding a copy and `json.dumps(indent=2)` wrote."""

    @settings(max_examples=200)
    @given(payload=payloads(SCALARS))
    def test_same_text_as_json_dumps(self, payload):
        assert written_json(payload) == oracle_json(payload)

    @settings(max_examples=100)
    @given(payload=payloads(SCALARS | st.sampled_from([math.inf, -math.inf, math.nan])))
    def test_first_non_finite_float_raises_the_same_error(self, payload):
        written, expected = written_json(payload), oracle_json(payload)
        if isinstance(expected, ConfigError):
            assert isinstance(written, ConfigError)
            assert str(written) == str(expected)
        else:
            assert written == expected

    @settings(max_examples=200)
    @given(payload=payloads(SCALARS | st.sampled_from([math.inf, -math.inf, math.nan])))
    def test_pieces_join_to_the_same_text(self, payload):
        # two items a piece, so most lists here are written in pieces
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_JSON_ITEMS", 2)
            parts = []
            try:
                cli._json_parts(payload, "\n", parts)
                pieces = "".join(parts)
            except ConfigError as exc:
                pieces = exc
        expected = written_json(payload)
        if isinstance(expected, ConfigError):
            assert str(pieces) == str(expected)
        else:
            assert pieces == expected

    def test_long_population_list_written_in_pieces(self, capsys, monkeypatch):
        # 9999 populations are 3 pieces of at most 4096; the md5 is of the
        # output written as one text, before the pieces
        writes = recorded_emit(monkeypatch)
        code, out, err = run_cli(
            capsys, "report", "--beta-h", "6", "--beta-c", "7", "--omega-h", "2",
            "--omega-c", "3", "--simple", "9999,1",
        )
        assert (code, err) == (0, "")
        assert hashlib.md5(out.encode()).hexdigest() == "4374a3f53f7574ebabc26082302004c9"
        longest = max(len(piece) for piece in writes)
        assert 4096 * 20 < longest < 4096 * 30 and len(writes) > 3

    def test_error_names_the_first_non_finite_float(self):
        payload = {"a": [1.0, {"b": -math.inf}], "c": math.nan}
        with pytest.raises(ConfigError, match=r"not finite \(-inf\)"):
            cli._json_text(payload)


class TestFmt12:
    def test_census_matches_round12(self):
        """fmt12 gives the text of round12's float at 12 digits on 10^6 doubles."""
        rng = np.random.default_rng(1212)
        bits = rng.integers(0, 2**64, size=520_000, dtype=np.uint64, endpoint=False)
        subnormal = bits[:200_000] & np.uint64(0x800F_FFFF_FFFF_FFFF)
        # 13-digit decimals ending in 5: ties at the 12th digit
        ties = (rng.integers(10**11, 10**12, size=200_000) * 10 + 5).astype(float)
        ties *= 10.0 ** rng.integers(-320, 296, size=ties.size).astype(float)
        edges = np.array([
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, 1e16, 999999999999.5,
        ])
        values = np.concatenate([
            bits.view(np.float64), subnormal.view(np.float64), ties,
            rng.standard_normal(100_000) * 10.0 ** rng.integers(-300, 300, size=100_000),
            edges,
        ]).tolist()
        finite = [value for value in values if math.isfinite(value)]
        assert len(finite) >= 10**6
        differ = [v.hex() for v in finite if fmt12(v) != f"{cli.round12(v):.12g}"]
        assert differ == []
        assert fmt12(-0.0) == "0" and fmt12(None) == ""

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -math.nan])
    def test_non_finite_raises_round12_error(self, value):
        with pytest.raises(ConfigError) as expected:
            cli.round12(value)
        with pytest.raises(ConfigError) as raised:
            fmt12(value)
        assert str(raised.value) == str(expected.value)


class TestClosedStdout:
    """A reader that closes the pipe ends the output quietly, with exit 0."""

    @staticmethod
    def spawn(argv, stdout):
        """The CLI in a new interpreter with a block-buffered stdout: a short
        output then meets the closed pipe only when it is flushed."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.Popen(
            [sys.executable, "-m", "twostroke.cli", *argv],
            stdout=stdout, stderr=subprocess.PIPE, env=env,
        )

    def test_reader_closes_mid_stream(self):
        child = self.spawn(["regime-map", "--resolution", "300"], subprocess.PIPE)
        assert child.stdout.read(10) == b"# regime m"
        child.stdout.close()
        assert child.wait(timeout=60) == 0
        assert child.stderr.read() == b""
        child.stderr.close()

    @pytest.mark.parametrize(
        "argv",
        [
            ["table24", "--beta-h", "1", "--beta-c", "2", "--omega-h", "1", "--omega-c", "0.5"],
            ["report", "--beta-h", "1", "--beta-c", "3", "--omega-h", "1", "--omega-c", "0.5",
             "--otto"],
        ],
    )
    def test_reader_gone_before_the_first_write(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = self.spawn(argv, write_end)
        finally:
            os.close(write_end)
        _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (0, b"")


class TestUnwritableStdout:
    """A stdout that refuses writes exits 2 with one `error:` line, as an
    unwritable --output does."""

    @staticmethod
    def to_full_device(argv, unbuffered):
        """The CLI in a new interpreter with stdout on /dev/full."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open("/dev/full", "w") as full:
            return subprocess.run(
                [sys.executable, "-m", "twostroke.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_full_device(self, unbuffered):
        argv = ["table24", "--beta-h", "1", "--beta-c", "2", "--omega-h", "1", "--omega-c", "0.5"]
        done = self.to_full_device(argv, unbuffered)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}"
        ]
        assert "Traceback" not in done.stderr
        assert "Exception ignored" not in done.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_help_to_full_device(self, unbuffered):
        # argparse drops the failed write of -h, or leaves it to the last flush
        done = self.to_full_device(["table24", "-h"], unbuffered)
        assert done.returncode == 2
        assert done.stderr.splitlines() == [
            f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}"
        ]


def readme_commands():
    """The `twostroke ...` lines of README's usage block, continuations joined."""
    block = README.read_text().split("## Command-line usage")[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("twostroke ")]


def test_readme_usage_runs(capsys):
    commands = readme_commands()
    assert len(commands) == 9
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out


def served_argv():
    """Every argv the benchmark sends (a few seeded inputs) and the README shows."""
    from test_benchmark_contract import load_perfbench

    workloads = load_perfbench("workloads")
    argvs = list(readme_commands())
    for index in range(3):
        rng = np.random.default_rng([7, index])
        argvs += workloads.cli_calls(workloads.cli_input(rng))
        argvs.append(workloads.regime_argv(workloads.regime_input(rng)))
    return argvs


def test_served_argv_bytes_are_pinned(capsys):
    # one digest over (argv, exit code, stdout, stderr) of every served call,
    # so a refactor that moves one byte of them fails here
    digest = hashlib.sha256()
    for argv in served_argv():
        digest.update(json.dumps([argv, *run_cli(capsys, *argv)]).encode())
    assert digest.hexdigest() == (
        "3b6a503233f7a003cbaab5de8fb0c5dfc67fd63e729157ce5e9e33a5e66e0d3d"
    )


@pytest.mark.parametrize("argv", served_argv(), ids=lambda argv: " ".join(argv))
def test_exact_parse_serves_benchmark_and_readme_argv(monkeypatch, capsys, argv):
    # main parses each without argparse, so a later edit that sends these
    # calls back through argparse fails here
    command = build_parser().commands[argv[0]]
    expected = argparse.ArgumentParser.parse_args(
        command, argv[1:], argparse.Namespace(command=argv[0])
    )

    def refuse(*args, **kwargs):
        raise AssertionError("argparse parsed a plain argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert TestDispatch.outcome(monkeypatch, capsys, argv)[3] == [vars(expected)]
