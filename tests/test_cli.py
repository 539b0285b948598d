import json
import warnings
from pathlib import Path

import pytest

import twostroke as ts
from twostroke import simplex
from twostroke.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_flag_conflicts(self, capsys):
        code, _, err = run_cli(
            capsys,
            "report", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
            "--otto", "--perm", "identity",
        )
        assert code == 2
        assert "exactly one" in err

    def test_catalyst_dim_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys,
            "report", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5",
            "--simple", "2,1", "--catalyst-dim", "5",
        )
        assert code == 2
        assert "conflicts" in err


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
            # the cold Boltzmann factor underflows to 0 and is rejected
            ("--beta-c", "1e308"),
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
        assert any("capped at 64" in line for line in header)
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
        code, _, err = run_cli(
            capsys, "regime-map", "--d-over-n", "65", "--resolution", "4"
        )
        assert code == 2
        assert "cap" in err


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


class TestLpBound:
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
        code, out, err = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5", "--catalyst-dim", "9",
        )
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_iteration_limit_exit_code(self, capsys, monkeypatch):
        solve = simplex.simplex_solve
        # the master program needs only a few pivots, so allow none
        monkeypatch.setattr(
            simplex, "simplex_solve",
            lambda *args, **kwargs: solve(*args, **kwargs, max_iterations=0),
        )
        code, out, err = run_cli(
            capsys,
            "lp-bound", "--beta-h", "1", "--beta-c", "3",
            "--omega-h", "1", "--omega-c", "0.5", "--catalyst-dim", "2",
        )
        assert code == 4
        assert out == ""
        assert err == "error: simplex iteration limit exceeded\n"

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

    def test_seed_fixes_output(self, capsys):
        _, first, _ = run_cli(capsys, "coherence-check", "--trials", "8", "--seed", "11")
        _, second, _ = run_cli(capsys, "coherence-check", "--trials", "8", "--seed", "11")
        assert first == second
