import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import twostroke as ts
from twostroke import thermo
from twostroke.coherence import random_unitary
from twostroke.permutations import images_array
from twostroke.thermo import ACCELERATOR, COOLER, DEGENERATE, ENGINE, _kron

from conftest import gibbs_product, random_regime_tuple


class TestSpectrum:
    def test_qubit(self):
        spectrum = ts.Spectrum.qubit(0.7)
        assert spectrum.levels == (0.0, 0.7)
        assert spectrum.dimension == 2

    def test_ground_energy_must_be_zero(self):
        with pytest.raises(ValueError):
            ts.Spectrum((0.1, 1.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ts.Spectrum((0.0, math.inf))

    def test_trivial(self):
        assert ts.Spectrum.trivial(3).levels == (0.0, 0.0, 0.0)


class TestInverseTemperaturePair:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ts.InverseTemperaturePair(2.0, 1.0)
        with pytest.raises(ValueError):
            ts.InverseTemperaturePair(-1.0, 1.0)

    def test_carnot(self):
        beta = ts.InverseTemperaturePair(1.0, 4.0)
        assert beta.carnot_efficiency == pytest.approx(0.75, abs=1e-15)


class TestGibbsPopulations:
    def test_infinite_temperature_limit(self):
        # beta*omega = 0 realised with a zero-gap spectrum
        assert np.allclose(
            ts.gibbs_populations(ts.Spectrum((0.0, 0.0)), 5.0), [0.5, 0.5]
        )

    def test_unit_gap_unit_beta(self):
        p = ts.gibbs_populations(ts.Spectrum.qubit(1.0), 1.0)
        # direct evaluation: 1/(1+e^-1), e^-1/(1+e^-1)
        assert p[0] == pytest.approx(0.7310585786300049, abs=1e-15)
        assert p[1] == pytest.approx(0.2689414213699951, abs=1e-15)

    def test_single_level(self):
        assert ts.gibbs_populations(ts.Spectrum((0.0,)), 3.7).tolist() == [1.0]

    def test_extreme_exponent_does_not_overflow(self):
        p = ts.gibbs_populations(ts.Spectrum((0.0, 5000.0)), 10.0)
        assert p[0] == pytest.approx(1.0, abs=1e-15)
        assert np.isfinite(p).all()

    @given(
        gaps=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6),
        beta=st.floats(0.05, 10.0),
    )
    def test_normalised_and_monotone(self, gaps, beta):
        levels = (0.0, *np.cumsum(gaps))
        p = ts.gibbs_populations(ts.Spectrum(tuple(levels)), beta)
        assert abs(p.sum() - 1.0) < 1e-12
        assert (np.diff(p) < 0).all()

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            ts.gibbs_populations(ts.Spectrum.qubit(1.0), 0.0)


def assert_same_bits(ours, reference):
    assert ours.dtype == reference.dtype
    assert ours.shape == reference.shape
    assert ours.tobytes() == reference.tobytes()
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(ours)), np.signbit(part(reference)))


def signed_zeros(values, rng):
    """`values` with about a third of its entries set to +0.0 or -0.0."""
    values = values.copy()
    hit = rng.random(values.shape) < 1 / 3
    values[hit] = np.where(rng.random(values.shape) < 0.5, 0.0, -0.0)[hit]
    return values


class TestKron:
    """The broadcast kernel is numpy's kron to the bit, signed zeros included."""

    def test_float_vectors(self, rng):
        for n, m in [(1, 1), (1, 4), (3, 2), (5, 7)]:
            a = signed_zeros(rng.normal(size=n), rng)
            b = signed_zeros(rng.normal(size=m), rng)
            assert_same_bits(_kron(a, b), np.kron(a, b))

    def test_real_matrices(self, rng):
        for (p, q), (r, s) in [((1, 1), (2, 2)), ((2, 2), (3, 3)), ((2, 3), (4, 1))]:
            a = signed_zeros(rng.normal(size=(p, q)), rng)
            b = signed_zeros(rng.normal(size=(r, s)), rng)
            assert_same_bits(_kron(a, b), np.kron(a, b))

    def test_complex_matrices(self, rng):
        for k, m in [(2, 2), (3, 4), (5, 4)]:
            a = signed_zeros(rng.normal(size=(k, k)), rng) + 1j * signed_zeros(
                rng.normal(size=(k, k)), rng
            )
            b = signed_zeros(rng.normal(size=(m, m)), rng) - 1j * signed_zeros(
                rng.normal(size=(m, m)), rng
            )
            assert_same_bits(_kron(a, b), np.kron(a, b))

    @pytest.mark.parametrize("k, m", [(1, 4), (2, 4), (3, 4), (5, 2)])
    def test_identity_with_unitary(self, rng, k, m):
        # the float/complex promotion of random_cyclic_engine and _decohere
        unitary = random_unitary(m, rng)
        assert_same_bits(_kron(np.eye(k), unitary), np.kron(np.eye(k), unitary))
        assert_same_bits(_kron(unitary, np.eye(k)), np.kron(unitary, np.eye(k)))


def test_no_per_call_layout_helpers_in_src():
    # numpy's kron, tile and repeat cost several times the arithmetic on the
    # package's few-level states; _kron and broadcasts replace them
    src = Path(__file__).resolve().parents[1] / "src" / "twostroke"
    pattern = re.compile(r"np\.(kron|tile|repeat)\(")
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert hits == []


class TestProductState:
    def test_pure_product(self):
        state = ts.product_state([1.0], [1.0, 0.0], [0.0, 1.0])
        assert state.probs.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_catalyst_factor_order(self):
        state = ts.product_state([0.5, 0.5], [1.0, 0.0], [1.0, 0.0])
        assert state.probs.tolist() == [0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]

    def test_two_qubit_gibbs_expansion(self):
        # N * (1, a_c, a_h, a_h a_c) with a_h = e^-1, a_c = e^-1.5
        ah, ac = math.exp(-1.0), math.exp(-1.5)
        norm = 1.0 / ((1.0 + ah) * (1.0 + ac))
        beta = ts.InverseTemperaturePair(1.0, 1.5)
        state = gibbs_product(1.0, 1.0, beta)
        expected = norm * np.array([1.0, ac, ah, ah * ac])
        assert np.abs(state.probs - expected).max() < 1e-15

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            ts.product_state([1.0], [0.9, 0.0], [1.0, 0.0])

    def test_marginals_roundtrip(self, rng):
        cat = rng.dirichlet(np.ones(3))
        hot = rng.dirichlet(np.ones(2))
        cold = rng.dirichlet(np.ones(4))
        state = ts.product_state(cat, hot, cold)
        assert np.abs(state.catalyst_marginal() - cat).max() < 1e-12
        assert np.abs(state.hot_marginal() - hot).max() < 1e-12
        assert np.abs(state.cold_marginal() - cold).max() < 1e-12


class TestPopulationVector:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ts.PopulationVector(np.array([1.0]), (1, 2, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ts.PopulationVector(np.array([1.1, -0.1]), (1, 2, 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ts.PopulationVector(np.array([bad, 1.0]), (1, 2, 1))

    def test_tiny_negative_clipped(self):
        state = ts.PopulationVector(np.array([1.0, 1e-14, -1e-14]), (1, 3, 1))
        assert state.probs.min() == 0.0


class TestProbabilityValidator:
    """`_as_probability_vector` checks entries, then the minimum, then the sum."""

    @pytest.mark.parametrize(
        "values, message",
        [
            ([np.nan, 1.0], "p has a non-finite entry"),
            ([np.inf, -np.inf], "p has a non-finite entry"),
            ([np.inf, 0.5, -np.inf, np.nan], "p has a non-finite entry"),
            ([1.0, np.inf], "p has a non-finite entry"),
            ([2.0, -np.inf], "p has a non-finite entry"),
            # finite entries whose sum overflows
            ([1e308, 1e308], "p must sum to 1 (got inf)"),
            # the negative entry is named before the overflowing sum
            ([1e308, -1e-3, 1e308], "p has a negative entry (-1.000e-03)"),
            ([0.7, -0.1, 0.4], "p has a negative entry (-1.000e-01)"),
            ([0.5, 0.25], "p must sum to 1 (got 0.75)"),
        ],
    )
    def test_messages_in_order(self, values, message):
        # as the CLI calls it: a sum that overflows or meets inf - inf is not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError) as info:
                thermo._as_probability_vector(values, "p")
        assert str(info.value) == message

    def test_output_is_the_clip_at_zero(self, rng):
        cases = [
            np.array([0.5, -0.0, 0.5]),
            np.array([1.0, 1e-14, -1e-14]),
            np.array([-1e-13, 0.25, 0.75 + 1e-13, -0.0, 0.0]),
            np.array([1.0]),
        ]
        for _ in range(50):
            p = signed_zeros(rng.dirichlet(np.ones(int(rng.integers(1, 17)))), rng)
            p[rng.random(p.size) < 0.2] *= -1e-12
            cases.append(p / p.sum() if p.sum() > 0.0 else np.array([1.0]))
        for p in cases:
            assert_same_bits(thermo._as_probability_vector(p, "p"), np.clip(p, 0.0, None))


class TestClassifyModes:
    def test_engine(self):
        assert ts.classify_modes(1.0, 2.0, -1.0) == {ENGINE}

    def test_cooler(self):
        assert ts.classify_modes(-1.0, -3.0, 2.0) == {COOLER}

    def test_zero_boundary_overlaps(self):
        assert ts.classify_modes(0.0, 0.0, 0.0) == {DEGENERATE, ACCELERATOR}

    def test_accelerator(self):
        assert ts.classify_modes(-1.0, 0.5, -1.5) == {ACCELERATOR}


class TestStrokeReport:
    def setup_method(self):
        self.beta = ts.InverseTemperaturePair(1.0, 3.0)
        self.hot = ts.Spectrum.qubit(1.0)
        self.cold = ts.Spectrum.qubit(0.5)
        self.initial = gibbs_product(1.0, 0.5, self.beta)

    def test_identity_stroke(self):
        report = ts.stroke_report(
            self.initial, self.initial, self.hot, self.cold, self.beta
        )
        assert report.work == 0.0
        assert report.heat_hot == 0.0
        assert report.heat_cold == 0.0
        assert report.efficiency is None
        # the zero stroke sits on the accelerator boundary as well
        assert report.modes == {DEGENERATE, ACCELERATOR}

    def test_hot_cold_swap_matches_closed_form(self):
        ah, ac = math.exp(-1.0), math.exp(-1.5)
        norm = 1.0 / ((1.0 + ah) * (1.0 + ac))
        final = ts.apply_permutation(self.initial, ts.PermutationMap((0, 2, 1, 3)))
        report = ts.stroke_report(self.initial, final, self.hot, self.cold, self.beta)
        assert report.work == pytest.approx(norm * (ah - ac) * 0.5, abs=1e-15)
        assert report.heat_hot == pytest.approx(norm * (ah - ac), abs=1e-15)
        assert report.efficiency == pytest.approx(0.5, abs=1e-12)
        assert report.modes == {ENGINE}

    def test_first_law_exact(self):
        final = ts.apply_permutation(self.initial, ts.PermutationMap((3, 1, 0, 2)))
        report = ts.stroke_report(self.initial, final, self.hot, self.cold, self.beta)
        assert report.work == report.heat_hot + report.heat_cold

    def test_positive_work_needs_positive_hot_heat(self):
        for image in images_array(4):
            final = ts.apply_permutation(self.initial, ts.PermutationMap(tuple(image)))
            report = ts.stroke_report(
                self.initial, final, self.hot, self.cold, self.beta
            )
            if report.work > 1e-12:
                assert report.heat_hot > 0.0

    def test_cyclicity_violation(self):
        skewed = ts.product_state([0.4, 0.6], [1.0, 0.0], [1.0, 0.0])
        uniform = ts.product_state([0.5, 0.5], [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(ts.CyclicityError, match="cyclicity violated"):
            ts.stroke_report(
                uniform, skewed, ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(1.0), self.beta
            )

    def test_shape_mismatch(self):
        other = ts.product_state([1.0], [1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            ts.stroke_report(self.initial, other, self.hot, self.cold, self.beta)


class TestClausius:
    def test_zero(self):
        beta = ts.InverseTemperaturePair(1.0, 2.0)
        assert ts.clausius_lhs(0.0, 0.0, beta) == 0.0

    def test_hot_cold_swap_value(self):
        # beta_h Q_h + beta_c Q_c = N (a_h - a_c)(beta_h w_h - beta_c w_c) < 0
        beta = ts.InverseTemperaturePair(1.0, 3.0)
        ah, ac = math.exp(-1.0), math.exp(-1.5)
        norm = 1.0 / ((1.0 + ah) * (1.0 + ac))
        initial = gibbs_product(1.0, 0.5, beta)
        final = ts.apply_permutation(initial, ts.PermutationMap((0, 2, 1, 3)))
        report = ts.stroke_report(
            initial, final, ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5), beta
        )
        value = ts.clausius_lhs(report.heat_hot, report.heat_cold, beta)
        assert value == pytest.approx(norm * (ah - ac) * (1.0 - 1.5), abs=1e-14)
        assert value < 0.0

    def test_every_permutation_stroke_obeys_clausius(self, rng):
        for _ in range(25):
            omega_h, omega_c, beta = random_regime_tuple(rng)
            initial = gibbs_product(omega_h, omega_c, beta)
            for image in images_array(4):
                final = ts.apply_permutation(initial, ts.PermutationMap(tuple(image)))
                report = ts.stroke_report(
                    initial,
                    final,
                    ts.Spectrum.qubit(omega_h),
                    ts.Spectrum.qubit(omega_c),
                    beta,
                )
                assert ts.clausius_lhs(report.heat_hot, report.heat_cold, beta) <= 1e-10


class TestCycleReport:
    def test_efficiency_suppressed_below_tolerance(self):
        report = ts.CycleReport.from_heats(5e-13, -2e-13)
        assert report.efficiency is None

    def test_explicit_efficiency_trusted(self):
        report = ts.CycleReport.from_heats(5e-13, -2e-13, efficiency=0.6)
        assert report.efficiency == 0.6

    def test_default_efficiency(self):
        report = ts.CycleReport.from_heats(2.0, -1.0)
        assert report.efficiency == pytest.approx(0.5, abs=1e-15)

    def test_to_dict_keys(self):
        report = ts.CycleReport.from_heats(2.0, -1.0)
        data = report.to_dict()
        assert set(data) == {"work", "heat_hot", "heat_cold", "efficiency", "modes"}
        assert data["modes"] == ["engine"]


def test_combined_spectrum_order():
    combined = ts.combined_spectrum(
        ts.Spectrum.trivial(2), ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5)
    )
    assert combined.levels == (0.0, 0.5, 1.0, 1.5, 0.0, 0.5, 1.0, 1.5)
