import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import twostroke as ts
from twostroke.permutations import OTTO_SWAP_IMAGE, canonical_qubit_images, images_array

from conftest import gibbs_product, random_mixture_matrix, random_regime_tuple

permutation_images = st.permutations(list(range(5)))


def table_formulas(ah, ac, wh, wc):
    """Work and efficiency of each 4-level permutation stroke in closed form.

    Derived by expanding the marginal energies of N*(1, ac, ah, ah*ac) under
    each image; keyed by image so the check is order independent.  Efficiency
    None marks strokes that draw no hot heat.
    """
    n = 1.0 / ((1.0 + ah) * (1.0 + ac))
    rows = {
        (0, 1, 2, 3): (0.0, None),
        (0, 2, 1, 3): (n * (ah - ac) * (wh - wc), 1 - wc / wh),
        (0, 2, 3, 1): (-n * (wc * (ah - ac) + ac * wh * (1 - ah)),
                       1 + (ah - ac) * wc / (ac * (1 - ah) * wh)),
        (0, 3, 1, 2): (n * (wh * (ah - ac) - wc * ah * (1 - ac)),
                       1 - ah * (1 - ac) * wc / ((ah - ac) * wh)),
        (0, 3, 2, 1): (-n * wh * ac * (1 - ah), 1.0),
        (0, 1, 3, 2): (-n * (1 - ac) * ah * wc, None),
        (1, 0, 2, 3): (-n * (1 - ac) * wc, None),
        (1, 0, 3, 2): (-n * (1 - ac) * (1 + ah) * wc, None),
        (2, 0, 1, 3): (-n * (wh * (1 - ah) + wc * (ah - ac)),
                       1 + (ah - ac) * wc / ((1 - ah) * wh)),
        (2, 0, 3, 1): (-n * ((ah - ac) * wc + (1 - ac * ah) * wh),
                       1 + (ah - ac) * wc / ((1 - ac * ah) * wh)),
        (3, 0, 1, 2): (-n * ((1 - ac) * (1 + ah) * wc + (1 - ah) * wh),
                       1 + (1 - ac) * (1 + ah) * wc / ((1 - ah) * wh)),
        (3, 0, 2, 1): (-n * (wc * (1 - ac) + wh * (1 - ac * ah)),
                       1 + wc * (1 - ac) / (wh * (1 - ac * ah))),
        (1, 2, 0, 3): (n * (wh * (ah - ac) - wc * (1 - ac)),
                       1 - wc * (1 - ac) / (wh * (ah - ac))),
        (3, 2, 0, 1): (-n * ((1 - ac) * wc + (1 + ac) * (1 - ah) * wh),
                       1 + (1 - ac) * wc / ((1 + ac) * (1 - ah) * wh)),
        (1, 3, 0, 2): (n * ((ah - ac) * wh - (1 - ac * ah) * wc),
                       1 - wc * (1 - ac * ah) / (wh * (ah - ac))),
        (2, 3, 0, 1): (-n * (1 + ac) * (1 - ah) * wh, 1.0),
        (2, 1, 0, 3): (-n * (1 - ah) * wh, 1.0),
        (3, 1, 0, 2): (-n * (wc * (1 - ac * ah) + wh * (1 - ah)),
                       1 + wc * (1 - ac * ah) / (wh * (1 - ah))),
        (1, 2, 3, 0): (-n * ((1 - ac) * (1 + ah) * wc + ac * (1 - ah) * wh),
                       1 + (1 - ac) * (1 + ah) * wc / ((1 - ah) * ac * wh)),
        # full population inversion: raises the mean energy, so work is the
        # negative of the sum of both relaxation costs
        (3, 2, 1, 0): (-n * ((1 + ah) * (1 - ac) * wc + (1 + ac) * (1 - ah) * wh),
                       1 + (1 - ac) * (1 + ah) * wc / ((1 + ac) * (1 - ah) * wh)),
        (1, 3, 2, 0): (-n * ((1 - ac * ah) * wc + ac * (1 - ah) * wh),
                       1 + wc * (1 - ac * ah) / (wh * ac * (1 - ah))),
        (2, 1, 3, 0): (-n * ((1 - ac) * ah * wc + wh * (1 - ac * ah)),
                       1 + (1 - ac) * ah * wc / ((1 - ac * ah) * wh)),
        (2, 3, 1, 0): (-n * ((1 - ac) * ah * wc + (1 + ac) * (1 - ah) * wh),
                       1 + (1 - ac) * ah * wc / ((1 + ac) * (1 - ah) * wh)),
        (3, 1, 2, 0): (-n * (1 - ac * ah) * (wc + wh), 1 + wc / wh),
    }
    return rows


ENGINE_CANDIDATE_IMAGES = {
    (0, 2, 1, 3),
    (0, 3, 1, 2),
    (1, 2, 0, 3),
    (1, 3, 0, 2),
}


class TestPermutationMap:
    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            ts.PermutationMap((0, 0, 1))

    @given(permutation_images)
    def test_inverse_roundtrip(self, image):
        perm = ts.PermutationMap(tuple(image))
        assert perm.compose(perm.inverse()).image == tuple(range(5))
        assert perm.inverse().compose(perm).image == tuple(range(5))

    @given(permutation_images, permutation_images)
    def test_compose_matches_matrix_product(self, first, second):
        outer = ts.PermutationMap(tuple(first))
        inner = ts.PermutationMap(tuple(second))
        composed = outer.compose(inner)
        assert np.array_equal(composed.matrix(), outer.matrix() @ inner.matrix())

    def test_matrix_moves_populations(self):
        perm = ts.PermutationMap((2, 0, 1))
        vec = np.array([0.5, 0.3, 0.2])
        assert np.array_equal(perm.matrix() @ vec, perm.apply_to(vec))


class TestApplyPermutation:
    def test_identity(self):
        state = ts.product_state([1.0], [0.7, 0.3], [0.4, 0.6])
        out = ts.apply_permutation(state, ts.PermutationMap.identity(4))
        assert np.array_equal(out.probs, state.probs)

    def test_middle_swap_on_gibbs_product(self):
        ah, ac = math.exp(-1.0), math.exp(-1.5)
        norm = 1.0 / ((1.0 + ah) * (1.0 + ac))
        beta = ts.InverseTemperaturePair(1.0, 1.5)
        state = gibbs_product(1.0, 1.0, beta)
        out = ts.apply_permutation(state, ts.PermutationMap((0, 2, 1, 3)))
        expected = norm * np.array([1.0, ah, ac, ah * ac])
        assert np.abs(out.probs - expected).max() < 1e-15

    def test_inverse_restores(self, rng):
        state = ts.product_state(rng.dirichlet(np.ones(2)), [0.5, 0.5], [0.1, 0.9])
        perm = ts.PermutationMap(tuple(rng.permutation(8)))
        there = ts.apply_permutation(state, perm)
        back = ts.apply_permutation(there, perm.inverse())
        assert np.abs(back.probs - state.probs).max() < 1e-15

    def test_size_mismatch(self):
        state = ts.product_state([1.0], [1.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            ts.apply_permutation(state, ts.PermutationMap.identity(3))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (3, 6), (4, 24)])
    def test_counts(self, n, count):
        images = images_array(n)
        assert images.shape == (count, n)
        assert len({tuple(image) for image in images.tolist()}) == count
        assert all(sorted(image) == list(range(n)) for image in images.tolist())

    def test_lexicographic_order(self):
        images = images_array(3).tolist()
        assert images == sorted(images)

    @pytest.mark.parametrize("n", range(10))
    def test_matches_itertools(self, n):
        images = images_array(n)
        expected = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        expected = expected.reshape(math.factorial(n), n)
        assert images.dtype == expected.dtype
        assert np.array_equal(images, expected)
        assert images.flags.c_contiguous
        assert not images.flags.writeable

    def test_guard(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the guard")

        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(ts.GuardExceededError, match="enumeration too large"):
            images_array(10)

    def test_shared_array_is_read_only(self):
        images = images_array(3)
        assert images is images_array(3)
        with pytest.raises(ValueError, match="read-only"):
            images[0, 0] = 1


class TestOptimalNoncatalytic:
    def test_otto_regime(self):
        beta = ts.InverseTemperaturePair(1.0, 3.0)
        result = ts.optimal_noncatalytic(
            ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5), beta
        )
        assert result.engine_regime
        assert result.best_value == pytest.approx(0.5, abs=1e-12)
        assert OTTO_SWAP_IMAGE in {w.image for w in result.witnesses}
        assert "engine" in result.report.modes

    def test_passive_initial_state(self):
        beta = ts.InverseTemperaturePair(6.0, 7.0)
        result = ts.optimal_noncatalytic(
            ts.Spectrum.qubit(2.0), ts.Spectrum.qubit(3.0), beta
        )
        assert not result.engine_regime
        assert result.best_value == 0.0
        assert result.witnesses == ()
        assert result.report is None

    def test_matched_exponents_produce_no_work(self):
        # beta_h*omega_h == beta_c*omega_c makes the hot-cold swap worthless
        beta = ts.InverseTemperaturePair(1.0, 2.0)
        result = ts.optimal_noncatalytic(
            ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5), beta
        )
        assert not result.engine_regime

    def test_work_objective_equals_ergotropy(self, rng):
        for _ in range(20):
            omega_h, omega_c, beta = random_regime_tuple(rng)
            result = ts.optimal_noncatalytic(
                ts.Spectrum.qubit(omega_h),
                ts.Spectrum.qubit(omega_c),
                beta,
                objective="work",
            )
            initial = gibbs_product(omega_h, omega_c, beta)
            spectrum = ts.combined_spectrum(
                ts.Spectrum.trivial(1),
                ts.Spectrum.qubit(omega_h),
                ts.Spectrum.qubit(omega_c),
            )
            assert result.best_value == pytest.approx(
                ts.ergotropy(initial.probs, spectrum), abs=1e-12
            )

    def test_report_is_the_best_value(self, rng):
        # the witness report comes from the same sweep as best_value, so the
        # two agree exactly under either objective
        for _ in range(200):
            omega_h, omega_c, beta = random_regime_tuple(rng)
            hot, cold = ts.Spectrum.qubit(omega_h), ts.Spectrum.qubit(omega_c)
            by_efficiency = ts.optimal_noncatalytic(hot, cold, beta)
            assert by_efficiency.report.efficiency == by_efficiency.best_value
            by_work = ts.optimal_noncatalytic(hot, cold, beta, objective="work")
            assert by_work.report.work == by_work.best_value

    def test_unknown_objective(self):
        beta = ts.InverseTemperaturePair(1.0, 2.0)
        with pytest.raises(ValueError, match="unknown objective 'power'"):
            ts.optimal_noncatalytic(
                ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5), beta, objective="power"
            )

    def test_guard(self):
        beta = ts.InverseTemperaturePair(1.0, 2.0)
        with pytest.raises(ts.GuardExceededError):
            ts.optimal_noncatalytic(
                ts.Spectrum((0.0, 1.0, 2.0, 3.0)), ts.Spectrum((0.0, 1.0, 2.0)), beta
            )

    def test_mixtures_never_beat_the_sweep(self, rng):
        # engine-mode efficiency of any permutation mixture stays below the
        # best single permutation, on working bodies up to dimension 6
        for d_h, d_c in ((2, 2), (2, 3), (3, 2)):
            omega_h, omega_c, beta = random_regime_tuple(rng)
            hot = ts.Spectrum((0.0, omega_h)) if d_h == 2 else ts.Spectrum((0.0, 0.6 * omega_h, omega_h))
            cold = ts.Spectrum((0.0, omega_c)) if d_c == 2 else ts.Spectrum((0.0, 0.5 * omega_c, omega_c))
            result = ts.optimal_noncatalytic(hot, cold, beta)
            if not result.engine_regime:
                continue
            initial = ts.product_state(
                [1.0],
                ts.gibbs_populations(hot, beta.beta_h),
                ts.gibbs_populations(cold, beta.beta_c),
            )
            for _ in range(40):
                mix = random_mixture_matrix(rng, d_h * d_c)
                final = ts.PopulationVector(mix @ initial.probs, initial.basis_shape)
                report = ts.stroke_report(initial, final, hot, cold, beta)
                if "engine" in report.modes:
                    assert report.efficiency <= result.best_value + 1e-10


class TestQubitTable:
    def test_canonical_order(self):
        images = [perm.image for perm in canonical_qubit_images()]
        assert images[0] == (0, 1, 2, 3)
        assert images[1] == OTTO_SWAP_IMAGE
        assert list(images[2:]) == sorted(images[2:])
        assert len(set(images)) == 24

    def test_rows_share_the_cached_permutations(self):
        rows = ts.qubit_table(1.0, 1.0, 3.0, 0.5)
        assert tuple(row.perm for row in rows) == canonical_qubit_images()
        assert all(a.perm is b for a, b in zip(rows, canonical_qubit_images()))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.0, 0.0, 3.0, 0.5), "level spacings must be positive and finite"),
            ((1.0, 1.0, 3.0, -0.5), "level spacings must be positive and finite"),
            ((1.0, math.inf, 3.0, 0.5), "level spacings must be positive and finite"),
            ((1.0, 1.0, 3.0, math.nan), "level spacings must be positive and finite"),
            ((0.0, 1.0, 3.0, 0.5), "beta must be positive and finite"),
            ((1.0, 1.0, -3.0, 0.5), "beta must be positive and finite"),
            ((math.inf, 1.0, 3.0, 0.5), "beta must be positive and finite"),
        ],
    )
    def test_invalid_body_refused(self, args, message):
        with pytest.raises(ValueError, match=message):
            ts.qubit_table(*args)

    def test_identity_row(self):
        rows = ts.qubit_table(1.0, 1.0, 3.0, 0.5)
        assert rows[0].perm.image == (0, 1, 2, 3)
        assert rows[0].work == 0.0
        # the identity draws no hot heat, so efficiency is undefined rather
        # than the 0/0 convention
        assert rows[0].efficiency is None

    def test_hot_bath_may_be_colder(self):
        # the table is pure bookkeeping: it does not require beta_c > beta_h
        rows = ts.qubit_table(3.0, 1.0, 1.0, 0.5)
        assert len(rows) == 24
        assert rows[1].work < 0.0

    def test_work_matches_exact_sum(self, rng):
        # each heat is sum_x p_x (E_x - E_image[x]) with its marginal energy,
        # over the float Gibbs populations: one rounding per product and a
        # 4-term sum stay within a few eps of the absolute terms, and work
        # adds one rounding
        eps = Fraction(np.finfo(float).eps)
        for _ in range(300):
            beta_h, beta_c = rng.uniform(0.05, 5.0, 2)
            omega_h, omega_c = rng.uniform(0.05, 3.0, 2)
            probs = np.kron(
                ts.gibbs_populations(ts.Spectrum.qubit(omega_h), beta_h),
                ts.gibbs_populations(ts.Spectrum.qubit(omega_c), beta_c),
            )
            p = [Fraction(float(x)) for x in probs]
            hot = [0, 0, Fraction(omega_h), Fraction(omega_h)]
            cold = [0, Fraction(omega_c), 0, Fraction(omega_c)]
            for row in ts.qubit_table(beta_h, omega_h, beta_c, omega_c):
                image = row.perm.image
                terms_hot = [p[x] * (hot[x] - hot[image[x]]) for x in range(4)]
                terms_cold = [p[x] * (cold[x] - cold[image[x]]) for x in range(4)]
                scale = sum(map(abs, terms_hot + terms_cold))
                exact = sum(terms_hot) + sum(terms_cold)
                assert abs(Fraction(row.work) - exact) <= 8 * eps * scale, image

    def test_otto_row_closed_form(self):
        ah, ac = math.exp(-1.0), math.exp(-1.5)
        norm = 1.0 / ((1.0 + ah) * (1.0 + ac))
        rows = ts.qubit_table(1.0, 1.0, 3.0, 0.5)
        assert rows[1].perm.image == OTTO_SWAP_IMAGE
        assert rows[1].work == pytest.approx(norm * (ah - ac) * 0.5, abs=1e-15)
        assert rows[1].efficiency == pytest.approx(0.5, abs=1e-12)

    def test_all_rows_match_closed_forms(self, rng):
        for _ in range(10):
            omega_h, omega_c, beta = random_regime_tuple(rng)
            ah = math.exp(-beta.beta_h * omega_h)
            ac = math.exp(-beta.beta_c * omega_c)
            expected = table_formulas(ah, ac, omega_h, omega_c)
            rows = ts.qubit_table(beta.beta_h, omega_h, beta.beta_c, omega_c)
            assert len(rows) == 24
            for row in rows:
                want_work, want_eff = expected[row.perm.image]
                assert row.work == pytest.approx(want_work, abs=1e-12)
                if want_eff is None:
                    assert row.efficiency is None
                else:
                    assert row.efficiency == pytest.approx(want_eff, abs=1e-9)

    def test_positive_rows_at_reference_instance(self):
        # At (beta_h=1, omega_h=1, beta_c=3, omega_c=0.5) only the hot-cold
        # swap and one three-cycle actually produce work; the other two
        # engine candidates need a hotter hot bath.
        rows = ts.qubit_table(1.0, 1.0, 3.0, 0.5)
        positive = {r.perm.image for r in rows if r.work > 1e-12}
        assert positive == {(0, 2, 1, 3), (0, 3, 1, 2)}

    def test_engine_candidates_cover_all_positive_rows(self, rng):
        # across the engine regime, every positive-work permutation is one of
        # the four candidates, and each candidate is positive somewhere
        seen = set()
        for _ in range(200):
            omega_h, omega_c, beta = random_regime_tuple(rng)
            rows = ts.qubit_table(beta.beta_h, omega_h, beta.beta_c, omega_c)
            positive = {r.perm.image for r in rows if r.work > 1e-12}
            assert positive <= ENGINE_CANDIDATE_IMAGES
            assert OTTO_SWAP_IMAGE in positive
            seen |= positive
        assert seen == ENGINE_CANDIDATE_IMAGES

    def test_work_multiset_matches_formulas(self, rng):
        omega_h, omega_c, beta = random_regime_tuple(rng)
        ah = math.exp(-beta.beta_h * omega_h)
        ac = math.exp(-beta.beta_c * omega_c)
        expected = sorted(w for w, _ in table_formulas(ah, ac, omega_h, omega_c).values())
        rows = ts.qubit_table(beta.beta_h, omega_h, beta.beta_c, omega_c)
        got = sorted(r.work for r in rows)
        assert np.abs(np.array(got) - np.array(expected)).max() < 1e-12


class TestPassivity:
    def test_already_passive(self):
        p = np.array([0.5, 0.3, 0.2])
        spectrum = ts.Spectrum((0.0, 1.0, 2.0))
        assert np.array_equal(ts.passive_populations(p, spectrum), p)

    def test_two_level_sort(self):
        out = ts.passive_populations([0.1, 0.9], ts.Spectrum.qubit(1.0))
        assert out.tolist() == [0.9, 0.1]

    def test_bruteforce_oracle_five_levels(self, rng):
        spectrum = ts.Spectrum((0.0, 0.3, 0.9, 1.4, 2.2))
        energies = spectrum.energies()
        for _ in range(10):
            p = rng.dirichlet(np.ones(5))
            best = min(
                float(energies @ np.asarray(arrangement))
                for arrangement in itertools.permutations(p)
            )
            passive = ts.passive_populations(p, spectrum)
            assert energies @ passive == pytest.approx(best, abs=1e-12)

    def test_degenerate_energies_stable(self):
        spectrum = ts.Spectrum((0.0, 1.0, 1.0))
        out = ts.passive_populations([0.2, 0.3, 0.5], spectrum)
        # the two excited slots share an energy; ties resolve by level order
        assert out.tolist() == [0.5, 0.3, 0.2]


class TestErgotropy:
    def test_passive_state_has_none(self):
        assert ts.ergotropy([0.9, 0.1], ts.Spectrum.qubit(1.0)) == 0.0

    def test_full_inversion(self):
        assert ts.ergotropy([0.0, 1.0], ts.Spectrum.qubit(1.0)) == pytest.approx(1.0)

    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    def test_nonnegative(self, raw):
        p = np.array(raw) / np.sum(raw)
        spectrum = ts.Spectrum((0.0, 0.5, 1.0, 2.0))
        assert ts.ergotropy(p, spectrum) >= -1e-15


class TestEfficiencyOrdering:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)])
    def test_mode_efficiencies_are_ordered(self, dims, rng):
        # from one fixed initial state, accelerator efficiencies sit below
        # engine efficiencies, which sit below cooler efficiencies
        d_h, d_c = dims
        omega_h, omega_c, beta = random_regime_tuple(rng)
        hot = ts.Spectrum(tuple(np.linspace(0.0, omega_h, d_h)))
        cold = ts.Spectrum(tuple(np.linspace(0.0, omega_c, d_c)))
        initial = ts.product_state(
            [1.0],
            ts.gibbs_populations(hot, beta.beta_h),
            ts.gibbs_populations(cold, beta.beta_c),
        )
        engines, coolers, accelerators = [], [], []
        for image in images_array(d_h * d_c):
            perm = ts.PermutationMap(tuple(image))
            report = ts.stroke_report(
                initial, ts.apply_permutation(initial, perm), hot, cold, beta
            )
            if report.efficiency is None:
                continue
            if "engine" in report.modes:
                engines.append(report.efficiency)
            if "cooler" in report.modes:
                coolers.append(report.efficiency)
            if "accelerator" in report.modes:
                accelerators.append(report.efficiency)
        if accelerators and engines:
            assert max(accelerators) <= min(engines) + 1e-12
        if engines and coolers:
            assert max(engines) <= min(coolers) + 1e-12

    def test_carnot_bound_on_engines(self, rng):
        for _ in range(30):
            omega_h, omega_c, beta = random_regime_tuple(rng)
            rows = ts.qubit_table(beta.beta_h, omega_h, beta.beta_c, omega_c)
            for row in rows:
                if row.work > 1e-12:
                    assert 0.0 < row.efficiency < beta.carnot_efficiency + 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ts.PermutationMap((1, 0)).compose(ts.PermutationMap((0, 1, 2))), "size mismatch"),
        (lambda: ts.PermutationMap((1, 0)).apply_to(np.ones(3)), "size mismatch"),
        (
            lambda: ts.passive_populations([0.2, 0.3, 0.5], ts.Spectrum.qubit(1.0)),
            "population vector does not match the spectrum",
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
