import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import twostroke as ts
from twostroke import coherence

from conftest import random_regime_tuple


def random_cyclic(rng, family, catalyst_dim=2):
    omega_h, omega_c, beta = random_regime_tuple(rng)
    hot = ts.Spectrum.qubit(omega_h)
    cold = ts.Spectrum.qubit(omega_c)
    rho, stroke = coherence.random_cyclic_engine(
        catalyst_dim, hot, cold, beta, rng, family=family
    )
    return rho, stroke, hot, cold, beta


def full_initial_state(rho, hot, cold, beta):
    """rho_s x tau_h x tau_c by numpy's kron, from the public Gibbs populations."""
    thermal_hot = np.diag(ts.gibbs_populations(hot, beta.beta_h)).astype(complex)
    thermal_cold = np.diag(ts.gibbs_populations(cold, beta.beta_c)).astype(complex)
    return np.kron(np.kron(rho, thermal_hot), thermal_cold)


class TestDephase:
    def test_work_blind_to_offdiagonals(self, rng):
        # the stroke work of a diagonal initial state only sees the diagonal
        # of the final state
        omega_h, omega_c, beta = random_regime_tuple(rng)
        hot, cold = ts.Spectrum.qubit(omega_h), ts.Spectrum.qubit(omega_c)
        total = ts.combined_spectrum(ts.Spectrum.trivial(1), hot, cold)
        initial = np.diag(
            np.kron(
                ts.gibbs_populations(hot, beta.beta_h),
                ts.gibbs_populations(cold, beta.beta_c),
            )
        ).astype(complex)
        stroke = coherence.random_unitary(4, rng)
        final = stroke @ initial @ stroke.conj().T
        energies = total.energies()
        work_full = float(np.real(np.trace(energies[:, None] * (initial - final) @ np.eye(4))))
        dephased = np.diag(np.diag(final))
        work_dephased = float(energies @ np.real(np.diag(initial - dephased)))
        assert work_full == pytest.approx(work_dephased, abs=1e-12)


class TestValidation:
    def test_non_unitary_rejected(self, rng):
        rho = coherence.random_density(2, rng)
        with pytest.raises(ValueError, match="unitary"):
            ts.decohere_catalyst_construction(
                rho,
                np.ones((8, 8), dtype=complex),
                ts.Spectrum.qubit(1.0),
                ts.Spectrum.qubit(0.5),
                ts.InverseTemperaturePair(1.0, 3.0),
            )

    def test_non_density_rejected(self, rng):
        bad = np.eye(2, dtype=complex) * 0.7
        with pytest.raises(ValueError, match="trace"):
            ts.decohere_catalyst_construction(
                bad,
                np.eye(8, dtype=complex),
                ts.Spectrum.qubit(1.0),
                ts.Spectrum.qubit(0.5),
                ts.InverseTemperaturePair(1.0, 3.0),
            )

    @pytest.mark.parametrize(
        "rho, unitary_dim, message",
        [
            ([[0.5, 0.1], [0.0, 0.5]], 8, "not Hermitian"),
            ([[1.2, 0.0], [0.0, -0.2]], 8, "not positive semidefinite"),
            ([[0.5, 0.0], [0.0, 0.5]], 4, "does not match the working-body dimension"),
        ],
    )
    def test_invalid_engine_refused(self, rho, unitary_dim, message):
        with pytest.raises(ValueError, match=message):
            ts.decohere_catalyst_construction(
                np.array(rho, dtype=complex),
                np.eye(unitary_dim, dtype=complex),
                ts.Spectrum.qubit(1.0),
                ts.Spectrum.qubit(0.5),
                ts.InverseTemperaturePair(1.0, 3.0),
            )

    def test_unknown_family_refused(self, rng):
        with pytest.raises(ValueError, match="unknown family 'nope'"):
            random_cyclic(rng, "nope")

    @pytest.mark.parametrize("hot_dim, cold_dim", [(4, 1), (1, 4)])
    def test_ladder_needs_two_qubits(self, rng, hot_dim, cold_dim):
        # four hot-cold levels that are not two qubits have no ladder
        hot, cold = ts.Spectrum(tuple(range(hot_dim))), ts.Spectrum(tuple(range(cold_dim)))
        beta = ts.InverseTemperaturePair(1.0, 3.0)
        with pytest.raises(ValueError, match="ladder engines need qubit"):
            coherence.random_cyclic_engine(2, hot, cold, beta, rng, family="ladder")
        for _ in range(30):
            rho, stroke = coherence.random_cyclic_engine(2, hot, cold, beta, rng)
            ts.decohere_catalyst_construction(rho, stroke, hot, cold, beta)


class TestQutritHotFactor:
    """Generators with a three-level hot factor, the d-level bodies of the
    paper's conjecture: no ladder, and the other families decohere exactly."""

    @staticmethod
    def engine_parameters(rng):
        hot = ts.Spectrum((0.0, *np.sort(rng.uniform(0.5, 2.0, 2))))
        cold = ts.Spectrum.qubit(float(rng.uniform(0.2, 1.5)))
        beta_h = float(rng.uniform(0.2, 1.0))
        return hot, cold, ts.InverseTemperaturePair(beta_h, beta_h + float(rng.uniform(0.2, 2.0)))

    def test_random_family_is_never_ladder(self, monkeypatch, rng):
        families = []
        draw = coherence._draw_engine

        def recording(*args, **kwargs):
            engine = draw(*args, **kwargs)
            families.append(engine.family)
            return engine

        monkeypatch.setattr(coherence, "_draw_engine", recording)
        for _ in range(200):
            coherence.random_cyclic_engine(2, *self.engine_parameters(rng), rng)
        assert set(families) == {"hc_local", "block_rotation"}

    def test_ladder_refused(self, rng):
        with pytest.raises(ValueError, match="ladder engines need qubit"):
            coherence.random_cyclic_engine(
                2, *self.engine_parameters(rng), rng, family="ladder"
            )

    @pytest.mark.parametrize("family", ["hc_local", "block_rotation"])
    def test_decohered_heats_match(self, family):
        worst = 0.0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            hot, cold, beta = self.engine_parameters(rng)
            rho, stroke = coherence.random_cyclic_engine(
                2 + seed % 2, hot, cold, beta, rng, family=family
            )
            original, rotated = ts.decohere_catalyst_construction(rho, stroke, hot, cold, beta)
            worst = max(worst, abs(original[0] - rotated[0]), abs(original[1] - rotated[1]))
        assert worst <= 1e-10


class TestDecohereConstruction:
    def test_already_diagonal_catalyst(self, rng):
        rho, stroke, hot, cold, beta = random_cyclic(rng, "hc_local")
        diag = np.diag(np.sort(np.real(np.diag(coherence.random_density(2, rng))))[::-1])
        diag = diag / np.trace(diag)
        original, rotated = ts.decohere_catalyst_construction(
            diag.astype(complex), stroke, hot, cold, beta
        )
        assert original[0] == pytest.approx(rotated[0], abs=1e-12)
        assert original[1] == pytest.approx(rotated[1], abs=1e-12)

    @pytest.mark.parametrize("family", coherence.CYCLIC_FAMILIES)
    def test_heats_match_per_family(self, family, rng):
        for _ in range(20):
            rho, stroke, hot, cold, beta = random_cyclic(rng, family)
            original, rotated = ts.decohere_catalyst_construction(
                rho, stroke, hot, cold, beta
            )
            assert abs(original[0] - rotated[0]) <= 1e-10
            assert abs(original[1] - rotated[1]) <= 1e-10

    def test_work_equality(self, rng):
        rho, stroke, hot, cold, beta = random_cyclic(rng, "block_rotation", 3)
        original, rotated = ts.decohere_catalyst_construction(
            rho, stroke, hot, cold, beta
        )
        assert sum(original) == pytest.approx(sum(rotated), abs=1e-10)

    def test_catalyst_energy_irrelevant_under_cyclicity(self, rng):
        # a nontrivial catalyst Hamiltonian stores no net energy across a
        # catalyst-preserving stroke, so the heat pair already fixes the work
        rho, stroke, hot, cold, beta = random_cyclic(rng, "ladder", 3)
        initial = full_initial_state(rho, hot, cold, beta)
        final = stroke @ initial @ stroke.conj().T
        catalyst_energy = np.kron(
            np.diag([0.0, 0.4, 1.1]), np.eye(hot.dimension * cold.dimension)
        )
        shift = float(np.real(np.trace(catalyst_energy @ (initial - final))))
        assert shift == pytest.approx(0.0, abs=1e-12)

    def test_cyclicity_residuals_tiny(self, rng):
        for family in coherence.CYCLIC_FAMILIES:
            rho, stroke, hot, cold, beta = random_cyclic(rng, family)
            initial = full_initial_state(rho, hot, cold, beta)
            final = stroke @ initial @ stroke.conj().T
            residual = np.abs(
                coherence.catalyst_marginal_matrix(final, 2) - rho
            ).max()
            assert residual < 1e-12


class TestSuite:
    def test_short_run(self):
        result = ts.run_coherence_suite(trials=30, seed=5)
        assert result.trials == 30
        assert result.max_heat_mismatch <= 1e-10
        assert result.max_cyclicity_residual <= 1e-10

    def test_deterministic_under_seed(self):
        first = ts.run_coherence_suite(trials=10, seed=9)
        second = ts.run_coherence_suite(trials=10, seed=9)
        assert first == second

    def test_two_states_per_trial(self, monkeypatch):
        # the original and the decohered state, each built once, from one
        # set of bath factors per trial
        built = {"_full_initial_state": 0, "_bath_factors": 0}
        counted_axis = {"_full_initial_state": 0, "_bath_factors": 1}

        def counted(name):
            build = getattr(coherence, name)

            def wrapper(*args):
                built[name] += len(args[counted_axis[name]])
                return build(*args)

            return wrapper

        for name in built:
            monkeypatch.setattr(coherence, name, counted(name))
        ts.run_coherence_suite(trials=6, seed=2)
        assert built == {"_full_initial_state": 12, "_bath_factors": 6}

    @pytest.mark.parametrize("catalyst_dims", [(1,), (2, 3), (5,)])
    def test_same_result_as_numpy_kron(self, monkeypatch, catalyst_dims):
        # the broadcast kernel forms the same products as np.kron taken one
        # matrix at a time, so every draw, heat and residual of the suite is
        # unchanged to the bit
        def numpy_kron(a, b):
            batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
            a = np.broadcast_to(a, batch + a.shape[-2:]).reshape(-1, *a.shape[-2:])
            b = np.broadcast_to(b, batch + b.shape[-2:]).reshape(-1, *b.shape[-2:])
            products = np.array([np.kron(x, y) for x, y in zip(a, b)])
            return products.reshape(batch + products.shape[-2:])

        ours = [
            ts.run_coherence_suite(trials=4, seed=seed, catalyst_dims=catalyst_dims)
            for seed in range(10)
        ]
        monkeypatch.setattr(coherence, "_kron", numpy_kron)
        reference = [
            ts.run_coherence_suite(trials=4, seed=seed, catalyst_dims=catalyst_dims)
            for seed in range(10)
        ]
        assert ours == reference

    # (run_coherence_suite arguments, max heat mismatch, max residual), taken
    # from the one-trial-at-a-time suite.  Seeds 124 and 159 move when the
    # eigenvector phases round differently, (60, 11) spans several chunks,
    # and d = 16 evaluates its two states one at a time.  At d = 8 two trials
    # make one chunk, at d = 12 one trial's two states first exceed
    # _CHUNK_ENTRIES, and seed 4's first d = 2 stack holds all three families.
    PINNED = [
        ((3, 1), 5.551115123125783e-16, 2.2215691303690623e-16),
        ((3, 42), 1.2212453270876722e-15, 4.441532816980157e-16),
        ((3, 124), 4.718447854656915e-16, 3.3306691244901244e-16),
        ((3, 159), 1.1102230246251565e-16, 2.2205350952036615e-16),
        ((3, 1855626437), 1.457167719820518e-16, 2.2240311150968523e-16),
        ((20, 3, (1,)), 0.0, 8.884757843644617e-16),
        ((20, 4, (1,)), 0.0, 1.4433994557328307e-15),
        ((20, 3, (5,)), 1.0547118733938987e-15, 2.2205519258444853e-16),
        ((20, 4, (5,)), 1.0269562977782698e-15, 2.775560949692613e-16),
        ((60, 11), 1.4432899320127035e-15, 7.216619996467567e-16),
        ((2, 5, (16,)), 1.1102230246251565e-16, 4.165916131619751e-17),
        ((4, 3, (8,)), 5.828670879282072e-16, 1.165754827143445e-16),
        ((2, 3, (11,)), 6.661338147750939e-16, 2.7756422635651865e-17),
        ((2, 3, (12,)), 1.3877787807814457e-16, 4.172868667667449e-17),
        ((6, 4), 4.440892098500626e-16, 3.3369401129541716e-16),
    ]

    @pytest.mark.parametrize("args, mismatch, residual", PINNED)
    def test_pinned_results(self, args, mismatch, residual):
        result = ts.run_coherence_suite(*args)
        assert result == coherence.CoherenceSuiteResult(args[0], mismatch, residual)

    def test_pinned_run_spans_chunks(self):
        dims = (2, 3)
        sizes = [2 * (4 * dims[t % 2]) ** 2 for t in range(60)]
        assert sum(sizes) > 2 * coherence._CHUNK_ENTRIES

    def test_pinned_chunk_boundaries(self, monkeypatch):
        assert [len(chunk) for chunk in coherence._trial_chunks([8] * 4)] == [2, 2]
        assert [len(chunk) for chunk in coherence._trial_chunks([11] * 2)] == [1, 1]
        assert 2 * (4 * 11) ** 2 <= coherence._CHUNK_ENTRIES < 2 * (4 * 12) ** 2
        stacks = []
        decohere = coherence._decohere_stack

        def recording(rho, unitary, engines):
            stacks.append(rho.shape[1])
            return decohere(rho, unitary, engines)

        families = []
        draw = coherence._draw_engine

        def drawing(*args, **kwargs):
            engine = draw(*args, **kwargs)
            families.append((engine.catalyst.shape[-1], engine.family))
            return engine

        monkeypatch.setattr(coherence, "_decohere_stack", recording)
        monkeypatch.setattr(coherence, "_draw_engine", drawing)
        ts.run_coherence_suite(6, 4)
        assert stacks == [2, 3]
        assert {family for d, family in families if d == 2} == set(coherence.CYCLIC_FAMILIES)

    @pytest.mark.parametrize(
        "trials, seed, catalyst_dims",
        [(60, 11, (2, 3)), (20, 3, (1,)), (12, 8, (1, 4, 2, 5)), (2, 5, (16,))],
    )
    def test_same_as_one_trial_at_a_time(self, trials, seed, catalyst_dims):
        # the suite's draws, heats and residuals, trial by trial through the
        # public one-engine functions and one generator
        rng = np.random.default_rng(seed)
        worst_mismatch = worst_residual = 0.0
        for trial in range(trials):
            catalyst_dim = catalyst_dims[trial % len(catalyst_dims)]
            hot = ts.Spectrum.qubit(float(rng.uniform(0.5, 2.0)))
            cold = ts.Spectrum.qubit(float(rng.uniform(0.2, 1.5)))
            beta_h = float(rng.uniform(0.2, 1.0))
            beta = ts.InverseTemperaturePair(beta_h, beta_h + float(rng.uniform(0.2, 2.0)))
            rho, stroke = coherence.random_cyclic_engine(catalyst_dim, hot, cold, beta, rng)
            original, rotated = ts.decohere_catalyst_construction(rho, stroke, hot, cold, beta)
            final = stroke @ full_initial_state(rho, hot, cold, beta) @ stroke.conj().T
            residual = np.abs(
                coherence.catalyst_marginal_matrix(final, catalyst_dim) - rho
            ).max()
            mismatch = max(abs(original[0] - rotated[0]), abs(original[1] - rotated[1]))
            worst_mismatch = max(worst_mismatch, mismatch)
            worst_residual = max(worst_residual, float(residual))
        expected = coherence.CoherenceSuiteResult(trials, worst_mismatch, worst_residual)
        assert ts.run_coherence_suite(trials, seed, catalyst_dims) == expected

    @staticmethod
    def traced_peak(*args):
        ts.run_coherence_suite(*args[:1], 99, *args[2:])  # fill caches first
        tracemalloc.start()
        try:
            ts.run_coherence_suite(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_trials(self):
        # trials run a chunk at a time, so 2000 trials hold what one chunk
        # does; at d = 64 one state is evaluated at a time, within 10% of the
        # 7.55 MB the one-trial-at-a-time suite peaked at
        assert self.traced_peak(2000, 0) <= 2 * 2**20
        one = self.traced_peak(1, 0, (64,))
        assert one <= 1.1 * 7.55e6
        assert self.traced_peak(4, 0, (64,)) <= 1.1 * one

    @pytest.mark.parametrize(
        "trials, catalyst_dims",
        [(3, (0,)), (3, (-1,)), (3, (2, 0)), (1, (2, 0)), (-1, (2, 3)), (2, ())],
    )
    def test_invalid_arguments_refused_before_drawing(self, monkeypatch, trials, catalyst_dims):
        def refuse(*args, **kwargs):
            raise AssertionError("the suite drew an engine")

        monkeypatch.setattr(coherence, "_draw_engine", refuse)
        with pytest.raises(ValueError, match="trials >= 0 and catalyst dimensions >= 1"):
            ts.run_coherence_suite(trials, 0, catalyst_dims)

    def test_first_failing_stack_raises(self, monkeypatch):
        # trials 0 and 2 have d = 2, trials 1 and 3 d = 3; every decohered
        # pass fails, and the d = 2 stack, decohered first, raises before the
        # d = 3 stack is evaluated
        calls = []
        evaluate = coherence._evaluate_strokes

        def failing(rho, unitary, baths):
            calls.append(rho.shape[-1])
            hot, cold, residual = evaluate(rho, unitary, baths)
            return (hot + 1.0 if len(calls) % 2 == 0 else hot), cold, residual

        monkeypatch.setattr(coherence, "_evaluate_strokes", failing)
        message = "^decohered engine heats differ by 1.000e"
        with pytest.raises(ts.CoherenceCheckError, match=message):
            ts.run_coherence_suite(4, 0)
        assert calls == [2, 2]

    @pytest.mark.parametrize("nan_hot, nan_cold", [(True, False), (False, True), (True, True)])
    def test_nan_decohered_heat_fails(self, monkeypatch, nan_hot, nan_cold):
        # a NaN compares false with every tolerance, and max(0.0, nan) is 0.0
        calls = []
        evaluate = coherence._evaluate_strokes

        def nan_heats(rho, unitary, baths):
            calls.append(rho.shape[-1])
            hot, cold, residual = evaluate(rho, unitary, baths)
            if len(calls) % 2 == 0:
                hot = np.where(nan_hot, np.nan, hot)
                cold = np.where(nan_cold, np.nan, cold)
            return hot, cold, residual

        monkeypatch.setattr(coherence, "_evaluate_strokes", nan_heats)
        with pytest.raises(ts.CoherenceCheckError, match="^decohered engine heats differ by nan$"):
            ts.run_coherence_suite(3, 1)

    def test_zero_trials(self):
        assert ts.run_coherence_suite(0, 0, ()) == coherence.CoherenceSuiteResult(0, 0.0, 0.0)


def sha256(*arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestGeneratorBytes:
    """The generators' matrices at fixed seeds, to the byte, as the
    one-engine builders produced them before the stacked QR."""

    hot = ts.Spectrum.qubit(1.3)
    cold = ts.Spectrum.qubit(0.4)
    beta = ts.InverseTemperaturePair(0.7, 2.1)

    def test_random_unitary(self):
        unitary = coherence.random_unitary(5, np.random.default_rng(7))
        assert sha256(unitary) == "09df30788e802bb0e1d3c2596504734b743553f6c1ddb90b5044b6e3d078f38a"

    def test_random_density(self):
        rho = coherence.random_density(4, np.random.default_rng(7))
        assert sha256(rho) == "eaaf547573ea8106b68f1bac7fd069f03ed0f9877f3c02d4e7814c24fa48ffd1"

    @pytest.mark.parametrize(
        "family, expected",
        [
            ("hc_local", "8a258d05356e6aa8114f1b9c5cb659b4fc90cbb1eee35029a40e56b7bc9f8a41"),
            ("block_rotation", "6574ffe666101c785cd2992ad3dfb008a9535281aaac7edbf66181e9dca2de06"),
            ("ladder", "f8dd07ce3807a1a989bed3b379b1b195c470035ae60eb4932bd37964783ea5f3"),
        ],
    )
    def test_random_cyclic_engine(self, family, expected):
        rho, stroke = coherence.random_cyclic_engine(
            3, self.hot, self.cold, self.beta, np.random.default_rng(7), family=family
        )
        assert sha256(rho, stroke) == expected


class TestFailureBranches:
    """A wrong eigenbasis makes the decohered engine a different engine;
    both checks of the construction must then refuse it."""

    hot = ts.Spectrum.qubit(1.0)
    cold = ts.Spectrum.qubit(0.5)
    beta = ts.InverseTemperaturePair(1.0, 3.0)
    rho = np.diag([0.7, 0.3]).astype(complex)

    def test_heat_mismatch(self, monkeypatch):
        # the hot-cold swap runs on catalyst level 1 only, so its heats scale
        # with that level's population; misordered eigenvalues move 0.3 to 0.7
        swap = np.eye(4)[[0, 2, 1, 3]]
        stroke = np.block([[np.eye(4), np.zeros((4, 4))], [np.zeros((4, 4)), swap]])
        original, _ = ts.decohere_catalyst_construction(
            self.rho, stroke, self.hot, self.cold, self.beta
        )
        eigenbasis = coherence._phase_fixed_descending_eigenbasis

        def misordered(rho):
            values, vectors = eigenbasis(rho)
            return values[..., ::-1], vectors

        monkeypatch.setattr(coherence, "_phase_fixed_descending_eigenbasis", misordered)
        expected = max(abs(q) for q in original) * 4 / 3
        with pytest.raises(ts.CoherenceCheckError) as caught:
            ts.decohere_catalyst_construction(
                self.rho, stroke, self.hot, self.cold, self.beta
            )
        value = float(str(caught.value).split()[-1])
        assert str(caught.value) == f"decohered engine heats differ by {value:.3e}"
        assert value == pytest.approx(expected, rel=1e-3)

    def test_cyclicity_did_not_transfer(self, monkeypatch):
        # a phase on the catalyst alone preserves rho_s and draws no heat;
        # in a Hadamard basis it mixes the catalyst levels, heats still zero
        stroke = np.kron(np.diag([1.0, 1j]), np.eye(4))
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
        monkeypatch.setattr(
            coherence,
            "_phase_fixed_descending_eigenbasis",
            lambda rho: (np.array([[0.7, 0.3]]), hadamard[None]),
        )
        with pytest.raises(ts.CoherenceCheckError) as caught:
            ts.decohere_catalyst_construction(
                self.rho, stroke, self.hot, self.cold, self.beta
            )
        value = float(str(caught.value).split()[-1])
        assert str(caught.value) == f"cyclicity did not transfer: residual {value:.3e}"
        assert value > coherence.CYCLICITY_MATCH_TOL


@pytest.mark.parametrize(
    "rho, unitary, message",
    [
        (np.zeros((2, 3)), np.eye(8), "catalyst state must be square"),
        (np.eye(2) / 2, np.zeros((8, 7)), "stroke unitary must be square"),
    ],
)
def test_decohere_shape_refusals(rho, unitary, message):
    beta = ts.InverseTemperaturePair(1.0, 2.0)
    with pytest.raises(ValueError) as info:
        ts.decohere_catalyst_construction(
            rho, unitary, ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5), beta
        )
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "which, message", [(0, "catalyst state must be finite"), (1, "stroke unitary must be finite")]
)
def test_decohere_non_finite_refusals(which, message, bad):
    matrices = [np.eye(2, dtype=complex) / 2, np.eye(8, dtype=complex)]
    matrices[which][0, 1] = bad
    beta = ts.InverseTemperaturePair(1.0, 2.0)
    with pytest.raises(ValueError) as info:
        ts.decohere_catalyst_construction(
            *matrices, ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5), beta
        )
    assert str(info.value) == message


@st.composite
def bounded_engines(draw):
    """Finite complex (rho_s, U) of matching shape, entries bounded by 10; about
    half are turned into a density matrix and a unitary, so some pass every check."""
    d = draw(st.integers(1, 3))
    entries = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)
    rho = draw(arrays(complex, (d, d), elements=entries))
    unitary = draw(arrays(complex, (4 * d, 4 * d), elements=entries))
    if draw(st.booleans()):
        weight = np.vdot(rho, rho).real
        if weight > 1e-6:
            rho = rho @ rho.conj().T / weight
        unitary = np.linalg.qr(unitary)[0]
    return rho, unitary


@given(bounded_engines())
def test_decohere_bounded_input_is_refused_or_finite(engine):
    beta = ts.InverseTemperaturePair(1.0, 2.0)
    try:
        heats = ts.decohere_catalyst_construction(
            *engine, ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5), beta
        )
    except (ValueError, ts.CoherenceCheckError):
        return
    values = [q for pair in heats for q in pair]
    assert len(values) == 4 and all(isinstance(q, float) and np.isfinite(q) for q in values)
