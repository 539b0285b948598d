import numpy as np
import pytest

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


class TestDephase:
    def test_diagonal_unchanged(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        out = ts.dephase(rho, ts.Spectrum.qubit(1.0))
        assert np.array_equal(out, rho)

    def test_plus_state(self):
        plus = 0.5 * np.ones((2, 2), dtype=complex)
        out = ts.dephase(plus, ts.Spectrum.qubit(1.0))
        assert np.allclose(out, np.diag([0.5, 0.5]))

    def test_trace_preserved(self, rng):
        rho = coherence.random_density(4, rng)
        out = ts.dephase(rho, ts.Spectrum((0.0, 0.3, 0.7, 1.2)))
        assert np.trace(out) == pytest.approx(np.trace(rho), abs=1e-14)

    def test_degenerate_block_kept(self):
        rho = coherence.random_density(3, np.random.default_rng(3))
        out = ts.dephase(rho, ts.Spectrum((0.0, 1.0, 1.0)))
        assert out[1, 2] == rho[1, 2]
        assert out[0, 1] == 0.0

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
        dephased = ts.dephase(final, total)
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
        thermal_hot, thermal_cold, _, _ = coherence._bath_factors(3, hot, cold, beta)
        initial = coherence._full_initial_state(rho, thermal_hot, thermal_cold)
        final = stroke @ initial @ stroke.conj().T
        catalyst_energy = np.kron(
            np.diag([0.0, 0.4, 1.1]), np.eye(hot.dimension * cold.dimension)
        )
        shift = float(np.real(np.trace(catalyst_energy @ (initial - final))))
        assert shift == pytest.approx(0.0, abs=1e-12)

    def test_cyclicity_residuals_tiny(self, rng):
        for family in coherence.CYCLIC_FAMILIES:
            rho, stroke, hot, cold, beta = random_cyclic(rng, family)
            thermal_hot, thermal_cold, _, _ = coherence._bath_factors(2, hot, cold, beta)
            initial = coherence._full_initial_state(rho, thermal_hot, thermal_cold)
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
        # set of bath factors
        calls = {"_full_initial_state": 0, "_bath_factors": 0}

        def counted(name):
            build = getattr(coherence, name)

            def wrapper(*args):
                calls[name] += 1
                return build(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(coherence, name, counted(name))
        ts.run_coherence_suite(trials=6, seed=2)
        assert calls == {"_full_initial_state": 12, "_bath_factors": 6}

    @pytest.mark.parametrize("catalyst_dims", [(1,), (2, 3), (5,)])
    def test_same_result_as_numpy_kron(self, monkeypatch, catalyst_dims):
        # the broadcast kernel forms the same products as np.kron, so every
        # draw, heat and residual of the suite is unchanged to the bit
        ours = [
            ts.run_coherence_suite(trials=4, seed=seed, catalyst_dims=catalyst_dims)
            for seed in range(10)
        ]
        monkeypatch.setattr(coherence, "_kron", np.kron)
        reference = [
            ts.run_coherence_suite(trials=4, seed=seed, catalyst_dims=catalyst_dims)
            for seed in range(10)
        ]
        assert ours == reference


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
            return values[::-1], vectors

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
            lambda rho: (np.array([0.7, 0.3]), hadamard),
        )
        with pytest.raises(ts.CoherenceCheckError) as caught:
            ts.decohere_catalyst_construction(
                self.rho, stroke, self.hot, self.cold, self.beta
            )
        value = float(str(caught.value).split()[-1])
        assert str(caught.value) == f"cyclicity did not transfer: residual {value:.3e}"
        assert value > coherence.CYCLICITY_MATCH_TOL
