import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import linprog

import twostroke as ts
from twostroke import lp, simplex
from twostroke.permutations import images_array


def random_instance(rng, dims=(2, 2, 2)):
    """Random catalyst-assisted working body with a Gibbs-product initial."""
    d_s, d_h, d_c = dims
    hot = ts.Spectrum(tuple(np.sort(np.concatenate([[0.0], rng.uniform(0.2, 2.0, d_h - 1)]))))
    cold = ts.Spectrum(tuple(np.sort(np.concatenate([[0.0], rng.uniform(0.1, 1.5, d_c - 1)]))))
    beta_h = float(rng.uniform(0.3, 1.5))
    beta = ts.InverseTemperaturePair(beta_h, beta_h + float(rng.uniform(0.2, 2.0)))
    catalyst = rng.dirichlet(np.ones(d_s))
    initial = ts.product_state(
        catalyst,
        ts.gibbs_populations(hot, beta.beta_h),
        ts.gibbs_populations(cold, beta.beta_c),
    )
    hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(d_s), hot, cold)
    return hamiltonian, initial, d_s, beta


def permutation_problem(hamiltonian, initial, d_s):
    """The same program in permutation coordinates: one column per
    permutation, all n! of them."""
    images = images_array(initial.dimension)
    return lp.build_work_bound_problem(hamiltonian, initial, d_s, images)


def scipy_value(problem):
    rows = [np.ones(problem.work.size)]
    rhs = [1.0]
    for k in range(problem.target.size - 1):
        rows.append(problem.marginals[:, k])
        rhs.append(problem.target[k])
    result = linprog(
        -problem.work, A_eq=np.array(rows), b_eq=np.array(rhs), bounds=(0, None),
        method="highs",
    )
    assert result.success
    return -result.fun


def best_single_catalyst_preserving(problem):
    keeps = np.abs(problem.marginals - problem.target).max(axis=1) <= 1e-12
    return float(problem.work[keeps].max())


def assert_dual_feasible_for_permutations(solution, problem):
    """(y, x) bounds every permutation column: y >= w_m - a_m . x."""
    x = np.asarray(solution.dual_x)
    slack = problem.work - problem.marginals[:, : x.size] @ x - solution.dual_y
    assert slack.max() <= 1e-9


class TestTrivialCatalyst:
    def test_value_equals_ergotropy(self, rng):
        for _ in range(10):
            hamiltonian, initial, _, _ = random_instance(rng, (1, 2, 3))
            solution = ts.lp_work_upper_bound(hamiltonian, initial, 1)
            assert solution.status == "optimal"
            assert solution.value == pytest.approx(
                ts.ergotropy(initial.probs, hamiltonian), abs=1e-10
            )

    def test_passive_initial_sits_at_identity(self):
        # omega_c > omega_h makes the Gibbs product passive: no work at all
        beta = ts.InverseTemperaturePair(6.0, 7.0)
        hot, cold = ts.Spectrum.qubit(2.0), ts.Spectrum.qubit(3.0)
        initial = ts.product_state(
            [1.0],
            ts.gibbs_populations(hot, beta.beta_h),
            ts.gibbs_populations(cold, beta.beta_c),
        )
        hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(1), hot, cold)
        solution = ts.lp_work_upper_bound(hamiltonian, initial, 1)
        assert solution.value == pytest.approx(0.0, abs=1e-12)
        assert list(solution.alphas) == [ts.PermutationMap((0, 1, 2, 3))]
        assert solution.alphas[ts.PermutationMap((0, 1, 2, 3))] == pytest.approx(1.0)


class TestCatalyticBound:
    def test_contains_two_block_ladder_value(self):
        # seed the catalyst with the preserved state of the (1, 1) split so
        # that stroke is feasible for the program
        beta = ts.InverseTemperaturePair(1.0, 5.0)
        hot, cold = ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.6)
        state = ts.solve_catalyst_state(
            ts.SimplePermSpec(1, 1), math.exp(-1.0), math.exp(-3.0)
        )
        initial = ts.product_state(
            state.populations,
            ts.gibbs_populations(hot, beta.beta_h),
            ts.gibbs_populations(cold, beta.beta_c),
        )
        hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(2), hot, cold)
        solution = ts.lp_work_upper_bound(hamiltonian, initial, 2)
        ladder, _ = ts.simple_perm_report(ts.SimplePermSpec(1, 1), 1.0, 0.6, beta)
        assert solution.value >= ladder.work - 1e-12

    def test_dominates_single_permutations_and_zero(self, rng):
        for dims in ((2, 2, 2), (1, 2, 4), (2, 2, 2)):
            hamiltonian, initial, d_s, _ = random_instance(rng, dims)
            solution = ts.lp_work_upper_bound(hamiltonian, initial, d_s)
            problem = permutation_problem(hamiltonian, initial, d_s)
            assert solution.value >= -1e-12
            assert solution.value >= best_single_catalyst_preserving(problem) - 1e-10
            assert_dual_feasible_for_permutations(solution, problem)

    def test_matches_scipy(self, rng):
        for dims in ((1, 2, 2), (2, 2, 2), (1, 2, 3), (1, 3, 2)):
            hamiltonian, initial, d_s, _ = random_instance(rng, dims)
            solution = ts.lp_work_upper_bound(hamiltonian, initial, d_s)
            problem = permutation_problem(hamiltonian, initial, d_s)
            assert solution.value == pytest.approx(scipy_value(problem), abs=1e-9)
            assert_dual_feasible_for_permutations(solution, problem)

    def test_decomposes_optimum_with_rounding_noise(self):
        # this optimum comes out of the simplex 1.1e-12 off a permutation
        beta = ts.InverseTemperaturePair(1.0, 3.5158852056317924)
        hot, cold = ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5598645854362162)
        initial = ts.product_state(
            [0.7322523363411584, 1.0 - 0.7322523363411584],
            ts.gibbs_populations(hot, beta.beta_h),
            ts.gibbs_populations(cold, beta.beta_c),
        )
        hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(2), hot, cold)
        solution = ts.lp_work_upper_bound(hamiltonian, initial, 2)
        assert solution.status == "optimal"
        assert max(solution.residuals.values()) <= 1e-9

    def test_duality_gap(self, rng):
        for _ in range(10):
            hamiltonian, initial, d_s, _ = random_instance(rng, (2, 2, 2))
            solution = ts.lp_work_upper_bound(hamiltonian, initial, d_s)
            assert ts.lp_dual_check(solution) <= 1e-8

    def test_certificate_is_the_last_pricing(self, rng):
        # the loop's last pricing runs at the final duals, so the residual it
        # gives is lp_dual_check's to the bit
        beta = ts.InverseTemperaturePair(1.0, 3.0)
        bodies = [
            (*qubit_body([0.7, 0.3], 0.5, beta), 2),  # the bodies of the LP goldens
            (*qubit_body([0.4, 0.3, 0.2, 0.1], 0.5, beta), 4),
        ]
        for d_s in range(1, 9):
            for _ in range(3):
                bodies.append(random_instance(rng, (d_s, 2, 2))[:3])
        for hamiltonian, initial, d_s in bodies:
            solution = ts.lp_work_upper_bound(hamiltonian, initial, d_s)
            violation = solution.residuals["dual_max_violation"]
            assert repr(violation) == repr(ts.lp_dual_check(solution))

    def test_monotone_in_catalyst_dimension(self, rng):
        # embedding a d-block catalyst into d+1 blocks (new block empty)
        # preserves feasibility, so the bound cannot drop
        for base_dims, big_dims in (((1, 2, 2), (2, 2, 2)), ((2, 2, 1), (3, 2, 1))):
            hamiltonian, initial, d_s, _ = random_instance(rng, base_dims)
            small = ts.lp_work_upper_bound(hamiltonian, initial, d_s)
            padded = np.concatenate([initial.catalyst_marginal(), [0.0]])
            grid = initial.grid()
            big_probs = np.concatenate([initial.probs, np.zeros(grid[0].size)])
            big_initial = ts.PopulationVector(
                big_probs, (d_s + 1, base_dims[1], base_dims[2])
            )
            big_hamiltonian = ts.Spectrum(hamiltonian.levels + hamiltonian.levels[: grid[0].size])
            big = ts.lp_work_upper_bound(big_hamiltonian, big_initial, d_s + 1)
            assert big.value >= small.value - 1e-10

    def test_clausius_at_optimum(self, rng):
        for _ in range(10):
            hamiltonian, initial, d_s, beta = random_instance(rng, (2, 2, 2))
            solution = ts.lp_work_upper_bound(hamiltonian, initial, d_s)
            final = np.zeros_like(initial.probs)
            for perm, weight in solution.alphas.items():
                final += weight * perm.apply_to(initial.probs)
            report = ts.stroke_report(
                initial,
                ts.PopulationVector(final, initial.basis_shape),
                _hot_spectrum(hamiltonian, initial),
                _cold_spectrum(hamiltonian, initial),
                beta,
            )
            assert ts.clausius_lhs(report.heat_hot, report.heat_cold, beta) <= 1e-10

    def test_dual_perturbation_respects_weak_duality(self, rng):
        hamiltonian, initial, d_s, _ = random_instance(rng, (2, 2, 2))
        solution = ts.lp_work_upper_bound(hamiltonian, initial, d_s)
        problem = permutation_problem(hamiltonian, initial, d_s)
        assert_dual_feasible_for_permutations(solution, problem)
        x = np.asarray(solution.dual_x) + 0.1
        y = float((problem.work - problem.marginals[:, : x.size] @ x).max())
        perturbed_objective = y + float(problem.target[: x.size] @ x)
        assert perturbed_objective >= solution.value - 1e-10


def _hot_spectrum(hamiltonian, state):
    d_s, d_h, d_c = state.basis_shape
    energies = np.asarray(hamiltonian.levels).reshape(d_s, d_h, d_c)
    return ts.Spectrum(tuple(energies[0, :, 0]))


def _cold_spectrum(hamiltonian, state):
    d_s, d_h, d_c = state.basis_shape
    energies = np.asarray(hamiltonian.levels).reshape(d_s, d_h, d_c)
    return ts.Spectrum(tuple(energies[0, 0, :]))


class TestVertexReconstruction:
    def test_nondegenerate_optimum_inverts(self, rng):
        # the optimum is a vertex of the master program: at most d_s
        # permutations, each with zero reduced cost against the duals
        # (complementary slackness), mixed to keep the catalyst block sums
        # and to reach the value
        for _ in range(4):
            hamiltonian, initial, d_s, _ = random_instance(rng, (2, 2, 2))
            solution = ts.lp_work_upper_bound(hamiltonian, initial, d_s)
            assert len(solution.alphas) <= d_s
            problem = lp.build_work_bound_problem(
                hamiltonian, initial, d_s, np.array([p.image for p in solution.alphas])
            )
            weights = np.array(list(solution.alphas.values()))
            x = np.asarray(solution.dual_x)
            reduced = problem.work - solution.dual_y - problem.marginals[:, :-1] @ x
            assert np.abs(reduced).max() <= 1e-10
            assert np.abs(weights @ problem.marginals - problem.target).max() <= 1e-10
            assert weights @ problem.work == pytest.approx(solution.value, abs=1e-10)


class TestPricing:
    def test_sort_matches_brute_force(self, rng):
        # the sorted permutation has the largest reduced cost w - y - x . a
        # over all n! permutation columns, at the solved duals and away from
        # them; the uniform catalyst repeats populations, so the sort meets ties
        bodies = [random_instance(rng, dims)[:3] for dims in ((1, 2, 4), (2, 2, 2), (2, 1, 3))]
        beta = ts.InverseTemperaturePair(1.0, 3.0)
        bodies.append((*qubit_body([0.5, 0.5], 0.6, beta), 2))
        for hamiltonian, initial, d_s in bodies:
            solution = ts.lp_work_upper_bound(hamiltonian, initial, d_s)
            problem = permutation_problem(hamiltonian, initial, d_s)
            energies, probs = hamiltonian.energies(), initial.probs
            duals = [(solution.dual_y, np.asarray(solution.dual_x))]
            for _ in range(5):
                duals.append((
                    solution.dual_y + float(rng.normal(0.0, 0.1)),
                    np.asarray(solution.dual_x) + rng.normal(0.0, 0.5, d_s - 1),
                ))
            for y, x in duals:
                image, reduced = lp._pricing(energies, probs, d_s)(y, x)
                brute = problem.work - y - problem.marginals[:, :-1] @ x
                assert reduced == pytest.approx(brute.max(), abs=1e-12)
                column = lp.build_work_bound_problem(hamiltonian, initial, d_s, image[None])
                own = column.work[0] - y - column.marginals[0, :-1] @ x
                assert own == pytest.approx(reduced, abs=1e-12)


class TestWarmStartPin:
    @pytest.mark.parametrize(
        "catalyst, rounds, solves, warm, pivots",
        [
            ([0.7, 0.3], 4, 3, 2, 3),
            ([0.5, 0.3, 0.2], 9, 8, 6, 9),
            ([0.4, 0.3, 0.2, 0.1], 11, 10, 7, 15),
        ],
    )
    def test_round_counts(self, monkeypatch, catalyst, rounds, solves, warm, pivots):
        # every round builds its master; all but the first (the identity
        # alone, solved in closed form) go to the simplex.  Rounds whose master
        # is rank-deficient cold-start; the rest reuse the previous basis, so
        # a change to the warm-start rule shows here
        build, solve = lp.build_work_bound_problem, simplex.simplex_solve
        built, calls = [], []

        def counted_build(*args):
            built.append(len(args[3]))
            return build(*args)

        def counted_solve(*args, basis=None):
            result = solve(*args, basis=basis)
            calls.append((basis is not None, result.iterations))
            return result

        monkeypatch.setattr(lp, "build_work_bound_problem", counted_build)
        monkeypatch.setattr(simplex, "simplex_solve", counted_solve)
        hot, cold = ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5)
        initial = ts.product_state(
            catalyst, ts.gibbs_populations(hot, 1.0), ts.gibbs_populations(cold, 3.0)
        )
        hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(len(catalyst)), hot, cold)
        lp.lp_work_upper_bound(hamiltonian, initial, len(catalyst))
        assert built == list(range(1, rounds + 1))
        assert len(calls) == solves == rounds - 1
        assert sum(warmed for warmed, _ in calls) == warm
        assert sum(used for _, used in calls) == pivots


class TestIdentityMaster:
    def test_closed_form_is_the_simplex_optimum(self, rng):
        # the first master, the identity column alone, as the simplex solves
        # it: value, x, duals and warm basis to the bit
        for _ in range(300):
            d_s = int(rng.integers(1, 9))
            if rng.random() < 0.5:
                catalyst = rng.dirichlet(np.ones(d_s))
                if d_s > 1 and rng.random() < 0.3:
                    catalyst[rng.integers(d_s)] = 0.0
                    catalyst = catalyst / catalyst.sum()
            else:
                catalyst = np.full(d_s, 1.0 / d_s)
            hot = ts.Spectrum.qubit(float(rng.uniform(0.3, 3.0)))
            cold = ts.Spectrum.qubit(float(rng.uniform(0.2, 3.0)))
            beta_h = float(rng.uniform(0.3, 2.0))
            initial = ts.product_state(
                catalyst,
                ts.gibbs_populations(hot, beta_h),
                ts.gibbs_populations(cold, beta_h * float(rng.uniform(1.1, 6.0))),
            )
            hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(d_s), hot, cold)
            problem = lp.build_work_bound_problem(
                hamiltonian, initial, d_s, np.arange(initial.dimension)[None]
            )
            if rng.random() < 0.5:
                # the identity's work is 0 up to the builder's rounding; an
                # offset shows that the closed form reads it, not assumes 0
                problem = dataclasses.replace(problem, work=problem.work + rng.normal())
            columns = np.vstack([np.ones(1), problem.marginals[:, :-1].T])
            rhs = np.concatenate([[1.0], problem.target[:-1]])
            solved = simplex.simplex_solve(problem.work, columns, rhs)
            closed = lp._identity_master(problem)
            assert repr(closed.value) == repr(solved.value)
            assert closed.x.tobytes() == solved.x.tobytes()
            assert closed.dual.tobytes() == solved.dual.tobytes()
            assert closed.basis == solved.basis


class TestGuardFallback:
    def test_restricted_columns_flagged(self):
        # dimension 12, beyond the reach of the n! permutation columns, is
        # solved exactly and bounds the (2, 1) stroke its catalyst is seeded for
        beta = ts.InverseTemperaturePair(1.0, 6.0)
        hot, cold = ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.8)
        state = ts.solve_catalyst_state(
            ts.SimplePermSpec(2, 1), math.exp(-1.0), math.exp(-4.8)
        )
        initial = ts.product_state(
            state.populations,
            ts.gibbs_populations(hot, beta.beta_h),
            ts.gibbs_populations(cold, beta.beta_c),
        )
        hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(3), hot, cold)
        solution = ts.lp_work_upper_bound(hamiltonian, initial, 3)
        simple, _ = ts.simple_perm_report(ts.SimplePermSpec(2, 1), 1.0, 0.8, beta)
        assert solution.status == "optimal"
        assert solution.to_dict()["note"] is None
        assert solution.value >= simple.work - 1e-12
        assert ts.lp_dual_check(solution) <= 1e-8

    def test_dimension_cap(self):
        beta = ts.InverseTemperaturePair(1.0, 3.0)
        hot, cold = ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5)
        initial = ts.product_state(
            [1.0 / 9] * 9,
            ts.gibbs_populations(hot, beta.beta_h),
            ts.gibbs_populations(cold, beta.beta_c),
        )
        hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(9), hot, cold)
        with pytest.raises(ts.GuardExceededError, match="exceeds the cap 32"):
            ts.lp_work_upper_bound(hamiltonian, initial, 9)

    def test_shape_mismatch_rejected(self):
        hot, cold = ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5)
        beta = ts.InverseTemperaturePair(1.0, 3.0)
        initial = ts.product_state(
            [0.5, 0.5],
            ts.gibbs_populations(hot, beta.beta_h),
            ts.gibbs_populations(cold, beta.beta_c),
        )
        hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(2), hot, cold)
        with pytest.raises(ValueError):
            ts.lp_work_upper_bound(hamiltonian, initial, 1)


class TestSerialisation:
    def test_json_shape(self, rng):
        hamiltonian, initial, d_s, _ = random_instance(rng, (2, 2, 2))
        solution = ts.lp_work_upper_bound(hamiltonian, initial, d_s)
        data = solution.to_dict()
        assert set(data) == {"value", "status", "note", "alphas", "dual", "residuals"}
        assert all(set(entry) == {"image", "weight"} for entry in data["alphas"])
        assert set(data["dual"]) == {"y", "x"}
        assert len(data["dual"]["x"]) == d_s - 1
        assert abs(sum(e["weight"] for e in data["alphas"]) - 1.0) < 1e-9


def qubit_body(catalyst, omega_c, beta):
    hot, cold = ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(omega_c)
    initial = ts.product_state(
        catalyst,
        ts.gibbs_populations(hot, beta.beta_h),
        ts.gibbs_populations(cold, beta.beta_c),
    )
    hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(len(catalyst)), hot, cold)
    return hamiltonian, initial


class TestBareErgotropy:
    def test_uniform_catalyst_gives_bare_ergotropy(self, rng):
        # each population of tau_h x tau_c appears d_s times on repeated
        # energies, so even without the catalyst rows no bistochastic stroke
        # beats the bare ergotropy, and identity x best permutation reaches it
        for d_s in range(1, 5):
            for _ in range(2):
                omega_c = float(rng.uniform(0.3, 0.9))
                beta_h = float(rng.uniform(0.5, 1.5))
                beta = ts.InverseTemperaturePair(
                    beta_h, beta_h * float(rng.uniform(1.5, 4.0)) / omega_c
                )
                hamiltonian, initial = qubit_body([1.0 / d_s] * d_s, omega_c, beta)
                bare_hamiltonian, bare = qubit_body([1.0], omega_c, beta)
                ergotropy = ts.ergotropy(bare.probs, bare_hamiltonian)
                assert ergotropy > 1e-3
                solution = ts.lp_work_upper_bound(hamiltonian, initial, d_s)
                assert solution.value == pytest.approx(ergotropy, abs=1e-10)

    def test_non_uniform_catalyst_can_exceed_it(self):
        beta = ts.InverseTemperaturePair(0.5, 4.0)
        hamiltonian, initial = qubit_body([0.7, 0.3], 0.8, beta)
        bare_hamiltonian, bare = qubit_body([1.0], 0.8, beta)
        solution = ts.lp_work_upper_bound(hamiltonian, initial, 2)
        assert solution.value > ts.ergotropy(bare.probs, bare_hamiltonian) + 0.04
