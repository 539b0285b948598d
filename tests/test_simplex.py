import numpy as np
import pytest
from scipy.optimize import linprog

import twostroke as ts
from twostroke import lp, simplex


def solve(c, a, b):
    return simplex.simplex_solve(np.asarray(c, float), np.asarray(a, float), np.asarray(b, float))


class TestKnownPrograms:
    def test_single_constraint(self):
        # max 2x + y on the simplex x + y = 1
        result = solve([2.0, 1.0], [[1.0, 1.0]], [1.0])
        assert result.value == pytest.approx(2.0, abs=1e-12)
        assert result.x.tolist() == pytest.approx([1.0, 0.0], abs=1e-12)
        assert result.dual.tolist() == pytest.approx([2.0], abs=1e-12)

    def test_two_constraints(self):
        # max x1 + 2 x2 s.t. x1 + x2 + s1 = 4, x2 + s2 = 3
        c = [1.0, 2.0, 0.0, 0.0]
        a = [[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]]
        result = solve(c, a, [4.0, 3.0])
        assert result.value == pytest.approx(7.0, abs=1e-12)

    def test_degenerate_duplicate_columns(self):
        c = [1.0, 1.0, 1.0, 0.5]
        a = [[1.0, 1.0, 1.0, 1.0]]
        result = solve(c, a, [1.0])
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
        with pytest.raises(RuntimeError, match="phase one found the program infeasible"):
            solve([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])

    def test_redundant_row_dropped(self):
        result = solve([3.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
        assert result.value == pytest.approx(3.0, abs=1e-12)
        # the basis covers only the kept row, so it cannot warm-start this program
        assert result.basis is None

    def test_unbounded(self):
        # x1 - x2 = 0 lets (t, t) grow without limit under c = (1, 1)
        with pytest.raises(RuntimeError, match="phase two reported unbounded"):
            solve([1.0, 1.0], [[1.0, -1.0]], [0.0])

    def test_singular_basis_is_an_internal_fault(self):
        # a basis whose columns are dependent cannot be solved against; the
        # LinAlgError (a ValueError) must not pass for a usage error
        c, a, b = np.ones(2), np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2)
        with pytest.raises(RuntimeError, match="simplex basis is singular") as info:
            simplex.simplex_solve(c, a, b, basis=[0, 1])
        assert not isinstance(info.value, ValueError)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError, match="rhs must be non-negative"):
            solve([1.0, 0.0], [[-1.0, -1.0]], [-1.0])


class TestAgainstScipy:
    def test_random_equality_programs(self, rng):
        checked = 0
        for _ in range(60):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(rows + 1, 12))
            a = rng.uniform(0.0, 1.0, size=(rows, cols))
            feasible_point = rng.dirichlet(np.ones(cols))
            b = a @ feasible_point  # guarantees feasibility
            c = rng.normal(size=cols)
            reference = linprog(-c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
            if not reference.success:
                continue
            result = solve(c, a, b)
            assert result.value == pytest.approx(-reference.fun, abs=1e-8)
            # dual feasibility of the returned multipliers
            reduced = c - result.dual @ a
            assert reduced.max() <= 1e-8
            # complementary slackness through strong duality
            assert result.dual @ b == pytest.approx(result.value, abs=1e-8)
            checked += 1
        assert checked >= 40

    def test_heavily_degenerate_instances_terminate(self, rng):
        # many identical columns force ties in every pivot choice
        for _ in range(10):
            cols = 30
            base = rng.uniform(0.0, 1.0, size=(2, 3))
            a = np.hstack([base] * 10)
            b = a @ (np.ones(cols) / cols)
            c = np.tile(rng.normal(size=3), 10)
            result = solve(c, a, b)
            reference = linprog(-c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
            assert result.value == pytest.approx(-reference.fun, abs=1e-8)


class TestWarmStart:
    def test_appended_columns_reach_the_cold_optimum(self, rng):
        # appending columns keeps the returned basis primal feasible, so the
        # warm solve skips phase one and still ends at the optimum
        for _ in range(20):
            a = rng.uniform(0.0, 1.0, size=(3, 10))
            b = a[:, :5] @ rng.dirichlet(np.ones(5))
            c = rng.normal(size=10)
            first = solve(c[:5], a[:, :5], b)
            assert len(first.basis) == 3
            warm = simplex.simplex_solve(c, a, b, basis=first.basis)
            cold = solve(c, a, b)
            assert warm.value == pytest.approx(cold.value, abs=1e-10)
            assert np.abs(a @ warm.x - b).max() <= 1e-10
            assert (c - warm.dual @ a).max() <= 1e-9


class TestFinalSolves:
    """x, the duals and phase one's artificial level come from the solves of
    each pivot loop's last pass; solving against the final basis again gives
    the same bits."""

    @staticmethod
    def record_loops(monkeypatch):
        loops = []
        iterate = simplex._iterate

        def recording(columns, rhs, objective, basis, iterations, phase):
            found = iterate(columns, rhs, objective, basis, iterations, phase)
            loops.append((columns, rhs, objective, list(found[0]), found[2], found[3]))
            return found

        monkeypatch.setattr(simplex, "_iterate", recording)
        return loops

    @staticmethod
    def assert_as_solved_again(objective, constraints, rhs, result):
        base = constraints[:, result.basis]
        x = np.zeros(constraints.shape[1])
        x[result.basis] = np.maximum(np.linalg.solve(base, rhs), 0.0)
        dual = np.linalg.solve(base.T, objective[result.basis])
        assert result.x.tobytes() == x.tobytes()
        assert result.dual.tobytes() == dual.tobytes()

    def test_random_programs(self, monkeypatch, rng):
        loops = self.record_loops(monkeypatch)
        for _ in range(40):
            rows = int(rng.integers(1, 5))
            a = rng.uniform(0.0, 1.0, size=(rows, int(rng.integers(rows + 1, 12))))
            b = a @ rng.dirichlet(np.ones(a.shape[1]))
            c = rng.normal(size=a.shape[1])
            result = solve(c, a, b)
            self.assert_as_solved_again(c, a, b, result)
            warm = simplex.simplex_solve(c, a, b, basis=result.basis)
            self.assert_as_solved_again(c, a, b, warm)
        for columns, rhs, objective, basis, multipliers, current in loops:
            base = columns[:, basis]
            assert multipliers.tobytes() == np.linalg.solve(base.T, objective[basis]).tobytes()
            assert current.tobytes() == np.linalg.solve(base, rhs).tobytes()

    def test_work_bound_masters(self, monkeypatch, rng):
        masters = []
        simplex_solve = simplex.simplex_solve

        def recording(objective, constraints, rhs, basis=None):
            result = simplex_solve(objective, constraints, rhs, basis=basis)
            masters.append((objective, constraints, rhs, result))
            return result

        monkeypatch.setattr(simplex, "simplex_solve", recording)
        for _ in range(30):
            d_s = int(rng.integers(1, 5))
            hot = ts.Spectrum.qubit(float(rng.uniform(0.5, 2.0)))
            cold = ts.Spectrum.qubit(float(rng.uniform(0.1, 1.5)))
            beta_h = float(rng.uniform(0.3, 1.5))
            initial = ts.product_state(
                rng.dirichlet(np.ones(d_s)),
                ts.gibbs_populations(hot, beta_h),
                ts.gibbs_populations(cold, beta_h + float(rng.uniform(0.2, 3.0))),
            )
            hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(d_s), hot, cold)
            lp.lp_work_upper_bound(hamiltonian, initial, d_s)
        with_basis = [m for m in masters if m[3].basis is not None]
        assert len(with_basis) >= 60
        for objective, constraints, rhs, result in with_basis:
            self.assert_as_solved_again(objective, constraints, rhs, result)


class TestFirstPhaseOnePivot:
    """Phase one takes its first pivot from the artificial identity basis
    without a solve; the reference starts `_iterate` at that basis, as every
    cold start once did, and must give the same bits."""

    @staticmethod
    def from_artificials(monkeypatch, objective, constraints, rhs):
        iterate = simplex._iterate

        def old_start(columns, rhs, objective, basis, iterations, phase):
            if phase == "phase one":
                n_cols = columns.shape[1]
                basis, iterations = list(range(n_cols - rhs.size, n_cols)), 0
            return iterate(columns, rhs, objective, basis, iterations, phase)

        with monkeypatch.context() as patched:
            patched.setattr(simplex, "_iterate", old_start)
            return simplex.simplex_solve(objective, constraints, rhs)

    @staticmethod
    def outcome(solve):
        """The result's bits, or the message of the RuntimeError it raised."""
        try:
            result = solve()
        except RuntimeError as exc:
            return str(exc)
        return (
            repr(result.value), result.x.tobytes(), result.dual.tobytes(),
            result.basis, result.iterations,
        )

    @classmethod
    def assert_same_solve(cls, monkeypatch, objective, constraints, rhs):
        """Both starts give the same bits or the same error; returns the
        iteration count that phase one's `_iterate` starts from."""
        reference = cls.outcome(
            lambda: cls.from_artificials(monkeypatch, objective, constraints, rhs)
        )
        starts = []
        iterate = simplex._iterate

        def recording(columns, rhs, objective, basis, iterations, phase):
            if phase == "phase one":
                starts.append(iterations)
            return iterate(columns, rhs, objective, basis, iterations, phase)

        with monkeypatch.context() as patched:
            patched.setattr(simplex, "_iterate", recording)
            solved = cls.outcome(lambda: simplex.simplex_solve(objective, constraints, rhs))
        assert solved == reference
        return starts[0]

    @staticmethod
    def work_bound_masters(monkeypatch, rng):
        """Every third master the column generation solves for each of two
        bodies with each d_s = 1..8, a third of them with a zero catalyst
        population."""
        masters, kept = [], []
        simplex_solve = simplex.simplex_solve

        def recording(objective, constraints, rhs, basis=None):
            masters.append((objective, constraints, rhs))
            return simplex_solve(objective, constraints, rhs, basis=basis)

        with monkeypatch.context() as patched:
            patched.setattr(simplex, "simplex_solve", recording)
            for body in range(16):
                d_s = 1 + body % 8
                catalyst = rng.dirichlet(np.ones(d_s))
                if d_s > 1 and body % 3 == 0:
                    catalyst[rng.integers(d_s)] = 0.0
                    catalyst = catalyst / catalyst.sum()
                hot = ts.Spectrum.qubit(float(rng.uniform(0.3, 3.0)))
                cold = ts.Spectrum.qubit(float(rng.uniform(0.2, 3.0)))
                beta_h = float(rng.uniform(0.3, 2.0))
                initial = ts.product_state(
                    catalyst,
                    ts.gibbs_populations(hot, beta_h),
                    ts.gibbs_populations(cold, beta_h * float(rng.uniform(1.1, 6.0))),
                )
                hamiltonian = ts.combined_spectrum(ts.Spectrum.trivial(d_s), hot, cold)
                lp.lp_work_upper_bound(hamiltonian, initial, d_s)
                kept += masters[::3]
                masters.clear()
        return kept

    def test_work_bound_masters(self, monkeypatch, rng):
        # each master solved cold, including those the loop warm-started
        masters = self.work_bound_masters(monkeypatch, rng)
        assert {c.shape[0] for _, c, _ in masters} == set(range(1, 9))
        starts = [self.assert_same_solve(monkeypatch, *master) for master in masters]
        assert len(starts) >= 100 and set(starts) == {1}

    def test_forged_masters_whose_first_column_is_not_rhs(self, monkeypatch, rng):
        # a master's column 0 is the identity's, equal to its rhs; reversed
        # columns enter and leave elsewhere
        masters = self.work_bound_masters(monkeypatch, rng)
        forged = [
            (o[::-1], c[:, ::-1], r) for o, c, r in masters if not np.array_equal(c[:, -1], r)
        ]
        assert len(forged) >= 50
        for master in forged:
            assert self.assert_same_solve(monkeypatch, *master) == 1

    def test_infeasible_master_leaves_at_row_one(self, monkeypatch):
        # every column's catalyst mass sits in block 0: the first pivot
        # leaves at the catalyst row (ratio 0.3 < 1) and phase one ends infeasible
        constraints = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        rhs = np.array([1.0, 0.3])
        basis = [3, 4]
        simplex._pivot(basis, rhs, constraints[:, 0], 0, "phase one")
        assert basis == [3, 0]
        objective = np.array([0.0, 0.5, 0.2])
        self.assert_same_solve(monkeypatch, objective, constraints, rhs)
        with pytest.raises(RuntimeError, match="phase one found the program infeasible"):
            simplex.simplex_solve(objective, constraints, rhs)

    def test_random_programs(self, monkeypatch, rng):
        for _ in range(40):
            rows = int(rng.integers(1, 5))
            a = rng.uniform(-0.2, 1.0, size=(rows, int(rng.integers(rows + 1, 12))))
            b = np.abs(a @ rng.dirichlet(np.ones(a.shape[1])))
            self.assert_same_solve(monkeypatch, rng.normal(size=a.shape[1]), a, b)

    def test_no_positive_reduced_cost_at_the_start(self, monkeypatch):
        # every column sums to at most 0, so the artificial basis is optimal
        # before any pivot; with rhs 0 the program is feasible at x = 0
        constraints = np.array([[1.0, -2.0], [-1.0, 1.0]])
        start = self.assert_same_solve(monkeypatch, np.array([1.0, 1.0]), constraints, np.zeros(2))
        assert start == 0
