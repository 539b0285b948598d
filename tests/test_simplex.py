import numpy as np
import pytest
from scipy.optimize import linprog

import twostroke as ts
from twostroke import lp, simplex
from twostroke.errors import GuardExceededError


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
            lp._column_generation(hamiltonian, initial, d_s)
        with_basis = [m for m in masters if m[3].basis is not None]
        assert len(with_basis) >= 60
        for objective, constraints, rhs, result in with_basis:
            self.assert_as_solved_again(objective, constraints, rhs, result)


class TestFirstPhaseOnePivot:
    """A cold start's phase one begins at the artificial identity basis, where
    the reduced costs are the column sums: the smallest-index column of
    positive sum enters, and the minimum-ratio row rhs_i / column_i leaves,
    the smallest row among ties (the artificials are numbered by row)."""

    @staticmethod
    def first_pass(monkeypatch, constraints, rhs):
        """Phase one's basis after the first pass of `_iterate`."""
        n_rows, n_cols = constraints.shape
        columns = np.hstack([constraints, np.eye(n_rows)])
        objective = np.concatenate([np.zeros(n_cols), -np.ones(n_rows)])
        basis = list(range(n_cols, n_cols + n_rows))
        with monkeypatch.context() as patched:
            # an iteration limit of 0 stops the loop right after one pivot
            patched.setattr(simplex, "MAX_ITERATIONS", 0)
            try:
                simplex._iterate(columns, rhs, objective, basis, 0, "phase one")
            except GuardExceededError:
                pass
        return basis

    @staticmethod
    def by_hand(constraints, rhs):
        """The same pass from the column sums and the ratios, or the
        artificial basis when no column sum is positive."""
        n_rows, n_cols = constraints.shape
        basis = list(range(n_cols, n_cols + n_rows))
        eligible = np.flatnonzero(constraints.sum(axis=0) > simplex.PIVOT_TOL)
        if eligible.size == 0:
            return basis
        entering = int(eligible[0])
        column = constraints[:, entering]
        movable = np.flatnonzero(column > simplex.PIVOT_TOL)
        ratios = rhs[movable] / column[movable]
        best = ratios.min()
        leaving = movable[ratios <= best + simplex.RATIO_TIE_TOL * (1.0 + abs(best))][0]
        basis[leaving] = entering
        return basis

    @staticmethod
    def work_bound_masters(monkeypatch, rng):
        """Every third master the column generation solves, with its result,
        for each of two bodies with each d_s = 1..8, a third of them with a
        zero catalyst population."""
        masters, kept = [], []
        simplex_solve = simplex.simplex_solve

        def recording(objective, constraints, rhs, basis=None):
            result = simplex_solve(objective, constraints, rhs, basis=basis)
            masters.append((objective, constraints, rhs, result))
            return result

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
                lp._column_generation(hamiltonian, initial, d_s)
                kept += masters[::3]
                masters.clear()
        return kept

    def test_work_bound_masters(self, monkeypatch, rng):
        # a master's column 0 is the identity's, equal to its rhs: it enters
        # at the convexity row, every ratio being 1; each master solved cold
        # reaches the optimum the loop found, warm-started or not
        masters = self.work_bound_masters(monkeypatch, rng)
        assert {c.shape[0] for _, c, _, _ in masters} == set(range(1, 9))
        assert len(masters) >= 100
        for objective, constraints, rhs, result in masters:
            n_rows, n_cols = constraints.shape
            first = self.first_pass(monkeypatch, constraints, rhs)
            assert first == [0] + list(range(n_cols + 1, n_cols + n_rows))
            cold = simplex.simplex_solve(objective, constraints, rhs)
            assert cold.iterations >= 1
            assert cold.value == pytest.approx(result.value, abs=1e-9)

    def test_forged_masters_whose_first_column_is_not_rhs(self, monkeypatch, rng):
        # reversed columns enter and leave elsewhere; the program is the same,
        # so is its optimum
        masters = self.work_bound_masters(monkeypatch, rng)
        forged = [
            (o[::-1], c[:, ::-1], r, result)
            for o, c, r, result in masters if not np.array_equal(c[:, -1], r)
        ]
        assert len(forged) >= 50
        below_row_zero = 0
        for objective, constraints, rhs, result in forged:
            first = self.first_pass(monkeypatch, constraints, rhs)
            assert first == self.by_hand(constraints, rhs)
            below_row_zero += first[0] != 0
            cold = simplex.simplex_solve(objective, constraints, rhs)
            assert cold.value == pytest.approx(result.value, abs=1e-9)
        assert below_row_zero >= 100

    def test_infeasible_master_leaves_at_row_one(self, monkeypatch):
        # every column's catalyst mass sits in block 0: the first pivot
        # leaves at the catalyst row (ratio 0.3 < 1) and phase one ends infeasible
        constraints = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        rhs = np.array([1.0, 0.3])
        assert self.first_pass(monkeypatch, constraints, rhs) == [3, 0]
        objective = np.array([0.0, 0.5, 0.2])
        assert linprog(-objective, A_eq=constraints, b_eq=rhs, method="highs").status == 2
        with pytest.raises(RuntimeError, match="phase one found the program infeasible"):
            simplex.simplex_solve(objective, constraints, rhs)

    def test_random_programs(self, monkeypatch, rng):
        # negative entries leave some columns ineligible and some rows
        # unable to leave
        pivoted = 0
        for _ in range(40):
            rows = int(rng.integers(1, 5))
            a = rng.uniform(-0.2, 1.0, size=(rows, int(rng.integers(rows + 1, 12))))
            b = np.abs(a @ rng.dirichlet(np.ones(a.shape[1])))
            first = self.first_pass(monkeypatch, a, b)
            assert first == self.by_hand(a, b)
            pivoted += first != list(range(a.shape[1], a.shape[1] + rows))
        assert pivoted >= 30

    def test_no_positive_reduced_cost_at_the_start(self, monkeypatch):
        # every column sums to at most 0, so the artificial basis is optimal
        # before any pivot; with rhs 0 the only feasible point is x = 0
        constraints = np.array([[1.0, -2.0], [-1.0, 1.0]])
        assert self.first_pass(monkeypatch, constraints, np.zeros(2)) == [2, 3]
        result = simplex.simplex_solve(np.array([1.0, 1.0]), constraints, np.zeros(2))
        assert result.value == 0.0
        assert result.x.tolist() == [0.0, 0.0]
        assert result.iterations == 0


@pytest.mark.parametrize(
    "objective, constraints, rhs, message",
    [
        ([1.0], [1.0], [1.0], "constraints must be a matrix"),
        ([1.0, 2.0], [[1.0]], [1.0], "objective/rhs shapes do not match the constraints"),
        ([1.0], [[1.0]], [1.0, 2.0], "objective/rhs shapes do not match the constraints"),
    ],
)
def test_shape_refusals(objective, constraints, rhs, message):
    with pytest.raises(ValueError) as info:
        simplex.simplex_solve(objective, constraints, rhs)
    assert str(info.value) == message
