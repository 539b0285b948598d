import numpy as np
import pytest
from scipy.optimize import linprog

from twostroke import simplex


def solve(c, a, b):
    return simplex.simplex_solve(np.asarray(c, float), np.asarray(a, float), np.asarray(b, float))


class TestKnownPrograms:
    def test_single_constraint(self):
        # max 2x + y on the simplex x + y = 1
        result = solve([2.0, 1.0], [[1.0, 1.0]], [1.0])
        assert result.status == simplex.OPTIMAL
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
        result = solve([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
        assert result.status == simplex.INFEASIBLE

    def test_redundant_row_dropped(self):
        result = solve([3.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
        assert result.status == simplex.OPTIMAL
        assert result.value == pytest.approx(3.0, abs=1e-12)

    def test_unbounded(self):
        # x1 - x2 = 0 lets (t, t) grow without limit under c = (1, 1)
        result = solve([1.0, 1.0], [[1.0, -1.0]], [0.0])
        assert result.status == simplex.UNBOUNDED

    def test_negative_rhs_normalised(self):
        result = solve([1.0, 0.0], [[-1.0, -1.0]], [-1.0])
        assert result.status == simplex.OPTIMAL
        assert result.value == pytest.approx(1.0, abs=1e-12)


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
            assert result.status == simplex.OPTIMAL
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
            assert result.status == simplex.OPTIMAL
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
            assert warm.status == simplex.OPTIMAL
            assert warm.value == pytest.approx(cold.value, abs=1e-10)
            assert np.abs(a @ warm.x - b).max() <= 1e-10
            assert (c - warm.dual @ a).max() <= 1e-9
