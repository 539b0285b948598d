import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import twostroke as ts

from conftest import random_mixture_matrix


def reconstruction(terms, n):
    total = np.zeros((n, n))
    for weight, perm in terms:
        total[list(perm.image), range(n)] += weight
    return total


class TestBistochasticMatrix:
    def test_identity_accepted(self):
        matrix = ts.BistochasticMatrix(np.eye(3))
        assert matrix.dimension == 3

    def test_bad_row_sum_rejected(self):
        bad = np.array([[0.9, 0.0], [0.1, 1.0]])
        with pytest.raises(ValueError):
            ts.BistochasticMatrix(bad)

    def test_negative_entry_rejected(self):
        bad = np.array([[1.1, -0.1], [-0.1, 1.1]])
        with pytest.raises(ValueError):
            ts.BistochasticMatrix(bad)

    def test_mixture_builder(self):
        matrix = ts.BistochasticMatrix.from_mixture(
            [0.5, 0.5], [ts.PermutationMap((0, 1)), ts.PermutationMap((1, 0))]
        )
        assert np.allclose(matrix.entries, 0.5 * np.ones((2, 2)))


class TestBirkhoffDecompose:
    def test_identity(self):
        terms = ts.birkhoff_decompose(np.eye(4))
        assert len(terms) == 1
        weight, perm = terms[0]
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert perm.image == (0, 1, 2, 3)

    def test_noise_within_tolerance(self):
        # the optimum of a simplex solve: a permutation matrix with two
        # entries 1e-12 above 1, accepted since its sums are within 1e-10
        matrix = np.eye(8)[:, [0, 2, 1, 3, 4, 6, 5, 7]]
        matrix[3, 3] += 1.138e-12
        matrix[6, 5] += 1.138e-12
        terms = ts.birkhoff_decompose(matrix)
        assert [(w, p.image) for w, p in terms] == [(1.0, (0, 2, 1, 3, 4, 6, 5, 7))]
        assert np.abs(reconstruction(terms, 8) - matrix).max() <= 1e-10

    def test_half_and_half(self):
        matrix = 0.5 * np.eye(2) + 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
        terms = ts.birkhoff_decompose(matrix)
        assert sorted(weight for weight, _ in terms) == pytest.approx([0.5, 0.5])

    def test_random_mixtures_reconstruct(self, rng):
        for _ in range(50):
            matrix = random_mixture_matrix(rng, 6)
            terms = ts.birkhoff_decompose(matrix)
            assert abs(sum(w for w, _ in terms) - 1.0) < 1e-10
            error = np.abs(reconstruction(terms, 6) - matrix.entries).max()
            assert error <= 1e-10
            assert len(terms) <= 26  # (n-1)^2 + 1

    @given(
        weights=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reconstruction_property(self, weights, seed):
        gen = np.random.default_rng(seed)
        weights = np.array(weights) / np.sum(weights)
        perms = [ts.PermutationMap(tuple(gen.permutation(5))) for _ in weights]
        matrix = ts.BistochasticMatrix.from_mixture(weights, perms)
        terms = ts.birkhoff_decompose(matrix)
        assert np.abs(reconstruction(terms, 5) - matrix.entries).max() <= 1e-10

    def test_uniform_matrix(self):
        terms = ts.birkhoff_decompose(np.full((5, 5), 0.2))
        assert np.abs(reconstruction(terms, 5) - 0.2).max() <= 1e-10

    def test_guard(self):
        with pytest.raises(ts.GuardExceededError):
            ts.birkhoff_decompose(np.eye(65))
