import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import twostroke as ts

settings.register_profile(
    "package",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("package")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_regime_tuple(rng):
    """(omega_h, omega_c, beta) with beta_c > beta_h, omega_h > omega_c and
    beta_h*omega_h < beta_c*omega_c, away from over/underflow corners."""
    while True:
        omega_h = rng.uniform(0.3, 2.5)
        omega_c = rng.uniform(0.1, 2.0)
        beta_h = rng.uniform(0.2, 2.0)
        beta_c = rng.uniform(0.3, 3.0)
        if (
            omega_h > omega_c + 1e-3
            and beta_c > beta_h + 1e-3
            and beta_h * omega_h < beta_c * omega_c - 1e-3
        ):
            return omega_h, omega_c, ts.InverseTemperaturePair(beta_h, beta_c)


def random_mixture_matrix(rng, n, components=5):
    """A random convex combination of n x n permutation matrices."""
    perms = [ts.PermutationMap(tuple(rng.permutation(n))) for _ in range(components)]
    weights = rng.dirichlet(np.ones(components))
    return sum(weight * perm.matrix() for weight, perm in zip(weights, perms))


def gibbs_product(omega_h, omega_c, beta, catalyst=(1.0,)):
    hot = ts.gibbs_populations(ts.Spectrum.qubit(omega_h), beta.beta_h)
    cold = ts.gibbs_populations(ts.Spectrum.qubit(omega_c), beta.beta_c)
    return ts.product_state(list(catalyst), hot, cold)
