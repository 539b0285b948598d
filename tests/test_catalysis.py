import math
import tracemalloc
import warnings
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

import twostroke as ts
from twostroke import catalysis

from conftest import random_regime_tuple


def solved_product_state(shape, omega_h, omega_c, beta):
    _, catalyst = ts.simple_perm_report(shape, omega_h, omega_c, beta)
    hot = ts.gibbs_populations(ts.Spectrum.qubit(omega_h), beta.beta_h)
    cold = ts.gibbs_populations(ts.Spectrum.qubit(omega_c), beta.beta_c)
    return ts.product_state(catalyst.populations, hot, cold), catalyst


class FlowAccount(NamedTuple):
    """Net population leaving the excited hot / excited cold subspaces."""

    hot_flow: float
    cold_flow: float


def subspace_flows(initial, final):
    """Net population flow out of the excited hot and cold subspaces.

    For qubit hot/cold factors each heat is this flow times the level
    spacing, which is what makes simple permutations analysable by counting
    arrows instead of energies.
    """
    if initial.basis_shape != final.basis_shape:
        raise ValueError("basis shapes differ")
    _, d_h, d_c = initial.basis_shape
    if d_h != 2 or d_c != 2:
        raise ValueError("subspace flows are defined for qubit hot/cold factors")
    diff = initial.grid() - final.grid()
    return FlowAccount(float(diff[:, 1, :].sum()), float(diff[:, :, 1].sum()))


def solve_splits(d, n, boltz_hot, boltz_cold):
    """One batched flow solve at one parameter point, every split's
    populations built: the solved n, populations (splits, d) and transfer
    (splits,)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = catalysis._solve_flow_balance(
            d, np.asarray(n), float(boltz_hot), float(boltz_cold)
        )
        pops = np.array([flow.populations(k) for k in range(len(flow.n))])
    return flow.n, pops, flow.transfer


def flow_residuals(shape, ah, ac, state):
    """Each block's flow balance N*bh*p_k - N*x*p_{k+1} - transfer, with x = 1
    for ground-dropping and x = bc for cold-raising blocks (p_d = p_0), then
    the normalisation."""
    norm = 1.0 / ((1.0 + ah) * (1.0 + ac))
    pops = state.populations
    out = []
    for k in range(shape.d):
        x = 1.0 if k < shape.m else ac
        out.append(norm * ah * pops[k] - norm * x * pops[(k + 1) % shape.d] - state.delta_p)
    out.append(pops.sum() - 1.0)
    return np.array(out)


class TestSimplePermSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ts.SimplePermSpec(-1, 2)
        with pytest.raises(ValueError):
            ts.SimplePermSpec(2, 0)

    def test_dimension(self):
        assert ts.SimplePermSpec(3, 2).d == 5


class TestBuildSimplePerm:
    def test_single_block_is_hot_cold_swap(self):
        perm = ts.build_simple_perm(ts.SimplePermSpec(0, 1))
        assert perm.image == (0, 2, 1, 3)

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 1), (4, 1), (2, 3), (0, 5)])
    def test_involution(self, m, n):
        perm = ts.build_simple_perm(ts.SimplePermSpec(m, n))
        assert perm.compose(perm).image == tuple(range(len(perm)))

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (0, 4), (5, 1)])
    def test_each_block_touches_exactly_two_levels(self, m, n):
        shape = ts.SimplePermSpec(m, n)
        perm = ts.build_simple_perm(shape)
        for block in range(shape.d):
            moved = [
                x
                for x in range(4 * block, 4 * block + 4)
                if perm.image[x] != x
            ]
            assert len(moved) == 2

    def test_ladder_wiring(self):
        # two blocks, one ground-dropping and one cold-raising swap
        perm = ts.build_simple_perm(ts.SimplePermSpec(1, 1))
        image = list(range(8))
        image[2], image[4] = image[4], image[2]  # |1,1,0> <-> |2,0,0>
        image[6], image[1] = image[1], image[6]  # |2,1,0> <-> |1,0,1>
        assert perm.image == tuple(image)

    def test_size_guard_before_building(self):
        # 4d > 2**22 levels are refused before the image list is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ts.GuardExceededError, match="too large to materialise"):
                ts.build_simple_perm(ts.SimplePermSpec(2**20, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**12


class TestSubspaceFlows:
    def test_identity(self):
        state = ts.product_state([0.5, 0.5], [0.7, 0.3], [0.8, 0.2])
        flows = subspace_flows(state, state)
        assert flows.hot_flow == 0.0 and flows.cold_flow == 0.0

    @pytest.mark.parametrize("m,n", [(4, 1), (2, 3), (0, 2), (1, 1)])
    def test_simple_perm_flows(self, m, n):
        shape = ts.SimplePermSpec(m, n)
        beta = ts.InverseTemperaturePair(1.0, 6.0)
        initial, catalyst = solved_product_state(shape, 1.0, 1.2, beta)
        final = ts.apply_permutation(initial, ts.build_simple_perm(shape))
        flows = subspace_flows(initial, final)
        assert flows.hot_flow == pytest.approx(shape.d * catalyst.delta_p, abs=1e-13)
        assert flows.cold_flow == pytest.approx(-shape.n * catalyst.delta_p, abs=1e-13)

    def test_flows_times_spacing_reproduce_heats(self, rng):
        for _ in range(10):
            omega_h, omega_c, beta = random_regime_tuple(rng)
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 5))
            shape = ts.SimplePermSpec(m, n)
            initial, _ = solved_product_state(shape, omega_h, omega_c, beta)
            final = ts.apply_permutation(initial, ts.build_simple_perm(shape))
            flows = subspace_flows(initial, final)
            report = ts.stroke_report(
                initial,
                final,
                ts.Spectrum.qubit(omega_h),
                ts.Spectrum.qubit(omega_c),
                beta,
            )
            assert flows.hot_flow * omega_h == pytest.approx(report.heat_hot, abs=1e-12)
            assert flows.cold_flow * omega_c == pytest.approx(report.heat_cold, abs=1e-12)

    def test_requires_qubits(self):
        state = ts.product_state([1.0], [0.5, 0.3, 0.2], [1.0, 0.0])
        with pytest.raises(ValueError):
            subspace_flows(state, state)


class TestSolveCatalystState:
    def test_normalised_and_flow_consistent(self, rng):
        for _ in range(50):
            shape = ts.SimplePermSpec(int(rng.integers(0, 8)), int(rng.integers(1, 8)))
            ah = float(rng.uniform(0.01, 0.99))
            ac = float(rng.uniform(0.01, 0.99))
            state = ts.solve_catalyst_state(shape, ah, ac)
            assert abs(state.populations.sum() - 1.0) < 1e-9
            assert state.populations.min() >= 0.0
            assert np.abs(flow_residuals(shape, ah, ac, state)).max() < 1e-10

    def test_single_block(self):
        state = ts.solve_catalyst_state(ts.SimplePermSpec(0, 1), 0.5, 0.2)
        assert state.populations.tolist() == [1.0]
        norm = 1.0 / (1.5 * 1.2)
        assert state.delta_p == pytest.approx(norm * (0.5 - 0.2), abs=1e-15)

    def test_boltzmann_range_enforced(self):
        shape = ts.SimplePermSpec(2, 3)
        for boltz_hot, boltz_cold in [
            (1.0, 0.5), (0.0, 0.5), (-0.1, 0.5), (math.nan, 0.5),
            (0.5, 1.0), (0.5, -0.1), (0.5, math.nan), (0.5, math.inf),
        ]:
            with pytest.raises(ValueError):
                ts.solve_catalyst_state(shape, boltz_hot, boltz_cold)
        # boltz_cold = 0 is the deep-cold limit, which the solve takes smoothly
        boltz_hot = math.exp(-12.0)
        limit = ts.solve_catalyst_state(shape, boltz_hot, 0.0)
        assert limit.populations.min() >= 0.0
        assert np.abs(flow_residuals(shape, boltz_hot, 0.0, limit)).max() < 1e-15
        for boltz_cold in (1e-30, 1e-300, 5e-324):
            near = ts.solve_catalyst_state(shape, boltz_hot, boltz_cold)
            assert near.delta_p == limit.delta_p

    def test_one_split_checks_its_populations(self, monkeypatch, rng):
        # the solve checks the split's segment ends, then the populations are
        # checked elementwise, and the one-split path gives the batched solve's bits
        checked = []
        check = catalysis._check_populations
        monkeypatch.setattr(
            catalysis, "_check_populations", lambda values: checked.append(values) or check(values)
        )
        for i in range(100):
            shape = ts.SimplePermSpec(int(rng.integers(0, 40)), int(rng.integers(1, 40)))
            boltz_hot = float(rng.uniform(0.01, 0.99))
            boltz_cold = float(rng.uniform(0.0, 0.99)) if i % 3 else 0.0
            checked.clear()
            state = ts.solve_catalyst_state(shape, boltz_hot, boltz_cold)
            assert [values.shape for values in checked] == [(3, 1), (shape.d,)]
            n, pops, transfer = solve_splits(shape.d, [shape.n], boltz_hot, boltz_cold)
            assert np.array_equal(state.populations, np.clip(pops[0], 0.0, None))
            assert state.delta_p == transfer[0]

    @staticmethod
    def block_chain(shape, boltz_hot, boltz_cold):
        """The d x d chain on the catalyst blocks: block k steps forward with
        probability N*bh and back with probability N*x_k, x = 1 on
        ground-dropping and bc on cold-raising blocks, and stays otherwise.
        Each stay probability is also returned exactly, as a Fraction."""
        d = shape.d
        exact = [Fraction(boltz_hot), Fraction(boltz_cold)]
        norm = 1 / ((1 + exact[0]) * (1 + exact[1]))
        back = [Fraction(1)] * shape.m + [exact[1]] * shape.n
        chain = np.zeros((d, d))
        stays = []
        for k in range(d):
            chain[k, (k + 1) % d] += float(norm * exact[0])
            chain[(k + 1) % d, k] += float(norm * back[k])
            stays.append(1 - norm * exact[0] - norm * back[k - 1])
        chain[np.diag_indices(d)] += [float(stay) for stay in stays]
        return chain, stays

    def test_catalyst_is_the_block_chain_stationary_vector(self, rng):
        worst = 0.0
        for i in range(200):
            shape = ts.SimplePermSpec(int(rng.integers(0, 20)), int(rng.integers(1, 20)))
            boltz_hot = float(rng.uniform(0.01, 0.99))
            # bc = 0 every third shape, otherwise either side of bh
            boltz_cold = float(rng.uniform(0.0, 0.99)) if i % 3 else 0.0
            chain, stays = self.block_chain(shape, boltz_hot, boltz_cold)
            assert min(stays) >= 0
            # pi (chain - I) = 0 with the last balance replaced by sum(pi) = 1
            system = chain.T - np.eye(shape.d)
            system[-1] = 1.0
            stationary = np.linalg.solve(system, np.eye(shape.d)[-1])
            state = ts.solve_catalyst_state(shape, boltz_hot, boltz_cold)
            worst = max(worst, np.abs(state.populations - stationary).max())
        assert worst <= 1e-14


class TestFlowBalanceSolver:
    # the cold segment runs backward from p_0 (bc < bh) or forward from p_m
    # (bc > bh); bc == bh is the boundary between the two
    PAIRS = [(0.7, 0.2), (0.3, 0.8), (0.45, 0.45)]
    SHAPES = [(0, 1), (1, 1), (0, 7), (6, 1), (3, 4), (1999, 1), (0, 2000), (1000, 1000)]

    @staticmethod
    def solve(shape, boltz_hot, boltz_cold):
        _, pops, transfer = solve_splits(shape.d, [shape.n], boltz_hot, boltz_cold)
        return pops, transfer

    @pytest.mark.parametrize("ah, ac", PAIRS)
    @pytest.mark.parametrize("m, n", SHAPES)
    def test_balances_and_closed_form(self, m, n, ah, ac):
        shape = ts.SimplePermSpec(m, n)
        pops, transfer = self.solve(shape, ah, ac)
        assert pops.shape == (1, shape.d) and transfer.shape == (1,)
        assert np.isfinite(pops).all() and np.isfinite(transfer).all()
        assert pops.min() >= 0.0
        assert abs(pops.sum() - 1.0) < 1e-12
        state = ts.CatalystState(pops[0], transfer[0])
        assert np.abs(flow_residuals(shape, ah, ac, state)).max() < 1e-12
        if ah != ac:  # the closed form's pole
            assert abs(transfer[0] - ts.delta_p_closed_form(shape, ah, ac)) <= 1e-12

    @pytest.mark.parametrize("direction", ["backward", "forward", "equal"])
    def test_batched_splits_match_single_splits(self, rng, direction):
        # every split of one batched solve, in any order and across block
        # boundaries (d = 300 spans two blocks), equals its own one-split
        # solve bit for bit
        for d in [*rng.integers(1, 81, size=6).tolist(), 300]:
            for boltz_hot in rng.uniform(0.05, 0.95, size=4).tolist():
                boltz_cold = {
                    "backward": boltz_hot * rng.uniform(0.0, 1.0),
                    "forward": boltz_hot + (1.0 - boltz_hot) * rng.uniform(0.0, 1.0),
                    "equal": boltz_hot,
                }[direction]
                order = rng.permutation(d) + 1
                solved_n, pops, transfer = solve_splits(d, order, boltz_hot, boltz_cold)
                assert solved_n.tolist() == order.tolist()
                assert pops.shape == (d, d) and transfer.shape == (d,)
                for k, n in enumerate(order.tolist()):
                    one = solve_splits(d, [n], boltz_hot, boltz_cold)[1:]
                    for batched, single in zip((pops, transfer), one):
                        assert np.array_equal(batched[k], single[0], equal_nan=True)

    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_chunks_match_one_pass(self, monkeypatch, rng, direction):
        # every split is an elementwise function of the shared tables, so
        # closing them 64 at a time gives the one-pass numbers bit for bit
        d = 1000
        for _ in range(5):
            boltz_hot = float(rng.uniform(0.05, 0.95))
            boltz_cold = {
                "backward": boltz_hot * rng.uniform(0.0, 1.0),
                "forward": boltz_hot + (1.0 - boltz_hot) * rng.uniform(0.0, 1.0),
            }[direction]
            n = rng.permutation(d) + 1
            one = catalysis._solve_flow_balance(d, n, boltz_hot, boltz_cold)
            with monkeypatch.context() as patch:
                patch.setattr(catalysis, "_FLOW_CHUNK", 64)
                chunked = catalysis._solve_flow_balance(d, n, boltz_hot, boltz_cold)
            assert chunked.backward == one.backward == (direction == "backward")
            for name in ("p_0", "v", "transfer"):
                assert np.array_equal(getattr(chunked, name), getattr(one, name))
            for k in rng.integers(0, d, size=5).tolist():
                assert np.array_equal(chunked.populations(k), one.populations(k))

    def test_negative_end_in_a_later_chunk_raises(self, monkeypatch):
        # a tolerance between two splits' smallest populations fails the
        # second split alone; it is closed in the second chunk
        d, boltz_hot, boltz_cold = 1000, 0.7, 0.2
        n = np.arange(1, d + 1)
        flow = catalysis._solve_flow_balance(d, n, boltz_hot, boltz_cold)
        lowest = np.array([flow.populations(k).min() for k in range(d)])
        high, low = int(n[lowest.argmax()]), int(n[lowest.argmin()])
        monkeypatch.setattr(
            catalysis, "NEGATIVE_POPULATION_TOL", -(lowest.max() + lowest.min()) / 2.0
        )
        monkeypatch.setattr(catalysis, "_FLOW_CHUNK", 4)
        catalysis._solve_flow_balance(d, [high] * 4, boltz_hot, boltz_cold)
        with pytest.raises(RuntimeError, match="negative or non-finite catalyst population"):
            catalysis._solve_flow_balance(d, [high] * 4 + [low], boltz_hot, boltz_cold)

    def test_positivity_census(self):
        # every split of random d < 300, with beta_h*omega_h and
        # beta_c*omega_c log-uniform in [e^-8, 740] (either Boltzmann factor
        # may be the larger): the solve never faults and no split is lost
        rng = np.random.default_rng(15)
        beta = ts.InverseTemperaturePair(1.0, 2.0)  # omega = exponent / beta
        for _ in range(400):
            d = int(rng.integers(1, 300))
            hot_exponent, cold_exponent = np.exp(rng.uniform(-8.0, math.log(740.0), size=2))
            swept = ts.sweep_simple_perms(d, hot_exponent, cold_exponent / 2.0, beta)
            assert [(shape.m, shape.n) for shape, _, _ in swept] == [
                (d - n, n) for n in range(1, d + 1)
            ]

    def test_fault_raises_through_the_real_check(self, monkeypatch):
        # every population of a d > 1 catalyst is below 1, so a tolerance of
        # -1 makes the solver's own check flag each split
        monkeypatch.setattr(catalysis, "NEGATIVE_POPULATION_TOL", -1.0)
        beta = ts.InverseTemperaturePair(1.0, 8.0)
        for call in (
            lambda: ts.solve_catalyst_state(ts.SimplePermSpec(2, 3), 0.5, 0.2),
            lambda: ts.sweep_simple_perms(4, 1.0, 1.5, beta),
            lambda: ts.fig_work_vs_cold_swaps(4, 1.0, 12.0, 1.5),
        ):
            with pytest.raises(RuntimeError, match="negative or non-finite catalyst population"):
                call()

    def test_end_check_matches_the_elementwise_minimum(self, monkeypatch):
        # each segment is monotone (an affine recurrence with slope in [0, 1]),
        # so a split's populations lie between its segment ends: p_0, p_m and
        # p_{m+1} (bc <= bh) or p_{d-1} (bc > bh), which the solve checks;
        # test_positivity_census's draws, then bc = 0 and bh = bc
        checked = []
        check = catalysis._check_populations
        monkeypatch.setattr(
            catalysis, "_check_populations", lambda values: checked.append(values) or check(values)
        )
        rng = np.random.default_rng(15)
        for _ in range(400):
            d = int(rng.integers(1, 300))
            hot_exponent, cold_exponent = np.exp(rng.uniform(-8.0, math.log(740.0), size=2))
            boltz_hot, boltz_cold = math.exp(-hot_exponent), math.exp(-cold_exponent)
            for pair in ((boltz_hot, boltz_cold), (boltz_hot, 0.0), (boltz_hot, boltz_hot)):
                checked.clear()
                n, pops, _ = solve_splits(d, np.arange(1, d + 1), *pair)
                m = d - n
                third = (m + 1) % d if pair[1] <= pair[0] else np.full(d, d - 1)
                ends = checked[0]
                assert np.array_equal(ends, pops[np.arange(d), [np.zeros(d, int), m, third]])
                assert len(checked) == d + 1
                elementwise = np.array([row.min() for row in checked[1:]])
                assert np.abs(ends.min(axis=0) - elementwise).max() <= 1e-15

    def test_work_curve_at_dimension_100000(self):
        # d^2 = 10^10 populations if built; the curve needs the transfers alone
        d = 100_000
        rows = ts.fig_work_vs_cold_swaps(d, 0.25, 8, 0.7)
        assert [n for n, _, _ in rows] == list(range(1, d + 1))
        beta = ts.InverseTemperaturePair(0.25, 0.25 * 8 / 0.7)
        boltz_hot, boltz_cold = math.exp(-0.25), math.exp(-0.25 * 8 / 0.7 * 0.7)
        for n in (1, 2, 7, 100, 1000, 2500, 12499, 12500, 50000, 99999, 100000):
            shape = ts.SimplePermSpec(d - n, n)
            report, _ = ts.simple_perm_report(shape, 1.0, 0.7, beta)
            assert rows[n - 1][1] == report.work
            if n >= 12499:
                with pytest.raises(ts.DegeneratePointError):
                    ts.delta_p_closed_form(shape, boltz_hot, boltz_cold)
            else:
                expected = (d - n * 0.7) * ts.delta_p_closed_form(shape, boltz_hot, boltz_cold)
                assert abs(rows[n - 1][1] - expected) <= 1e-12

    def test_work_curve_at_dimension_2000(self):
        rows = ts.fig_work_vs_cold_swaps(2000, 0.25, 8, 0.7)
        boltz_hot = math.exp(-0.25)
        boltz_cold = math.exp(-0.25 * 8 / 0.7 * 0.7)
        for n in (1, 2, 7, 100, 249, 250, 251, 600, 1500, 1999, 2000):
            shape = ts.SimplePermSpec(2000 - n, n)
            expected = (2000 - n * 0.7) * ts.delta_p_closed_form(shape, boltz_hot, boltz_cold)
            assert rows[n - 1][0] == n
            assert abs(rows[n - 1][1] - expected) <= 1e-12


class TestClosedFormTransfer:
    def test_matches_solver_randomised(self, rng):
        for _ in range(300):
            shape = ts.SimplePermSpec(int(rng.integers(0, 16)), int(rng.integers(1, 16)))
            ah = float(rng.uniform(1e-3, 0.999))
            ac = float(rng.uniform(1e-3, 0.999))
            if abs(ah - ac) < 1e-6:
                continue
            closed = ts.delta_p_closed_form(shape, ah, ac)
            solved = ts.solve_catalyst_state(shape, ah, ac)
            assert abs(closed - solved.delta_p) <= 1e-10

    def test_two_block_catalyst_form(self, rng):
        # m = n = 1 collapses to N (ah^2 - ac) / (1 + ac + 2 ah)
        for _ in range(50):
            ah = float(rng.uniform(0.05, 0.95))
            ac = float(rng.uniform(0.05, 0.95))
            if abs(ah - ac) < 1e-3:
                continue
            norm = 1.0 / ((1.0 + ah) * (1.0 + ac))
            expected = norm * (ah**2 - ac) / (1.0 + ac + 2.0 * ah)
            got = ts.delta_p_closed_form(ts.SimplePermSpec(1, 1), ah, ac)
            assert got == pytest.approx(expected, abs=1e-14)

    def test_ladder_form(self, rng):
        # m = d-1, n = 1 collapses to N (ah^d - ac) / f_d with
        # f_d = (1 - ah^d)(1 - ac)/(1 - ah)^2 - d (ah^d - ac)/(1 - ah)
        for d in (2, 3, 5, 9):
            ah = float(rng.uniform(0.05, 0.95))
            ac = float(rng.uniform(0.05, 0.95))
            if abs(ah - ac) < 1e-3:
                continue
            norm = 1.0 / ((1.0 + ah) * (1.0 + ac))
            ladder_scale = (1 - ah**d) * (1 - ac) / (1 - ah) ** 2 - d * (
                ah**d - ac
            ) / (1 - ah)
            expected = norm * (ah**d - ac) / ladder_scale
            got = ts.delta_p_closed_form(ts.SimplePermSpec(d - 1, 1), ah, ac)
            assert got == pytest.approx(expected, abs=1e-13)

    def test_poles_rejected(self):
        with pytest.raises(ts.DegeneratePointError, match="linear solver"):
            ts.delta_p_closed_form(ts.SimplePermSpec(1, 1), 0.5, 0.5)
        with pytest.raises(ts.DegeneratePointError, match="linear solver"):
            ts.delta_p_closed_form(ts.SimplePermSpec(1, 1), 1.0 - 1e-14, 0.5)

    def test_solver_covers_the_pole(self):
        state = ts.solve_catalyst_state(ts.SimplePermSpec(1, 1), 0.5, 0.5)
        # equal Boltzmann factors: transfer N(ah^2 - ac)/f stays finite
        assert np.isfinite(state.delta_p)
        assert state.populations.min() >= 0.0


class TestSimplePermReport:
    def test_worked_example_exact(self):
        beta = ts.InverseTemperaturePair(6.0, 7.0)
        report, catalyst = ts.simple_perm_report(ts.SimplePermSpec(2, 3), 2.0, 3.0, beta)
        assert report.efficiency == 0.1
        assert report.work > 0.0
        assert catalyst.populations.min() >= 0.0

    def test_overflowing_work_raises_config_error(self):
        beta = ts.InverseTemperaturePair(0.25, 25.0)
        for report in (
            lambda: ts.simple_perm_report(ts.SimplePermSpec(800, 200), 1.0, 1e306, beta),
            lambda: ts.sweep_simple_perms(1000, 1.0, 1e306, beta),
        ):
            with pytest.raises(ts.ConfigError) as info:
                report()
            assert str(info.value) == "result is not finite (-inf) at these parameters"

    def test_two_block_efficiency(self):
        beta = ts.InverseTemperaturePair(1.0, 5.0)
        report, _ = ts.simple_perm_report(ts.SimplePermSpec(1, 1), 1.0, 0.6, beta)
        assert report.efficiency == pytest.approx(1.0 - 0.6 / 2.0, abs=1e-15)
        assert report.work > 0.0

    def test_matches_explicit_stroke(self, rng):
        for _ in range(25):
            omega_h, omega_c, beta = random_regime_tuple(rng)
            shape = ts.SimplePermSpec(int(rng.integers(0, 6)), int(rng.integers(1, 6)))
            report, _ = ts.simple_perm_report(shape, omega_h, omega_c, beta)
            initial, _ = solved_product_state(shape, omega_h, omega_c, beta)
            final = ts.apply_permutation(initial, ts.build_simple_perm(shape))
            explicit = ts.stroke_report(
                initial,
                final,
                ts.Spectrum.qubit(omega_h),
                ts.Spectrum.qubit(omega_c),
                beta,
            )
            assert abs(report.work - explicit.work) < 1e-10
            assert abs(report.heat_hot - explicit.heat_hot) < 1e-10
            assert abs(report.heat_cold - explicit.heat_cold) < 1e-10
            if explicit.efficiency is not None:
                assert abs(report.efficiency - explicit.efficiency) < 1e-9

    def test_block_relabelling_invariance(self, rng):
        # permuting catalyst populations together with the block labels
        # leaves every reported quantity unchanged
        omega_h, omega_c, beta = random_regime_tuple(rng)
        shape = ts.SimplePermSpec(2, 2)
        initial, _ = solved_product_state(shape, omega_h, omega_c, beta)
        perm = ts.build_simple_perm(shape)
        baseline = ts.stroke_report(
            initial,
            ts.apply_permutation(initial, perm),
            ts.Spectrum.qubit(omega_h),
            ts.Spectrum.qubit(omega_c),
            beta,
        )
        shuffle = rng.permutation(shape.d)
        relabel_image = np.arange(4 * shape.d).reshape(shape.d, 4)[shuffle].reshape(-1)
        relabel = ts.PermutationMap(tuple(int(x) for x in np.argsort(relabel_image)))
        relabelled_initial = ts.apply_permutation(initial, relabel)
        conjugated = relabel.compose(perm.compose(relabel.inverse()))
        relabelled_final = ts.apply_permutation(relabelled_initial, conjugated)
        report = ts.stroke_report(
            relabelled_initial,
            relabelled_final,
            ts.Spectrum.qubit(omega_h),
            ts.Spectrum.qubit(omega_c),
            beta,
        )
        assert report.work == pytest.approx(baseline.work, abs=1e-13)
        assert report.heat_hot == pytest.approx(baseline.heat_hot, abs=1e-13)
        assert report.heat_cold == pytest.approx(baseline.heat_cold, abs=1e-13)

    def test_work_sign_law(self, rng):
        # sign(W) = sign(ah^(m+n) - ac^n) * sign((m+n) wh - n wc) while the
        # closed-form scale factor stays positive
        for _ in range(200):
            omega_h = float(rng.uniform(0.2, 2.0))
            omega_c = float(rng.uniform(0.2, 2.0))
            beta_h = float(rng.uniform(0.2, 2.0))
            beta_c = beta_h + float(rng.uniform(0.05, 2.0))
            beta = ts.InverseTemperaturePair(beta_h, beta_c)
            shape = ts.SimplePermSpec(int(rng.integers(0, 6)), int(rng.integers(1, 6)))
            ah = math.exp(-beta_h * omega_h)
            ac = math.exp(-beta_c * omega_c)
            if abs(ah - ac) < 1e-6:
                continue
            transfer = ts.delta_p_closed_form(shape, ah, ac)
            scale = (ah ** shape.d - ac**shape.n) / transfer
            if scale <= 0:
                continue
            report, _ = ts.simple_perm_report(shape, omega_h, omega_c, beta)
            predicted = np.sign(ah ** shape.d - ac**shape.n) * np.sign(
                shape.d * omega_h - shape.n * omega_c
            )
            if abs(report.work) > 1e-13:
                assert np.sign(report.work) == predicted


class TestOptimalSimplePermEfficiency:
    BETA = ts.InverseTemperaturePair(1.0, 8.0)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_ladder_is_optimal(self, d):
        best = ts.optimal_simple_perm_efficiency(d, 1.0, 1.5, self.BETA)
        assert best == pytest.approx(1.0 - 1.5 / d, abs=1e-15)
        ladder_report, _ = ts.simple_perm_report(
            ts.SimplePermSpec(d - 1, 1), 1.0, 1.5, self.BETA
        )
        assert ladder_report.efficiency == pytest.approx(best, abs=1e-15)

    def test_efficiency_decreases_with_cold_swaps(self):
        swept = ts.sweep_simple_perms(6, 1.0, 1.5, self.BETA)
        efficiencies = [r.efficiency for _, r, _ in swept]
        assert efficiencies == sorted(efficiencies, reverse=True)

    def test_window_violations_rejected(self):
        with pytest.raises(ValueError, match="window"):
            ts.optimal_simple_perm_efficiency(1, 1.0, 1.5, self.BETA)  # d < wc/wh
        with pytest.raises(ValueError, match="window"):
            ts.optimal_simple_perm_efficiency(13, 1.0, 1.5, self.BETA)  # d > bc*wc

    def test_ladder_work_below_mode_threshold(self):
        # the (29, 1) ladder's float work is about 8e-13, under the engine-mode
        # threshold; inside the window the closed form is the answer regardless
        beta = ts.InverseTemperaturePair(1.0, 25.0)
        assert ts.optimal_simple_perm_efficiency(30, 1.0, 1.5, beta) == 1.0 - 1.5 / 30

    def test_nonpositive_spacings_rejected(self):
        with pytest.raises(ValueError, match="spacings"):
            ts.optimal_simple_perm_efficiency(2, -1.0, -1.5, self.BETA)


class TestFeasibleQuality:
    def test_worked_example_regime(self):
        shape = ts.feasible_quality(2.0, 3.0, ts.InverseTemperaturePair(6.0, 7.0))
        quality = Fraction(shape.d, shape.n)
        assert Fraction(3, 2) < quality < Fraction(7, 4)

    def test_random_regimes_always_realisable(self, rng):
        found = 0
        for _ in range(60):
            omega_h = float(rng.uniform(0.3, 2.0))
            omega_c = float(rng.uniform(0.3, 2.0))
            beta_h = float(rng.uniform(0.3, 1.5))
            beta_c = beta_h + float(rng.uniform(0.1, 2.0))
            if beta_c * omega_c <= beta_h * omega_h * 1.01:
                continue
            beta = ts.InverseTemperaturePair(beta_h, beta_c)
            shape = ts.feasible_quality(omega_h, omega_c, beta)
            report, _ = ts.simple_perm_report(shape, omega_h, omega_c, beta)
            assert report.work > 0.0
            assert 0.0 < report.efficiency < beta.carnot_efficiency
            found += 1
        assert found > 20

    def test_no_window_raises(self):
        beta = ts.InverseTemperaturePair(1.0, 1.2)
        with pytest.raises(ts.NoEngineRegimeError):
            ts.feasible_quality(1.0, 0.1, beta)  # bc*wc = 0.12 << bh*wh = 1

    def test_nonpositive_spacings_rejected(self):
        with pytest.raises(ValueError, match="spacings"):
            ts.feasible_quality(-1.0, -0.5, ts.InverseTemperaturePair(1.0, 4.0))

    def test_window_midpoint_above_cap(self):
        # windows (2, 200) and (2, 2e600), whose float upper end overflows to
        # inf: the first split is the smallest integer above the lower end
        for beta_h, beta_c in ((0.05, 5.0), (1e-300, 1e300)):
            shape = ts.feasible_quality(1.0, 2.0, ts.InverseTemperaturePair(beta_h, beta_c))
            assert shape == ts.SimplePermSpec(2, 1)

    @pytest.mark.parametrize(
        "omega_h, omega_c, beta_h, beta_c, split",
        [
            (3.0, 4.0, 1.0, 1.1, (2, 5)),  # float(4/3) rounds below the end 4/3
            (2.0, 3.0, 9.0, 10.0, (3, 5)),  # float(30/18) rounds onto 5/3, the Carnot end
        ],
    )
    def test_simple_rational_window_ends(self, omega_h, omega_c, beta_h, beta_c, split):
        # the window ends are the exact ratios of the inputs, never their floats,
        # so a simple rational end is never returned as the split
        beta = ts.InverseTemperaturePair(beta_h, beta_c)
        shape = ts.feasible_quality(omega_h, omega_c, beta)
        assert shape == ts.SimplePermSpec(*split)
        report, _ = ts.simple_perm_report(shape, omega_h, omega_c, beta)
        assert report.work > 0.0

    def test_exact_window_below_float_spacing(self):
        # the answer lies exactly inside the window, but its float d/n rounds
        # onto the upper end, where the float window of regime_map reads 0
        beta = ts.InverseTemperaturePair(1.0, 1.0 + 1e-9)
        high = beta.beta_c * 1.5
        shape = ts.feasible_quality(1.0, 1.5, beta)
        assert (shape.d, shape.n) == (499999961, 333333307)
        assert Fraction(1.5) < Fraction(shape.d, shape.n) < Fraction(high)
        assert not catalysis._catalytic_window(shape.d / shape.n, 1.5, high)

    def test_smallest_split_at_deep_parameters(self):
        # splits with a large d have transfers of about bh**m that underflow
        # to 0; the bare-swap ladder (1, 1) still has float work 2.7e-35
        beta = ts.InverseTemperaturePair(40.0, 4000.0)
        shape = ts.feasible_quality(1.0, 0.5, beta)
        assert shape == ts.SimplePermSpec(1, 1)
        report, _ = ts.simple_perm_report(shape, 1.0, 0.5, beta)
        assert report.work > 0.0

    def test_first_split_in_window_over_wide_ranges(self):
        rng = np.random.default_rng(0)
        outcomes = {"small d": 0, "empty": 0, "d > 64": 0}
        for _ in range(2000):
            omega_c = math.exp(rng.uniform(-3.0, 3.0))
            hot_exponent = math.exp(rng.uniform(-3.0, 6.0))  # omega_h = 1
            beta = ts.InverseTemperaturePair(
                hot_exponent, hot_exponent * math.exp(rng.uniform(0.0, 6.0))
            )
            low = max(1.0, omega_c)
            high = beta.beta_c * omega_c / beta.beta_h
            first = next(
                (
                    ts.SimplePermSpec(d - n, n)
                    for d in range(2, 65)
                    for n in range(1, d)
                    if low < d / n < high
                ),
                None,
            )
            if first is not None:
                outcomes["small d"] += 1
                assert ts.feasible_quality(1.0, omega_c, beta) == first
            elif not high > low:
                outcomes["empty"] += 1
                with pytest.raises(ts.NoEngineRegimeError):
                    ts.feasible_quality(1.0, omega_c, beta)
            else:
                outcomes["d > 64"] += 1
                shape = ts.feasible_quality(1.0, omega_c, beta)
                low = max(Fraction(1), Fraction(omega_c))
                high = Fraction(beta.beta_c) * Fraction(omega_c) / Fraction(beta.beta_h)
                assert shape.d > 64 and math.gcd(shape.d, shape.n) == 1
                assert low < Fraction(shape.d, shape.n) < high
                # the fewest n with d/n < high is floor(d/high) + 1; for every
                # smaller d that n already has d/n <= low, so no split exists
                assert shape.n == math.floor(shape.d / high) + 1
                for d in range(2, shape.d):
                    assert Fraction(d, math.floor(d / high) + 1) <= low
        assert min(outcomes.values()) > 0, outcomes


class TestRegimeMap:
    @staticmethod
    def flags(chart, region_label):
        return [mask for _, region, mask in chart.regions if region == region_label]

    def test_worked_example_point(self):
        chart = ts.regime_map(
            ["5/3"], (1.01, 1.5), (1.0, 2.0), 30
        )
        # the grid is a product, so the nearest point has the nearest coordinates
        nearest = (
            np.argmin(np.abs(chart.beta_ratios - 7.0 / 6.0)),
            np.argmin(np.abs(chart.freq_ratios - 1.5)),
        )
        (catalytic,) = self.flags(chart, "catalytic")
        assert catalytic[nearest]
        (otto,) = self.flags(chart, "otto")
        assert not otto[nearest]

    def test_clausius_forbidden_corner(self):
        chart = ts.regime_map(["2", "3"], (1.02, 1.6), (0.05, 0.5), 12)
        forbidden = np.multiply.outer(chart.beta_ratios, chart.freq_ratios) <= 1.0
        assert forbidden.any()
        for _, _, mask in chart.regions:
            assert not mask[forbidden].any()

    def test_quality_below_one_never_feasible(self):
        chart = ts.regime_map(["1/2"], (1.1, 1.9), (0.2, 1.8), 8)
        assert not any(mask.any() for mask in self.flags(chart, "catalytic"))

    def test_catalytic_flags_match_scalar_reports(self):
        qualities = [Fraction(q) for q in ("5/3", "2.2", "4", "63/2")]
        chart = ts.regime_map(qualities, (1.01, 40.0), (0.05, 2.5), 25)
        rng = np.random.default_rng(63)
        for quality, (label, region, mask) in zip(qualities, chart.regions[2:]):
            assert (label, region) == (f"{quality.numerator}/{quality.denominator}", "catalytic")
            inside = [
                (beta, freq, mask[i, j])
                for i, beta in enumerate(chart.beta_ratios.tolist())
                for j, freq in enumerate(chart.freq_ratios.tolist())
                if 1.0 < quality < beta * freq
            ]
            shape = ts.SimplePermSpec(quality.numerator - quality.denominator, quality.denominator)
            for pick in rng.choice(len(inside), size=5, replace=False):
                beta_ratio, freq_ratio, feasible = inside[pick]
                beta = ts.InverseTemperaturePair(1.0, beta_ratio)
                report, _ = ts.simple_perm_report(shape, 1.0, freq_ratio, beta)
                assert feasible == (report.work > 0.0)

    def test_makes_no_flow_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("regime_map solved the flow equations")

        monkeypatch.setattr(catalysis, "_solve_flow_balance", refuse)
        chart = ts.regime_map(["5/3", "63/2", "1/2"], (1.01, 40.0), (0.05, 2.5), 10)
        assert chart.regions[3][2].any()

    def test_no_dimension_cap(self):
        # the window costs the same for any d, so d > 64 is flagged like any other
        chart = ts.regime_map(["65", "130/3"], (1.01, 80.0), (0.05, 2.5), 12)
        product = np.multiply.outer(chart.beta_ratios, chart.freq_ratios)
        for quality, (label, _, mask) in zip((65, Fraction(130, 3)), chart.regions[2:]):
            assert label == f"{quality.numerator}/{quality.denominator}"
            assert mask.any()
            expected = catalysis._catalytic_window(float(quality), chart.freq_ratios, product)
            np.testing.assert_array_equal(mask, expected)

    def test_row_guard(self, monkeypatch):
        # rows = resolution**2 * (2 + number of ratios), refused past the cap
        monkeypatch.setattr(catalysis, "MAX_REGIME_ROWS", 20)
        assert len(ts.regime_map(["2", "3", "4"], (1.1, 1.9), (0.2, 1.8), 2).regions) == 5
        with pytest.raises(ts.GuardExceededError, match="24 rows exceeds the cap 20"):
            ts.regime_map(["2", "3", "4", "5"], (1.1, 1.9), (0.2, 1.8), 2)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ts.regime_map(["2"], (0.9, 1.5), (0.2, 1.8), 4)

    @pytest.mark.parametrize(
        "qualities, freq_range, message",
        [(["2"], (0.0, 1.0), "freq ratio range"), ([], (0.2, 1.8), "at least one d/n ratio")],
    )
    def test_argument_refusals(self, qualities, freq_range, message):
        with pytest.raises(ValueError, match=message):
            ts.regime_map(qualities, (1.1, 1.5), freq_range, 4)

    @pytest.mark.parametrize(
        "value, expected",
        [("2.2", Fraction(11, 5)), (2.2, Fraction(11, 5)), (3, Fraction(3)), ("7/3", Fraction(7, 3))],
    )
    def test_quality_coercion(self, value, expected):
        assert catalysis._as_quality(value) == expected

    @pytest.mark.parametrize(
        "value, error, message",
        [
            (object(), TypeError, "cannot interpret"),
            (0, ValueError, "must be positive"),
            ("1/0", ValueError, "zero denominator"),
            ("1e400", ValueError, "exceeds the float range"),
            ("nan", ValueError, "d/n ratio 'nan' is not a rational number"),
            ("inf", ValueError, "d/n ratio 'inf' is not a rational number"),
            ("abc", ValueError, "d/n ratio 'abc' is not a rational number"),
            (math.nan, ValueError, "d/n ratio nan is not a rational number"),
        ],
    )
    def test_quality_refusals(self, value, error, message):
        with pytest.raises(error, match=message):
            catalysis._as_quality(value)


class TestCatalyticWindow:
    """The closed-form window against the flow solve, at beta_h = omega_h = 1:
    inside max(1, freq) < d/n < beta*freq the simple permutation has a valid
    catalyst and positive work, outside it does not.  d/n = 1 is the bare
    swap, which the window leaves to the 'otto' flag."""

    @staticmethod
    def engine(quality, beta_ratio, freq_ratio):
        shape = ts.SimplePermSpec(quality.numerator - quality.denominator, quality.denominator)
        beta = ts.InverseTemperaturePair(1.0, beta_ratio)
        report, _ = ts.simple_perm_report(shape, 1.0, freq_ratio, beta)
        return report.work > 0.0

    @staticmethod
    def window(quality, beta_ratio, freq_ratio):
        return bool(catalysis._catalytic_window(float(quality), freq_ratio, beta_ratio * freq_ratio))

    def test_random_grid_points(self, rng):
        for _ in range(12):
            n = int(rng.integers(1, 33))
            d = int(rng.integers(n + 1, 65))
            quality = Fraction(d, n)
            chart = ts.regime_map([quality], (1.01, 40.0), (0.05, 2.5), 20)
            flags = chart.regions[2][2]
            for i, j in rng.integers(0, 20, size=(40, 2)).tolist():
                beta_ratio, freq_ratio = chart.beta_ratios[i], chart.freq_ratios[j]
                expected = self.engine(quality, beta_ratio, freq_ratio)
                assert flags[i, j] == expected == self.window(quality, beta_ratio, freq_ratio)

    @pytest.mark.parametrize("offset", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_edge_probes(self, rng, offset):
        for _ in range(25):
            n = int(rng.integers(1, 33))
            quality = Fraction(int(rng.integers(n + 1, 65)), n)
            q = float(quality)
            for side, inside in ((1.0 - offset, False), (1.0 + offset, True)):
                # the product edge beta*freq = d/n, with freq below d/n
                freq_ratio = float(rng.uniform(0.05, 0.9 * min(q, 2.5)))
                probes = [(q * side / freq_ratio, freq_ratio)]
                # the frequency edge freq = d/n, with beta*freq far above it
                probes.append((float(rng.uniform(1.5, 4.0)), q * (2.0 - side)))
                for beta_ratio, freq_ratio in probes:
                    expected = self.engine(quality, beta_ratio, freq_ratio)
                    assert expected == inside == self.window(quality, beta_ratio, freq_ratio)


class TestFigWorkVsColdSwaps:
    def test_one_flow_solve_per_curve(self, monkeypatch):
        calls = []
        solve = catalysis._solve_flow_balance

        def counted(*args):
            calls.append(len(args[1]))
            return solve(*args)

        monkeypatch.setattr(catalysis, "_solve_flow_balance", counted)
        rows = ts.fig_work_vs_cold_swaps(120, 0.25, 8.0, 0.7)
        assert len(rows) == 120
        assert calls == [120]

    def test_curve_is_a_float_array_with_exact_n(self):
        for d in (1, 7, 120, 3000):
            curve = ts.fig_work_vs_cold_swaps(d, 0.25, 8.0, 0.7)
            assert curve.shape == (d, 3) and curve.dtype == np.float64
            assert np.array_equal(curve[:, 0], np.arange(1, d + 1))
            assert (curve[:, 2] == curve[0, 2]).all()

    def test_overflowing_work_raises_config_error(self):
        # the cold heat -n*omega_c*transfer leaves the float range from n = 180
        # on; the overflow is refused, not returned as -inf behind numpy's warning
        with np.errstate(over="ignore"), pytest.raises(ts.ConfigError) as info:
            ts.fig_work_vs_cold_swaps(1000, 0.25, 1e308, 1e306)
        assert str(info.value) == "result is not finite (-inf) at these parameters"

    def test_reference_curve_signs(self):
        rows = ts.fig_work_vs_cold_swaps(30, 0.25, 8.0, 0.5)
        assert [n for n, _, _ in rows] == list(range(1, 31))
        for n, work, _ in rows:
            # d/n < exponent ratio picks out n > 30/8
            assert (work > 0) == (n >= 4)

    def test_endpoint_matches_direct_report(self):
        rows = ts.fig_work_vs_cold_swaps(12, 0.4, 6.0, 0.7)
        beta = ts.InverseTemperaturePair(0.4, 0.4 * 6.0 / 0.7)
        report, _ = ts.simple_perm_report(ts.SimplePermSpec(0, 12), 1.0, 0.7, beta)
        assert rows[-1][1] == pytest.approx(report.work, abs=1e-15)

    def test_baseline_is_best_noncatalytic_work(self):
        rows = ts.fig_work_vs_cold_swaps(10, 0.25, 8.0, 0.5)
        beta = ts.InverseTemperaturePair(0.25, 0.25 * 8.0 / 0.5)
        best = ts.optimal_noncatalytic(
            ts.Spectrum.qubit(1.0), ts.Spectrum.qubit(0.5), beta, objective="work"
        )
        assert rows[0][2] == pytest.approx(best.best_value, abs=1e-13)

    def test_catalytic_work_can_beat_noncatalytic(self):
        # needs a hot hot-bath and a mild spacing gap; at these parameters
        # the n = 24 split nearly doubles the bare-swap work
        rows = ts.fig_work_vs_cold_swaps(30, 0.1, 3.0, 0.9)
        assert any(work > baseline for _, work, baseline in rows)
