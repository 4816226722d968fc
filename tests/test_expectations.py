"""Tests for expectations, reservation offsets and order pricing."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from market_abm.book import Side
from market_abm.config import SimConfig
from market_abm.expectations import (
    decide_order,
    draw_k,
    expected_price,
    rolling_sigma,
)
from market_abm.population import FUNDAMENTALIST, OPTIMIST, PESSIMIST

from oracles import draw_k_reference, expected_price_reference, rolling_sigma_reference

PARAMS = SimConfig()


def brute_force_sigma(history, tau):
    """Literal transcription of the dispersion definition used as an oracle."""
    t = len(history)
    devs = [history[t - k] for k in range(1, tau + 1)]
    mean = sum(history[t - 1 - k] for k in range(1, tau + 1)) / tau
    var = sum((p - mean) ** 2 for p in devs) * math.sqrt(tau) / tau
    return math.sqrt(var)


def sigma(history, tau):
    """The dispersion over a whole history: the prices before step len(history)."""
    return rolling_sigma(np.asarray(history, dtype=float), len(history), tau)


class TestRollingSigma:
    def test_constant_history(self):
        assert sigma([250.0] * 30, 10) == 0.0

    def test_two_point_example(self):
        # window [102], mean from the step before: 100
        assert sigma([100.0, 102.0], 1) == pytest.approx(2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        history = list(300.0 + np.cumsum(rng.normal(0, 1, 400)))
        for tau in (1, 2, 17, 100, 399):
            got = sigma(history, tau)
            want = brute_force_sigma(history, tau)
            assert got == pytest.approx(want, rel=1e-12)

    def test_short_history_shrinks_window(self):
        history = [100.0, 101.0, 103.0]
        assert sigma(history, 50) == pytest.approx(brute_force_sigma(history, 2), rel=1e-12)

    def test_degenerate_history(self):
        assert sigma([300.0], 100) == 0.0
        assert sigma([], 100) == 0.0

    @pytest.mark.parametrize("tau", [1, 2, 7, 100])
    def test_buffer_at_step_equals_history_slice(self, tau):
        # the engine passes its whole price buffer and the step index; for
        # every step from the cold start through the shrinking window to the
        # full one, sigma must equal the reference over the slice bit for
        # bit, and must ignore the prices from step t on. Rounded prices
        # repeat, so some deviations are exactly zero.
        rng = np.random.default_rng(tau)
        price = np.round(300.0 + np.cumsum(rng.normal(0, 0.3, tau + 8)), 1)
        assert len(np.unique(price)) < len(price)
        for t in range(1, tau + 4):
            got = rolling_sigma(price, t, tau)
            assert type(got) is float
            assert got == rolling_sigma_reference(price[:t], tau)


class _ZeroNormal:
    """Stub generator whose normal draws are exactly zero."""

    def standard_normal(self):
        return 0.0


class TestExpectedPrice:
    def test_fundamentalist_zero_draw(self):
        value = expected_price(FUNDAMENTALIST, 290.0, 305.0, 3.0, PARAMS, _ZeroNormal())
        assert value == 305.0

    def test_optimist_degenerate_dispersion(self):
        rng = np.random.default_rng(2)
        value = expected_price(OPTIMIST, 290.0, 305.0, 0.0, PARAMS, rng)
        assert value == 290.0

    def test_pessimist_never_above_price(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            value = expected_price(PESSIMIST, 290.0, 305.0, 2.0, PARAMS, rng)
            assert value <= 290.0

    def test_fundamentalist_unbiased(self):
        rng = np.random.default_rng(4)
        n = 100_000
        draws = np.array([
            expected_price(FUNDAMENTALIST, 290.0, 300.0, 0.0, PARAMS, rng)
            for _ in range(n)
        ])
        se = 300.0 * 0.005 / math.sqrt(n)
        assert abs(draws.mean() - 300.0) < 3 * se

    def test_chartist_gap_has_half_gaussian_mean(self):
        rng = np.random.default_rng(5)
        n = 100_000
        sigma_tau = 2.0
        scale = sigma_tau / PARAMS.gamma_c
        opt = np.array([expected_price(OPTIMIST, 300.0, 300.0, sigma_tau, PARAMS, rng) for _ in range(n)])
        pes = np.array([expected_price(PESSIMIST, 300.0, 300.0, sigma_tau, PARAMS, rng) for _ in range(n)])
        expected_gap = 2 * scale * math.sqrt(2 / math.pi)
        se = 2 * scale / math.sqrt(n)
        assert abs((opt.mean() - pes.mean()) - expected_gap) < 4 * se

    def test_floored_at_one_tick(self):
        rng = np.random.default_rng(6)
        values = [expected_price(PESSIMIST, 1.0, 1.0, 50.0, PARAMS, rng) for _ in range(200)]
        assert min(values) >= PARAMS.tick


class TestDrawK:
    def test_mean(self):
        rng = np.random.default_rng(7)
        samples = np.array([draw_k(rng, 0.1) for _ in range(1_000_000)])
        assert samples.mean() == pytest.approx(0.1, abs=0.001)

    def test_cdf_at_scale(self):
        rng = np.random.default_rng(8)
        samples = np.array([draw_k(rng, 0.1) for _ in range(200_000)])
        assert (samples <= 0.1).mean() == pytest.approx(1 - math.exp(-1), abs=0.005)

    def test_support_nonnegative(self):
        rng = np.random.default_rng(9)
        assert all(draw_k(rng, 0.1) >= 0 for _ in range(1000))

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            draw_k(np.random.default_rng(0), 0.0)


def bits(value: float) -> bytes:
    """The IEEE-754 bytes of a float: equal bits, including a zero's sign."""
    return struct.pack("<d", value)


# scales from zero and the smallest subnormal to the edge of overflow
scales = st.sampled_from([0.0, 5e-324, 0.005, 1e300]) | st.floats(0.0, 1e300)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sigma=scales, k_scale=scales.filter(lambda s: s > 0.0),
       p=st.floats(1e-3, 1e6), p_f=st.floats(1e-3, 1e6))
@example(seed=0, sigma=0.0, k_scale=5e-324, p=300.0, p_f=300.0)
@example(seed=1, sigma=1e300, k_scale=1e300, p=300.0, p_f=300.0)
def test_draws_are_bit_identical_to_numpy_normal_and_exponential(seed, sigma, k_scale, p, p_f):
    """Each agent type's expectation and the reservation offset equal the
    rng.normal(0.0, s) and rng.exponential(s) forms bit for bit, and leave
    the generator in the same state."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    config = SimConfig(sigma_eps=sigma)
    for agent_type in (FUNDAMENTALIST, OPTIMIST, PESSIMIST):
        got = expected_price(agent_type, p, p_f, sigma, config, rng)
        want = expected_price_reference(agent_type, p, p_f, sigma, config, ref)
        assert bits(got) == bits(want), agent_type
    assert bits(draw_k(rng, k_scale)) == bits(draw_k_reference(ref, k_scale))
    assert rng.integers(500) == ref.integers(500)


class TestDecideOrder:
    def test_no_order_when_expectation_equals_price(self):
        assert decide_order(1, 100, 300.0, 300.0, 0.05, 0.0005) is None

    def test_buy_discounts_expectation(self):
        intent = decide_order(1, 100, 310.0, 300.0, 0.1, 0.0005)
        assert intent.side == Side.BUY
        assert intent.ticks * 0.0005 == pytest.approx(279.0)
        assert intent.ticks == 558000

    def test_sell_zero_offset_boundary(self):
        intent = decide_order(2, 300, 290.0, 300.0, 0.0, 0.0005)
        assert intent.side == Side.SELL
        assert intent.ticks * 0.0005 == pytest.approx(290.0)
        assert intent.ticks == 580000

    def test_reservations_on_grid_and_ordered(self):
        rng = np.random.default_rng(10)
        tick = 0.0005
        for _ in range(2000):
            expectation = float(rng.uniform(1.0, 600.0))
            p = float(rng.uniform(1.0, 600.0))
            k = float(rng.exponential(0.1))
            intent = decide_order(3, 100, expectation, p, k, tick)
            if intent is None:
                continue
            price = intent.ticks * tick
            # buy rounds down, so reservation <= expectation*(1-k) <= expectation
            if intent.side == Side.BUY:
                assert price <= expectation + tick
            else:
                assert price >= expectation - tick
            # a whole number of ticks, so an exact grid multiple
            assert type(intent.ticks) is int and intent.ticks > 0
            assert abs(price / tick - round(price / tick)) < 1e-6

    @pytest.mark.parametrize("off, buy_ticks, sell_ticks", [
        (-5e-7, 601, 601),  # within 1e-6 ticks of the grid: snapped, either side
        (5e-7, 601, 601),
        (-2e-6, 600, 601),  # beyond it: buys round down, sells up
        (2e-6, 601, 602),
    ])
    def test_snap_tolerance(self, off, buy_ticks, sell_ticks):
        # tick 0.5 and k = 0 make the reservation 2 * expectation ticks
        expectation = (601 + off) / 2
        assert decide_order(6, 100, expectation, 1.0, 0.0, 0.5).ticks == buy_ticks
        assert decide_order(6, 100, expectation, 1000.0, 0.0, 0.5).ticks == sell_ticks

    def test_degenerate_reservation_gives_no_order(self):
        # k >= 1 forces the buy reservation to zero or below
        assert decide_order(4, 100, 310.0, 300.0, 1.0, 0.0005) is None

    def test_horizon_carried_through(self):
        intent = decide_order(5, 300, 310.0, 300.0, 0.1, 0.0005)
        assert intent.horizon == 300
