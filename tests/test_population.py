"""Tests for the trader population and the opinion-switching rules."""

import math

import numpy as np
import pytest

from market_abm.config import SimConfig
from market_abm.population import (
    FUNDAMENTALIST,
    OPTIMIST,
    PESSIMIST,
    Population,
    average_price_trend,
)

from oracles import (
    MarketView,
    PopulationCounts,
    average_price_trend_reference,
    compute_U1,
    compute_U2,
    switch_sweep,
    transition_probability,
    transition_rate,
)

PARAMS = SimConfig()


def make_population(n_f, n_plus, n_minus, cash=10_000.0, shares=10):
    n = n_f + n_plus + n_minus
    return Population.initial(
        n_agents=n, frac_f=n_f / n, frac_opt=n_plus / n, cash=cash, shares=shares,
        tick_size=0.0005,
    )


def trend(prices, horizon, dt):
    """The trend over a whole history: the prices before step len(prices)."""
    return average_price_trend(prices, len(prices), horizon, dt)


class TestAveragePriceTrend:
    def test_constant_history_is_zero(self):
        assert trend([100.0] * 50, 10, 0.01) == 0.0

    def test_small_example(self):
        # two one-unit rises over dt=0.01 average to 100 per unit time
        assert trend([100.0, 101.0, 102.0], 2, 0.01) == pytest.approx(100.0)

    def test_linear_ramp_any_horizon(self):
        # brute force over explicit ramps: slope m per step gives m/dt
        for m, horizon in ((0.5, 7), (-1.25, 30), (2.0, 100)):
            prices = [300.0 + m * i for i in range(150)]
            expected = m / 0.01
            assert trend(prices, horizon, 0.01) == pytest.approx(expected)

    def test_matches_mean_of_differences(self):
        rng = np.random.default_rng(5)
        prices = 300.0 + np.cumsum(rng.normal(0, 0.3, size=500))
        for horizon in (1, 13, 100, 499):
            brute = np.mean(np.diff(prices)[-horizon:]) / 0.01
            assert trend(prices, horizon, 0.01) == pytest.approx(brute, rel=1e-9)

    def test_short_history_uses_available_window(self):
        prices = [100.0, 103.0]
        assert trend(prices, 50, 0.01) == pytest.approx(300.0)

    def test_empty_history_cold_start(self):
        assert trend([], 100, 0.01) == 0.0
        assert trend([300.0], 100, 0.01) == 0.0

    def test_memoryview_window_equals_numpy_window(self):
        # the engine passes a memoryview of its whole price buffer and the
        # step index, which reads Python floats; on both horizons every trend
        # must equal the reference over the numpy slice bit for bit, from the
        # cold start through the shrinking window to the full one, and must
        # ignore the prices from step t on
        cfg = SimConfig()
        for horizon in (cfg.horizon_c, cfg.horizon_f):
            prices = 300.0 + np.cumsum(np.random.default_rng(horizon).normal(0, 0.3, horizon + 4))
            view = memoryview(prices)
            for t in range(0, horizon + 4):
                got = average_price_trend(view, t, horizon, cfg.dt)
                assert type(got) is float
                assert got == average_price_trend_reference(prices[:t], horizon, cfg.dt)


class TestSignals:
    def test_u1_zero_at_flat(self):
        assert compute_U1(0.0, 0.0, 300.0, PARAMS) == 0.0

    def test_u1_pure_opinion_term(self):
        assert compute_U1(1.0, 0.0, 300.0, PARAMS) == pytest.approx(0.6)

    def test_u1_pure_trend_term(self):
        # alpha2/v1 * trend/p = (1.5/2) * 2/100
        assert compute_U1(0.0, 2.0, 100.0, PARAMS) == pytest.approx(0.015)

    def test_u2_cancels_at_fundamental_price(self):
        for direction in (OPTIMIST, PESSIMIST):
            assert compute_U2(direction, 0.0, 300.0, 300.0, PARAMS) == pytest.approx(0.0)

    def test_u2_trend_term(self):
        # (trend/v2)/p with trend 0.6, v2 0.6, p 300
        value = compute_U2(OPTIMIST, 0.6, 300.0, 300.0, PARAMS)
        assert value == pytest.approx(1.0 / 300.0)

    def test_u2_mirror_symmetry(self):
        # at p = p_f the pessimistic signal mirrors the optimistic one
        for trend in np.linspace(-3.0, 3.0, 13):
            a = compute_U2(PESSIMIST, trend, 300.0, 300.0, PARAMS)
            b = compute_U2(OPTIMIST, -trend, 300.0, 300.0, PARAMS)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_u2_rejects_fundamentalist(self):
        with pytest.raises(ValueError):
            compute_U2(FUNDAMENTALIST, 0.0, 300.0, 300.0, PARAMS)


class TestTransitionProbability:
    def test_chartist_pair_example(self):
        counts = PopulationCounts(n_f=250, n_plus=125, n_minus=125)
        prob = transition_probability(PESSIMIST, OPTIMIST, counts, 0.0, PARAMS)
        assert prob == pytest.approx(2 * 0.5 * 1.0 * 0.01)

    def test_symmetric_at_zero_signal(self):
        counts = PopulationCounts(n_f=100, n_plus=250, n_minus=150)
        up = transition_rate(PESSIMIST, OPTIMIST, counts, 0.0, PARAMS)
        down = transition_rate(OPTIMIST, PESSIMIST, counts, 0.0, PARAMS)
        assert up == pytest.approx(down)

    def test_zero_prefactor_without_chartists(self):
        counts = PopulationCounts(n_f=500, n_plus=0, n_minus=0)
        assert transition_probability(PESSIMIST, OPTIMIST, counts, 0.0, PARAMS) == 0.0
        assert transition_probability(FUNDAMENTALIST, OPTIMIST, counts, 0.0, PARAMS) == 0.0

    def test_self_transition_rejected(self):
        counts = PopulationCounts(250, 125, 125)
        with pytest.raises(ValueError):
            transition_probability(OPTIMIST, OPTIMIST, counts, 0.0, PARAMS)

    def test_clamped_to_unit_interval(self):
        counts = PopulationCounts(1, 499, 0)
        prob = transition_probability(FUNDAMENTALIST, OPTIMIST, counts, 50.0, PARAMS)
        assert prob == 1.0

    def test_fundamentalist_pairs_use_target_prefactors(self):
        counts = PopulationCounts(n_f=200, n_plus=250, n_minus=50)
        rate_fo = transition_rate(FUNDAMENTALIST, OPTIMIST, counts, 0.0, PARAMS)
        rate_of = transition_rate(OPTIMIST, FUNDAMENTALIST, counts, 0.0, PARAMS)
        assert rate_fo == pytest.approx(0.6 * 250 / 500)
        assert rate_of == pytest.approx(0.6 * 200 / 500)


FLAT_MARKET = MarketView(p=300.0, p_f=300.0, trend_f=0.0, trend_c=0.0)


class TestApplySwitching:
    def test_zero_rates_leave_population_unchanged(self):
        # with no chartists, every transition rate carries a zero prefactor
        pop = make_population(500, 0, 0)
        before = pop.types.copy()
        stats = switch_sweep(pop, FLAT_MARKET, PARAMS, np.random.default_rng(0))
        assert stats.switches == 0
        np.testing.assert_array_equal(pop.types, before)

    @pytest.mark.parametrize("trend_f, trend_c", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf),
    ])
    def test_non_finite_trend_is_an_error(self, trend_f, trend_c):
        # a NaN trend would make every threshold NaN, below which no draw
        # falls, and silently freeze the population
        pop = make_population(200, 200, 100)
        before = pop.types.copy()
        market = MarketView(p=300.0, p_f=300.0, trend_f=trend_f, trend_c=trend_c)
        with pytest.raises(ValueError, match="trends must be finite"):
            switch_sweep(pop, market, PARAMS, np.random.default_rng(0))
        np.testing.assert_array_equal(pop.types, before)

    def test_count_conservation(self):
        pop = make_population(250, 125, 125)
        rng = np.random.default_rng(1)
        for _ in range(500):
            switch_sweep(pop, FLAT_MARKET, PARAMS, rng)
            assert sum(pop.counts()) == 500

    def test_floor_rule_blocks_exits_from_tiny_group(self):
        # 3 fundamentalists of 500 is 0.6% < 0.8%: none of them may leave
        rng = np.random.default_rng(2)
        hot = SimConfig(v2=200.0)  # exits would be near-certain if allowed
        for _ in range(100):
            pop = make_population(3, 249, 248)
            fundamentalists = np.flatnonzero(pop.types == FUNDAMENTALIST)
            switch_sweep(pop, FLAT_MARKET, hot, rng)
            assert (pop.types[fundamentalists] == FUNDAMENTALIST).all()

    def test_floor_rule_allows_exit_at_exactly_point_eight_percent(self):
        # 4 of 500 is exactly 0.8%, which is not below the floor
        rng = np.random.default_rng(3)
        hot = SimConfig(v2=200.0)
        exits = 0
        for _ in range(50):
            pop = make_population(4, 248, 248)
            fundamentalists = np.flatnonzero(pop.types == FUNDAMENTALIST)
            switch_sweep(pop, FLAT_MARKET, hot, rng)
            exits += int(np.count_nonzero(pop.types[fundamentalists] != FUNDAMENTALIST))
        assert exits > 0

    def test_switch_frequency_matches_rates(self):
        # symmetric setup keeps all signals at zero: frequencies follow pi*dt
        n_f, n_plus, n_minus = 250, 125, 125
        expected = {
            (OPTIMIST, PESSIMIST): 2.0 * 0.5 * 0.01,
            (OPTIMIST, FUNDAMENTALIST): 0.6 * 0.5 * 0.01,
            (FUNDAMENTALIST, OPTIMIST): 0.6 * 0.25 * 0.01,
        }
        steps = 10_000
        counts = {pair: 0 for pair in expected}
        exposure = {pair: 0 for pair in expected}
        rng = np.random.default_rng(4)
        pop = make_population(n_f, n_plus, n_minus)
        for _ in range(steps):
            before = pop.types.copy()
            # rebuild population each step to keep group sizes pinned
            switch_sweep(pop, FLAT_MARKET, PARAMS, rng)
            after = pop.types
            for (src, dst), _ in expected.items():
                src_mask = before == src
                counts[(src, dst)] += int(np.count_nonzero(src_mask & (after == dst)))
                exposure[(src, dst)] += int(np.count_nonzero(src_mask))
            pop.types = before  # reset so rates stay constant
        for pair, rate in expected.items():
            observed = counts[pair] / exposure[pair]
            se = math.sqrt(rate * (1 - rate) / exposure[pair])
            assert abs(observed - rate) < 3 * se, (pair, observed, rate)

    def test_detailed_balance_zero_net_flow(self):
        # equal chartist camps and zero signals: every pairwise net flow has mean 0
        rng = np.random.default_rng(5)
        net_fo = net_op = 0
        steps = 10_000
        pop = make_population(250, 125, 125)
        for _ in range(steps):
            before = pop.types.copy()
            switch_sweep(pop, FLAT_MARKET, PARAMS, rng)
            after = pop.types
            net_fo += int(np.count_nonzero((before == FUNDAMENTALIST) & (after == OPTIMIST)))
            net_fo -= int(np.count_nonzero((before == OPTIMIST) & (after == FUNDAMENTALIST)))
            net_op += int(np.count_nonzero((before == OPTIMIST) & (after == PESSIMIST)))
            net_op -= int(np.count_nonzero((before == PESSIMIST) & (after == OPTIMIST)))
            pop.types = before
        # flows are Poisson-ish with ~0.375 events/step per direction
        sd = math.sqrt(2 * 0.375 * steps)
        assert abs(net_fo) < 3 * sd
        assert abs(net_op) < 3 * sd

    def test_probabilities_clamped_and_counted(self):
        pop = make_population(250, 125, 125)
        crazy = SimConfig(v1=1e4, v2=1e4)
        stats = switch_sweep(pop, FLAT_MARKET, crazy, np.random.default_rng(6))
        assert stats.clamped > 0


def test_initial_population_layout():
    pop = make_population(2, 1, 1, cash=450.0, shares=3)
    assert pop.types.tolist() == [FUNDAMENTALIST, FUNDAMENTALIST, OPTIMIST, PESSIMIST]
    assert pop.cash_ticks.tolist() == [900_000] * 4  # 450 / 0.0005
    assert pop.shares.tolist() == [3] * 4
    assert pop.counts() == (2, 1, 1)


def test_opinion_index_bounds():
    counts = PopulationCounts(0, 300, 200)
    assert counts.x == pytest.approx(0.2)
    assert PopulationCounts(500, 0, 0).x == 0.0
