"""The switching sweep against a mask-based reference oracle.

`reference_sweep` is the original array-mask formulation of one sweep: a
boolean mask per type and target over the whole population. The production
`apply_switching` visits only the agents whose draw can move them, and must
reproduce the oracle exactly: the same new types, switch count and clamp
count, from the same draws. Most tests reach it through `switch_sweep`,
which takes a population and a market view; the block test calls the kernel
as the engine does, at row offsets of one flat buffer of draws.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from market_abm.config import SimConfig
from market_abm.population import (
    FUNDAMENTALIST,
    MIN_GROUP_FRACTION,
    OPTIMIST,
    PESSIMIST,
    Population,
    apply_switching,
)

from oracles import (
    MarketView,
    PopulationCounts,
    SwitchStats,
    compute_U1,
    compute_U2,
    switch_sweep,
    transition_rate,
)


def reference_probabilities(pop, market, params):
    """Counts at entry, raw per-step rates and clamped probabilities of the
    six flows, keyed (from, to)."""
    counts, dt = PopulationCounts(*pop.counts()), params.dt
    u1 = compute_U1(counts.x, market.trend_c, market.p, params)
    u21_c = compute_U2(OPTIMIST, market.trend_c, market.p, market.p_f, params)
    u21_f = compute_U2(OPTIMIST, market.trend_f, market.p, market.p_f, params)
    u22_c = compute_U2(PESSIMIST, market.trend_c, market.p, market.p_f, params)
    u22_f = compute_U2(PESSIMIST, market.trend_f, market.p, market.p_f, params)

    raw = {
        (OPTIMIST, PESSIMIST): transition_rate(OPTIMIST, PESSIMIST, counts, u1, params) * dt,
        (PESSIMIST, OPTIMIST): transition_rate(PESSIMIST, OPTIMIST, counts, u1, params) * dt,
        (OPTIMIST, FUNDAMENTALIST): transition_rate(OPTIMIST, FUNDAMENTALIST, counts, u21_c, params) * dt,
        (FUNDAMENTALIST, OPTIMIST): transition_rate(FUNDAMENTALIST, OPTIMIST, counts, u21_f, params) * dt,
        (PESSIMIST, FUNDAMENTALIST): transition_rate(PESSIMIST, FUNDAMENTALIST, counts, u22_c, params) * dt,
        (FUNDAMENTALIST, PESSIMIST): transition_rate(FUNDAMENTALIST, PESSIMIST, counts, u22_f, params) * dt,
    }
    return counts, raw, {pair: min(max(v, 0.0), 1.0) for pair, v in raw.items()}


def reference_sweep(pop, market, params, rng, only=None) -> SwitchStats:
    """One synchronous sweep, mask by mask; replaces `pop.types` by a new array."""
    stats = SwitchStats()
    if len(pop.types) == 0:
        return stats
    counts, raw, prob = reference_probabilities(pop, market, params)
    n = counts.total
    stats.clamped = sum(1 for v in raw.values() if v > 1.0)

    frozen_f = counts.n_f / n < MIN_GROUP_FRACTION
    frozen_plus = counts.n_plus / n < MIN_GROUP_FRACTION
    frozen_minus = counts.n_minus / n < MIN_GROUP_FRACTION

    types = pop.types
    u = rng.random(n)
    new_types = types.copy()

    if not frozen_plus:
        is_o = types == OPTIMIST
        p1 = prob[(OPTIMIST, PESSIMIST)]
        p2 = prob[(OPTIMIST, FUNDAMENTALIST)]
        new_types[is_o & (u < p1)] = PESSIMIST
        new_types[is_o & (u >= p1) & (u < p1 + p2)] = FUNDAMENTALIST
    if not frozen_minus:
        is_p = types == PESSIMIST
        p1 = prob[(PESSIMIST, OPTIMIST)]
        p2 = prob[(PESSIMIST, FUNDAMENTALIST)]
        new_types[is_p & (u < p1)] = OPTIMIST
        new_types[is_p & (u >= p1) & (u < p1 + p2)] = FUNDAMENTALIST
    if not frozen_f:
        is_f = types == FUNDAMENTALIST
        p1 = prob[(FUNDAMENTALIST, OPTIMIST)]
        p2 = prob[(FUNDAMENTALIST, PESSIMIST)]
        new_types[is_f & (u < p1)] = OPTIMIST
        new_types[is_f & (u >= p1) & (u < p1 + p2)] = PESSIMIST

    if only is not None:
        allowed = np.zeros(n, dtype=bool)
        allowed[np.asarray(only, dtype=int)] = True
        new_types = np.where(allowed, new_types, types)

    stats.switches = int(np.count_nonzero(new_types != types))
    pop.types = new_types
    return stats


def population(types) -> Population:
    n = len(types)
    return Population(types, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))


@st.composite
def populations(draw):
    """Shuffled type arrays whose groups are often tiny: empty, frozen (below
    0.8%), exactly at 0.8%, or just above it."""
    n = draw(st.sampled_from([1, 2, 7, 125, 250, 500, 1000]) | st.integers(1, 700))
    edge = st.sampled_from([0, 1, 3, 4, 5, 8, 9])  # 4/500 and 8/1000 sit exactly at 0.8%
    n_f = min(n, draw(edge | st.integers(0, n)))
    n_plus = min(n - n_f, draw(edge | st.integers(0, n - n_f)))
    types = np.array([FUNDAMENTALIST] * n_f + [OPTIMIST] * n_plus
                     + [PESSIMIST] * (n - n_f - n_plus), dtype=np.int8)
    np.random.default_rng(draw(st.integers(0, 2**32 - 1))).shuffle(types)
    return types


markets = st.builds(
    MarketView,
    p=st.floats(50.0, 1000.0),
    p_f=st.floats(50.0, 1000.0),
    trend_f=st.floats(-20.0, 20.0),
    trend_c=st.floats(-20.0, 20.0),
)
# rates from far below to far above 1 per step (dt = 0.01), so that single
# probabilities clamp and a type's two probabilities can sum past 1
params = st.builds(SimConfig, v1=st.floats(0.1, 500.0), v2=st.floats(0.1, 500.0))


class FixedDraws:
    """Stands in for a generator whose next `random(n)` returns the given draws."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u


def edge_draws(pop, market, params, rng) -> np.ndarray:
    """Draws on or just below each agent's thresholds p1 and p1 + p2, where a
    strict and a non-strict comparison part ways."""
    _, _, prob = reference_probabilities(pop, market, params)
    targets = {FUNDAMENTALIST: (OPTIMIST, PESSIMIST), OPTIMIST: (PESSIMIST, FUNDAMENTALIST),
               PESSIMIST: (OPTIMIST, FUNDAMENTALIST)}
    u = np.empty(len(pop.types))
    for i, kind in enumerate(pop.types.tolist()):
        p1 = prob[(kind, targets[kind][0])]
        reach = p1 + prob[(kind, targets[kind][1])]
        edges = [0.0, p1, np.nextafter(p1, 0.0), reach, np.nextafter(reach, 0.0)]
        u[i] = min(edges[rng.integers(len(edges))], np.nextafter(1.0, 0.0))
    return u


@settings(max_examples=300, deadline=None)
@given(types=populations(), market=markets, sparams=params, seed=st.integers(0, 2**32 - 1),
       only=st.none() | st.lists(st.integers(0, 10**6), max_size=5),
       draws=st.sampled_from(["rng", "given", "edges"]))
def test_sweep_matches_reference(types, market, sparams, seed, only, draws):
    n = len(types)
    if only is not None:
        only = [i % n for i in only]
    expected_pop, pop = population(types.copy()), population(types.copy())
    if draws == "edges":
        u = edge_draws(pop, market, sparams, np.random.default_rng(seed))
    else:
        u = np.random.default_rng(seed).random(n)
    expected = reference_sweep(expected_pop, market, sparams, FixedDraws(u), only=only)

    if draws == "rng":
        stats = switch_sweep(pop, market, sparams, np.random.default_rng(seed), only=only)
    else:
        stats = switch_sweep(pop, market, sparams, np.random.default_rng(0), only=only,
                             counts=pop.counts(), uniforms=u)

    np.testing.assert_array_equal(pop.types, expected_pop.types)
    assert (stats.switches, stats.clamped) == (expected.switches, expected.clamped)
    assert stats.counts == expected_pop.counts()


def test_rate_of_exactly_one_is_not_clamped():
    # equal chartist camps at a flat market give zero signals, so the
    # chartist-pair rate is v1 * 1.0 * 1.0 * dt = 1.0 exactly: a probability
    # of 1 that no clamp touched
    types = np.array([OPTIMIST, PESSIMIST] * 250, dtype=np.int8)
    market = MarketView(p=300.0, p_f=300.0, trend_f=0.0, trend_c=0.0)
    exact = SimConfig(v1=100.0)
    _, raw, _ = reference_probabilities(population(types), market, exact)
    assert raw[(OPTIMIST, PESSIMIST)] == raw[(PESSIMIST, OPTIMIST)] == 1.0
    stats = switch_sweep(population(types.copy()), market, exact, np.random.default_rng(2))
    assert stats.clamped == 0
    assert stats.switches == 500


def test_rate_overflowing_to_inf_clamps_like_the_reference():
    # a rate past the largest double is inf, which the clamps must take to a
    # probability of 1, as min(max(v, 0.0), 1.0) does
    types = np.array([OPTIMIST] * 400 + [PESSIMIST] * 60 + [FUNDAMENTALIST] * 40, dtype=np.int8)
    np.random.default_rng(3).shuffle(types)
    market = MarketView(p=300.0, p_f=310.0, trend_f=5.0, trend_c=5.0)
    huge = SimConfig(v1=1.5e308, v2=1.5e308)
    _, raw, _ = reference_probabilities(population(types), market, huge)
    assert raw[(PESSIMIST, OPTIMIST)] == np.inf
    expected_pop, pop = population(types.copy()), population(types.copy())
    expected = reference_sweep(expected_pop, market, huge, np.random.default_rng(4))
    stats = switch_sweep(pop, market, huge, np.random.default_rng(4))
    np.testing.assert_array_equal(pop.types, expected_pop.types)
    assert (stats.switches, stats.clamped) == (expected.switches, expected.clamped) == (500, 6)


def test_sweep_covers_frozen_clamped_and_overfull_cases():
    # exactly 0.8% fundamentalists may leave; below it they may not; with
    # huge rates every unfrozen agent moves and both chartist pairs clamp
    hot = SimConfig(v1=500.0, v2=500.0)
    market = MarketView(p=300.0, p_f=300.0, trend_f=0.0, trend_c=0.0)
    for n_f, frozen in ((4, False), (3, True)):
        types = np.array([FUNDAMENTALIST] * n_f + [OPTIMIST] * 248 + [PESSIMIST] * (500 - 248 - n_f),
                         dtype=np.int8)
        expected_pop, pop = population(types.copy()), population(types.copy())
        expected = reference_sweep(expected_pop, market, hot, np.random.default_rng(1))
        stats = switch_sweep(pop, market, hot, np.random.default_rng(1))
        np.testing.assert_array_equal(pop.types, expected_pop.types)
        assert (stats.switches, stats.clamped) == (expected.switches, expected.clamped)
        assert stats.clamped >= 2
        assert (pop.types[:n_f] == FUNDAMENTALIST).all() == frozen
        assert stats.switches >= 496


def test_block_draws_match_per_sweep_draws():
    # the engine draws k sweeps of n uniforms at once; the stream must be the
    # one k separate draws of n give
    for n, k in ((500, 64), (137, 5), (1, 3)):
        block = np.random.default_rng(42).random(n * k)
        rng = np.random.default_rng(42)
        separate = np.concatenate([rng.random(n) for _ in range(k)])
        np.testing.assert_array_equal(block, separate)


@settings(max_examples=60, deadline=None)
@given(types=populations(), markets_=st.lists(markets, min_size=1, max_size=4), sparams=params,
       seed=st.integers(0, 2**32 - 1))
def test_kernel_at_block_offsets_matches_row_sweeps(types, markets_, sparams, seed):
    # the engine draws k sweeps of n uniforms into one flat buffer and hands
    # the kernel a view of it with each sweep's row offset
    n, k = len(types), len(markets_)
    block = np.random.default_rng(seed).random(n * k)
    expected_pop = population(types.copy())
    kinds = types.copy()
    counts = expected_pop.counts()
    draws = memoryview(block)
    for row, market in enumerate(markets_):
        expected = reference_sweep(expected_pop, market, sparams,
                                   FixedDraws(block[row * n : (row + 1) * n]))
        switches, clamped, counts = apply_switching(
            memoryview(kinds), *counts, *market, sparams, draws, row * n)
        np.testing.assert_array_equal(kinds, expected_pop.types)
        assert (switches, clamped) == (expected.switches, expected.clamped)
        assert counts == expected_pop.counts()
