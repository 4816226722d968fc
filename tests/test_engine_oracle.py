"""The step loop against its reference.

`run_simulation` computes the trader's expectation, its reservation offset,
the budget filter and the price proxy inline, and purges out-of-band levels
by bisection. `oracles.reference_run` is the loop that calls the step
helpers (`expected_price`, `draw_k`, `decide_order`, `enforce_budget`,
`current_price`) and scans every level to purge. Both must produce the same
run bit for bit, or raise the same error.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from market_abm import engine
from market_abm.book import NO_TICK
from market_abm.config import SimConfig
from market_abm.engine import STEP_COLUMNS, TRADE_COLUMNS, run_simulation
from market_abm.population import Population

import oracles
from oracles import reference_run


def outcome(run, config, snapshots):
    """The run's output, or the type and message of the error it raised."""
    try:
        return run(config, snapshots)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_same_run(a, b):
    """Equal bit for bit: every step and trade column (so NaN equals NaN),
    the counters, the final holdings and opinions, and the book snapshots."""
    for name in STEP_COLUMNS:
        col_a, col_b = getattr(a.records, name), getattr(b.records, name)
        assert col_a.dtype == col_b.dtype and col_a.tobytes() == col_b.tobytes(), name
    for name in TRADE_COLUMNS:
        col_a, col_b = getattr(a.trades, name), getattr(b.trades, name)
        assert col_a.dtype == col_b.dtype and col_a.tobytes() == col_b.tobytes(), name
    assert a.rejections == b.rejections
    assert (a.switch_count, a.clamp_events) == (b.switch_count, b.clamp_events)
    for name in ("types", "cash_ticks", "shares"):
        assert getattr(a.final_population, name).tobytes() == \
            getattr(b.final_population, name).tobytes(), name
    assert a.lob_snapshots == b.lob_snapshots


@st.composite
def configs(draw):
    """Small markets over many trading periods, with every loop branch in reach."""
    spp = draw(st.sampled_from([2, 5, 10, 25]))
    steps = draw(st.integers(1, 40 * spp))
    # A coarse grid on a low price makes reservations that floor at one tick
    # or round to none. A grid of 1e-12 (1e-15 at a price of 1) puts a
    # price's last bits into its ticks, so an expectation rounded differently
    # shows in the orders.
    p0, tick = draw(st.sampled_from([(300.0, 0.0005), (300.0, 1e-12), (1.0, 1e-15),
                                     (300.0, 0.01), (1.0, 0.01), (1.0, 0.5)]))
    frac_f = draw(st.sampled_from([1.0, 0.7, 0.3, 0.0]))
    switch_mode = draw(st.sampled_from(["off", "all_agents"]))
    config = SimConfig(
        n_agents=draw(st.sampled_from([40, 12, 2, 1])),
        steps=steps,
        steps_per_period=spp,
        sigma_eps=draw(st.sampled_from([0.05, 0.005, 0.2, 0.0])),
        k_scale=draw(st.sampled_from([1e-3, 0.02, 0.1])),
        tick=tick,
        p0=p0,
        pf0=p0 * draw(st.sampled_from([0.9, 1.0, 1.1])),
        gamma_c=draw(st.sampled_from([0.01, 0.1, 0.9])),
        horizon_f=draw(st.integers(1, 3 * spp)),
        horizon_c=draw(st.integers(1, 2 * spp)),
        band=draw(st.sampled_from([0.6, 0.05, 0.15, 0.01, 0.001, 0.99])),
        init_frac_f=frac_f,
        init_frac_opt=(1.0 - frac_f) * draw(st.sampled_from([0.0, 0.5, 1.0])),
        init_cash=p0 * draw(st.sampled_from([100.0, 5.0, 1.5, 0.5])),  # total ticks < 2**63
        init_shares=draw(st.sampled_from([10, 1, 0])),
        switch_mode=switch_mode,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    snapshots = draw(st.lists(st.integers(1, steps), max_size=3, unique=True))
    return config, snapshots


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_inlined_loop_matches_reference(drawn):
    config, snapshots = drawn
    new = outcome(run_simulation, config, snapshots)
    old = outcome(reference_run, config, snapshots)
    if isinstance(old, tuple):
        # the one error a drawn config meets: both fractions rounded up
        assert new == old == (ValueError, "initial fractions exceed 1")
    else:
        assert_same_run(new, old)


@pytest.mark.parametrize("band, tick", [(0.15, 0.0005), (0.01, 0.0005), (0.15, 1e-12)])
def test_desk_runs_match_reference(band, tick):
    # the recipe's two markets, long enough to purge a deep book many times
    for frac_f, frac_opt, switch_mode in ((0.15, 0.425, "all_agents"), (1.0, 0.0, "off")):
        config = SimConfig(steps=3000, init_frac_f=frac_f, init_frac_opt=frac_opt, band=band,
                           tick=tick, init_cash=450.0, init_shares=1,
                           switch_mode=switch_mode, seed=5)
        assert_same_run(run_simulation(config, [1500, 3000]), reference_run(config, [1500, 3000]))


# The checks expected_price and current_price made on the loop's inputs,
# which the loop keeps: each raises as the reference raises.


def test_non_positive_fundamental_value_is_refused(monkeypatch):
    # an underflowing fundamental path can reach 0.0 from a valid config
    def path_with_zero(p0, sigma_eps, dt, n_steps, rng):
        path = np.full(n_steps + 1, p0)
        path[7] = 0.0
        return path

    config = SimConfig(steps=20, n_agents=5, seed=1)
    for module in (engine, oracles):
        monkeypatch.setattr(module, "fundamental_path", path_with_zero)
    for run in (run_simulation, reference_run):
        with pytest.raises(ValueError, match="prices must be > 0"):
            run(config)


def test_unknown_agent_type_is_refused(monkeypatch):
    class Unknown(Population):
        @classmethod
        def initial(cls, **kw):
            pop = Population.initial(**kw)
            pop.types[:] = 7
            return pop

    config = SimConfig(steps=20, n_agents=5, switch_mode="off", seed=1)
    for module in (engine, oracles):
        monkeypatch.setattr(module, "Population", Unknown)
    for run in (run_simulation, reference_run):
        with pytest.raises(ValueError, match="unknown agent type 7"):
            run(config)


def test_non_positive_price_is_refused(monkeypatch):
    # no book the loop builds quotes like these; the check is the last guard
    # before the analytics take logs of the prices. The loop reads the
    # published level lists, the reference quote_ticks, which reads the same.
    class BadQuotes(engine.OrderBook):
        def __init__(self, tick_size, n_agents):
            super().__init__(tick_size, n_agents)
            self.bid_levels.append(-4)
            self.ask_levels.append(2)

        def submit(self, agent_id, side, ticks, horizon, t):
            return None

    assert BadQuotes(1.0, 1).quote_ticks() == (-4, 2, NO_TICK, NO_TICK, 0)
    config = SimConfig(steps=20, n_agents=5, seed=1)
    for module in (engine, oracles):
        monkeypatch.setattr(module, "OrderBook", BadQuotes)
    for run in (run_simulation, reference_run):
        with pytest.raises(FloatingPointError, match="non-positive price at step 1: -0.0005"):
            run(config)
