"""Tests for the trading loop: filters, settlement, conservation, determinism."""

import concurrent.futures
import dataclasses
import gc
import os
import threading
import weakref
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from market_abm import engine
from market_abm.book import OrderBook, Side, Trade
from market_abm.config import SimConfig
from market_abm.engine import (
    check_escrow,
    circuit_breaker,
    enforce_budget,
    run_seeds,
    run_simulation,
    settle_trade,
)
from market_abm.population import Population

from oracles import Order

TICK = 0.0005


def small_config(**kw):
    defaults = dict(steps=5000, seed=11)
    defaults.update(kw)
    return SimConfig(**defaults)


def ticks_at(price):
    return int(round(price / TICK))


def order_at(agent, side, price, horizon=100):
    return Order(agent_id=agent, side=side, ticks=ticks_at(price), horizon=horizon)


def run_scripted(monkeypatch, p0, orders, **config):
    """A short run of a chartist-only market whose trader at step t submits
    the t-th (side, price) of `orders` in place of its own decision; the band
    stays anchored at p0. Chartists price their orders through decide_order,
    which the script replaces by the (side, ticks) of each price."""
    script = iter(orders)

    def scripted(expectation, p, k, tick):
        side, price = next(script)
        return side, ticks_at(price)

    monkeypatch.setattr(engine, "decide_order", scripted)
    cfg = small_config(steps=len(orders), p0=p0, switch_mode="off", init_frac_f=0.0,
                       init_frac_opt=1.0, **config)
    assert cfg.steps < cfg.steps_per_period
    out = run_simulation(cfg, lob_snapshot_steps=[cfg.steps])
    assert next(script, None) is None  # every step traded from the script
    return out


class TestCircuitBreaker:
    def test_above_band_rejected(self, monkeypatch):
        out = run_scripted(monkeypatch, 100.0, [(Side.SELL, 115.0005), (Side.BUY, 115.0005)])
        assert out.rejections["band"] == 2
        assert out.lob_snapshots[2] == []

    def test_boundary_inclusive(self, monkeypatch):
        # At the first two anchors a limit lands exactly on a grid price. At
        # p0 = 100 the upper limit 100 * 1.15 rounds to 114.99999999999999,
        # so only the relative slack keeps the order at 115.0 in the band.
        assert circuit_breaker(99.9999999999, 0.15)[1] == 115.0
        assert circuit_breaker(100.0000000001, 0.15)[0] == 85.0
        for p0 in (99.9999999999, 100.0000000001, 100.0):
            out = run_scripted(monkeypatch, p0, [(Side.BUY, 85.0), (Side.SELL, 115.0)])
            assert out.rejections["band"] == 0
            assert out.lob_snapshots[2] == [(85.0, 1), (115.0, -1)]

    def test_below_band_rejected(self, monkeypatch):
        out = run_scripted(monkeypatch, 100.0, [(Side.BUY, 84.9995), (Side.SELL, 84.9995)])
        assert out.rejections["band"] == 2
        assert out.lob_snapshots[2] == []

    def test_bad_reference(self):
        with pytest.raises(ValueError):
            circuit_breaker(0.0, 0.15)


class TestSelfTrade:
    # a lone agent's sell meets its own resting bid
    ORDERS = [(Side.BUY, 100.0), (Side.SELL, 100.0)]

    def test_rejected_unless_allowed(self, monkeypatch):
        out = run_scripted(monkeypatch, 100.0, self.ORDERS, n_agents=1)
        assert out.rejections["self_cross"] == 1
        assert len(out.trades) == 0
        assert out.lob_snapshots[2] == [(100.0, 1)]


class TestEnforceBudget:
    def test_no_cash_buy_rejected(self):
        book = OrderBook(TICK, 10)
        assert enforce_budget(Side.BUY, ticks_at(279.0), book, 0, 5) is False

    def test_no_shares_sell_rejected(self):
        book = OrderBook(TICK, 10)
        assert enforce_budget(Side.SELL, ticks_at(310.0), book, 10**9, 0) is False

    def test_resting_buy_checked_against_reservation(self):
        book = OrderBook(TICK, 10)
        assert enforce_budget(Side.BUY, ticks_at(279.0), book, ticks_at(300.0), 0) is True

    def test_marketable_buy_checked_against_best_ask(self):
        book = OrderBook(TICK, 10)
        book.submit(*order_at(9, Side.SELL, 300.0), 1)
        # reservation 310 but it would execute at 300: cash for 300 suffices
        buy = (Side.BUY, ticks_at(310.0))
        assert enforce_budget(*buy, book, ticks_at(305.0), 0) is True
        assert enforce_budget(*buy, book, ticks_at(295.0), 0) is False


class TestSettleTrade:
    def make_pop(self):
        return Population.initial(2, frac_f=1.0, frac_opt=0.0, cash=1000.0, shares=2,
                                  tick_size=TICK)

    def trade(self, price=300.0):
        ticks = int(round(price / TICK))
        return Trade(step=1, ticks=ticks, buyer_id=0, seller_id=1, aggressor=Side.BUY)

    def test_moves_cash_and_share(self):
        pop = self.make_pop()
        settle_trade(pop.cash_ticks, pop.shares, self.trade(300.0))
        assert pop.cash_ticks[0] == round(700.0 / TICK)
        assert pop.cash_ticks[1] == round(1300.0 / TICK)
        assert pop.shares[0] == 3 and pop.shares[1] == 1

    def test_totals_conserved(self):
        pop = self.make_pop()
        settle_trade(pop.cash_ticks, pop.shares, self.trade(299.9995))
        assert pop.cash_ticks.sum() == 2 * round(1000.0 / TICK)
        assert pop.shares.sum() == 4

    def test_violated_preconditions_abort(self):
        pop = self.make_pop()
        pop.cash_ticks[0] = 10
        with pytest.raises(RuntimeError):
            settle_trade(pop.cash_ticks, pop.shares, self.trade(300.0))
        pop = self.make_pop()
        pop.shares[1] = 0
        with pytest.raises(RuntimeError):
            settle_trade(pop.cash_ticks, pop.shares, self.trade(300.0))


class TestEscrow:
    def make_book(self):
        book = OrderBook(TICK, 3)
        book.submit(*order_at(0, Side.BUY, 299.0), 1)
        book.submit(*order_at(0, Side.BUY, 298.5), 1)
        book.submit(*order_at(1, Side.SELL, 301.0), 1)
        book.submit(*order_at(1, Side.SELL, 301.0), 2)
        return book

    BIDS_0 = int(round(299.0 / TICK)) + int(round(298.5 / TICK))

    def test_consistent_ledger_passes(self):
        book = self.make_book()
        assert (book.pledged_cash, book.pledged_shares) == ([self.BIDS_0, 0, 0], [0, 2, 0])
        check_escrow(book)
        check_escrow(OrderBook(TICK, 2))

    def test_corrupted_ledger_trips(self):
        for cash, shares in (
            ([self.BIDS_0 - 1, 0, 0], [0, 2, 0]),  # one tick short
            ([self.BIDS_0, 1, 0], [0, 2, 0]),  # cash pledged by an agent without bids
            ([self.BIDS_0, 0, 0], [0, 1, 0]),  # one ask not escrowed
            ([self.BIDS_0, 0, 0], [1, 2, 0]),  # a share held back for no ask
        ):
            book = self.make_book()
            book.pledged_cash[:], book.pledged_shares[:] = cash, shares
            with pytest.raises(RuntimeError, match="escrow"):
                check_escrow(book)

    def test_run_trips_when_expiries_go_unreleased(self, monkeypatch):
        # a book that drops expired orders but keeps their pledges leaves stale escrow
        expire = OrderBook.expire

        def expire_without_release(self, t):
            cash, shares = self.pledged_cash[:], self.pledged_shares[:]
            expire(self, t)
            self.pledged_cash[:], self.pledged_shares[:] = cash, shares

        monkeypatch.setattr(OrderBook, "expire", expire_without_release)
        with pytest.raises(RuntimeError, match="escrow"):
            run_simulation(small_config(steps=1000))


@settings(max_examples=30, deadline=None)
@given(
    n_agents=st.integers(1, 40),
    steps=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
    switch_mode=st.sampled_from(["all_agents", "off"]),
    horizon=st.integers(1, 120),
    init_cash=st.sampled_from([300.0, 1000.0, 10_000.0]),
    init_shares=st.integers(0, 3),
)
def test_small_runs_keep_escrow(n_agents, steps, seed, switch_mode, horizon, init_cash,
                                init_shares):
    # run_simulation checks the escrow at the end of every run
    cfg = SimConfig(
        n_agents=n_agents, steps=steps, seed=seed, switch_mode=switch_mode,
        horizon_c=horizon, horizon_f=2 * horizon, init_cash=init_cash, init_shares=init_shares,
    )
    out = run_simulation(cfg)
    assert len(out.records) == steps


class TestTradeStreams:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 500, 2**31 + 1, 2**32 - 1, 2**32])
    def test_block_draws_equal_scalar_draws(self, n):
        # the trader pick, the expectation noise and the reservation offset
        # come from three streams spawned off the trade stream; drawn in
        # blocks, each must read as one scalar draw per step. n = 2**31 + 1
        # rejects about half of its 32-bit draws, 2**32 takes them whole and
        # 1 takes none.
        def streams():
            trade_ss = np.random.SeedSequence(n).spawn(3)[2]
            return [np.random.default_rng(ss) for ss in trade_ss.spawn(3)]

        for block in (1, 7, engine._TRADE_BLOCK):
            (pick, noise, offset), (pick1, noise1, offset1) = streams(), streams()
            steps, blocks = 2 * block + 3, range(2 + -(-3 // block))  # ends inside a block
            picks = np.concatenate([pick.integers(n, size=block) for _ in blocks])[:steps]
            normals = np.concatenate([noise.standard_normal(block) for _ in blocks])[:steps]
            exps = np.concatenate([offset.standard_exponential(block) for _ in blocks])[:steps]
            assert picks.tolist() == [pick1.integers(n) for _ in range(steps)]
            assert normals.tolist() == [noise1.standard_normal() for _ in range(steps)]
            assert exps.tolist() == [offset1.standard_exponential() for _ in range(steps)]

    def test_run_does_not_depend_on_the_block_length(self, monkeypatch):
        # two blocks of the default length and a part of a third, which also
        # ends the block's fundamentalist pricing tables short; in the
        # switching market and in the fundamentalist-only one
        default = engine._TRADE_BLOCK
        for market in (dict(init_frac_f=0.15, init_frac_opt=0.425),
                       dict(init_frac_f=1.0, init_frac_opt=0.0, switch_mode="off")):
            cfg = small_config(steps=2 * default + 300, init_cash=450.0, init_shares=1,
                               **market)
            runs = []
            for block in (1, 7, default):
                monkeypatch.setattr(engine, "_TRADE_BLOCK", block)
                runs.append(run_simulation(cfg))
            assert len(runs[0].trades) > 0
            for other in runs[1:]:
                for name in engine.STEP_COLUMNS:
                    assert getattr(other.records, name).tobytes() == \
                        getattr(runs[0].records, name).tobytes(), (market, name)
                for name in engine.TRADE_COLUMNS:
                    assert getattr(other.trades, name).tobytes() == \
                        getattr(runs[0].trades, name).tobytes(), (market, name)


class TestRunSimulation:
    def test_zero_steps(self):
        out = run_simulation(small_config(steps=0))
        assert len(out.records) == 0
        assert len(out.trades) == 0
        assert (out.final_population.cash_ticks == round(10_000.0 / TICK)).all()
        assert (out.final_population.shares == 10).all()

    def test_record_completeness(self):
        out = run_simulation(small_config(steps=1200))
        assert len(out.records) == 1200
        assert out.records.step[0] == 1
        assert (np.diff(out.records.step) == 1).all()
        assert np.isfinite(out.records.price).all()
        assert (out.records.price > 0).all()

    def test_determinism_bit_exact(self):
        a = run_simulation(small_config())
        b = run_simulation(small_config())
        for name in ("price", "spread", "depth", "n_f", "trade_price"):
            np.testing.assert_array_equal(getattr(a.records, name), getattr(b.records, name))
        np.testing.assert_array_equal(a.trades.price, b.trades.price)
        np.testing.assert_array_equal(a.trades.buyer_id, b.trades.buyer_id)
        assert a.rejections == b.rejections
        for name in ("cash_ticks", "shares", "types"):
            np.testing.assert_array_equal(getattr(a.final_population, name),
                                          getattr(b.final_population, name))

    def test_conservation_exact(self):
        cfg = small_config(steps=20_000)
        out = run_simulation(cfg)
        pop = out.final_population
        assert pop.cash_ticks.sum() == cfg.n_agents * round(cfg.init_cash / cfg.tick)
        assert pop.shares.sum() == cfg.n_agents * cfg.init_shares
        assert pop.shares.min() >= 0
        assert pop.cash_ticks.min() >= 0

    def test_trade_prices_respect_band(self):
        cfg = small_config(steps=30_000, seed=2)
        out = run_simulation(cfg)
        closes = np.concatenate([[cfg.p0], out.records.price[cfg.steps_per_period - 1 :: cfg.steps_per_period]])
        for step, price in zip(out.trades.step, out.trades.price):
            ref = closes[(step - 1) // cfg.steps_per_period]
            assert price <= ref * 1.15 * (1 + 1e-9)
            assert price >= ref * 0.85 * (1 - 1e-9)

    def test_population_counts_consistent(self):
        out = run_simulation(small_config(steps=3000))
        totals = out.records.n_f + out.records.n_plus + out.records.n_minus
        assert (totals == 500).all()

    def test_homogeneous_market_tracks_fundamental(self):
        cfg = small_config(
            steps=50_000, switch_mode="off", init_frac_f=1.0, init_frac_opt=0.0, seed=5
        )
        out = run_simulation(cfg)
        r = out.records
        assert (r.n_plus == 0).all() and (r.n_minus == 0).all()
        rel = np.abs(r.price - r.fundamental_value) / r.fundamental_value
        # fundamentalist-only markets stay pinned to the fundamental value
        assert np.quantile(rel, 0.99) < 0.10
        assert rel.max() < 0.20

    def test_switching_disabled_freezes_population(self):
        # chartists are present, and none of the 500 agents moves
        out = run_simulation(small_config(steps=2000, switch_mode="off"))
        r = out.records
        assert out.switch_count == 0
        assert (r.n_plus[0], r.n_minus[0]) == (125, 125)
        for counts in (r.n_f, r.n_plus, r.n_minus):
            assert (counts == counts[0]).all()

    def test_lob_snapshots(self):
        out = run_simulation(small_config(steps=500), lob_snapshot_steps=[250, 500])
        assert set(out.lob_snapshots) == {250, 500}
        for rows in out.lob_snapshots.values():
            prices = [p for p, _ in rows]
            assert prices == sorted(prices)

    def test_lob_snapshot_steps_outside_the_run_are_rejected(self):
        for bad in ([0], [501], [-3, 250, 501]):
            with pytest.raises(ValueError, match=r"outside 1\.\.500"):
                run_simulation(small_config(steps=500), lob_snapshot_steps=bad)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(small_config(steps_per_period=0))
        with pytest.raises(ValueError):
            run_simulation(small_config(gamma_c=2.0))  # gamma_f must exceed gamma_c


def ensemble(cfg, seeds, workers=1):
    """The runs of `run_seeds` in the order they arrive; none may fail."""
    runs = []
    for seed, run, seconds in run_seeds(cfg, seeds, workers):
        assert not isinstance(run, Exception), f"seed {seed}: {run!r}"
        assert run.seed == seed and seconds > 0.0
        runs.append(run)
    return runs


class TestRunEnsemble:
    def test_matches_individual_runs(self):
        cfg = small_config(steps=2000)
        runs = ensemble(cfg, [3, 4])
        assert [out.seed for out in runs] == [3, 4]
        for out in runs:
            solo = run_simulation(dataclasses.replace(cfg, seed=out.seed))
            np.testing.assert_array_equal(out.records.price, solo.records.price)

    def test_seed_order_irrelevant(self):
        cfg = small_config(steps=1500)
        forward = ensemble(cfg, [1, 2])
        backward = ensemble(cfg, [2, 1])
        assert [out.seed for out in backward] == [2, 1]
        np.testing.assert_array_equal(forward[0].records.price, backward[1].records.price)
        np.testing.assert_array_equal(forward[1].records.price, backward[0].records.price)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            next(run_seeds(small_config(), [1, 1]))

    def test_parallel_matches_serial(self):
        cfg = small_config(steps=1500)
        serial = ensemble(cfg, [5, 6], workers=1)
        parallel = sorted(ensemble(cfg, [5, 6], workers=2), key=lambda out: out.seed)
        for a, b in zip(serial, parallel, strict=True):
            assert a.seed == b.seed
            np.testing.assert_array_equal(a.records.price, b.records.price)

    def test_failed_run_is_yielded_in_its_place(self, monkeypatch):
        real = engine.run_simulation

        def flaky(config, lob_snapshot_steps=()):
            if config.seed == 2:
                raise FloatingPointError("seed 2 broke")
            return real(config, lob_snapshot_steps)

        monkeypatch.setattr(engine, "run_simulation", flaky)
        for workers in (1, 2):
            outcomes = {seed: run for seed, run, _ in
                        run_seeds(small_config(steps=300), [1, 2, 3], workers)}
            assert sorted(outcomes) == [1, 2, 3]
            assert isinstance(outcomes[2], FloatingPointError)
            assert str(outcomes[2]) == "seed 2 broke"
            assert outcomes[1].seed == 1 and outcomes[3].seed == 3

    def test_dead_worker_fails_its_seeds(self, monkeypatch):
        # a worker that dies breaks the pool: every seed still comes back
        # once, those the pool lost as BrokenProcessPool with no time, and the
        # generator ends instead of waiting on the lost runs
        real = engine.run_simulation

        def dying(config, lob_snapshot_steps=()):
            if config.seed == 2:
                os._exit(3)
            return real(config, lob_snapshot_steps)

        monkeypatch.setattr(engine, "run_simulation", dying)
        outcomes = []
        consumer = threading.Thread(daemon=True, target=lambda: outcomes.extend(
            run_seeds(small_config(steps=300), [1, 2, 3], workers=2)))
        consumer.start()
        consumer.join(timeout=60)
        assert not consumer.is_alive(), "run_seeds still waits on the broken pool"
        assert sorted(seed for seed, _, _ in outcomes) == [1, 2, 3]
        failed = {seed for seed, run, seconds in outcomes
                  if isinstance(run, BrokenProcessPool) and seconds is None}
        assert 2 in failed
        for seed, run, seconds in outcomes:
            if seed not in failed:
                assert run.seed == seed and seconds > 0.0

    def test_pool_holds_no_run_once_yielded(self):
        # each run must be freed as soon as its caller lets it go, before the
        # next one is handed over
        cfg = small_config(steps=1500)
        seen = []
        for seed, run, _ in run_seeds(cfg, [1, 2, 3, 4], workers=2):
            ref = weakref.ref(run)
            del run
            gc.collect()
            assert ref() is None, f"seed {seed} is still referenced"
            seen.append(seed)
        assert sorted(seen) == [1, 2, 3, 4]

    @pytest.mark.parametrize("workers, seeds, pool_size", [
        (8, [1, 2], 2), (2, [1, 2, 3], 2), (3, [4], 1),
    ])
    def test_pool_is_no_larger_than_the_seed_list(self, monkeypatch, workers, seeds, pool_size):
        # a forked pool starts every worker at the first submit, so the pool
        # size is the process count; this fake runs each task in the caller
        sizes = []

        class InThreadExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(engine.concurrent.futures, "ProcessPoolExecutor", InThreadExecutor)
        cfg = small_config(steps=200)
        runs = ensemble(cfg, seeds, workers)
        assert sizes == [pool_size]
        assert sorted(out.seed for out in runs) == sorted(seeds)

    def test_no_seeds_start_no_pool(self, monkeypatch):
        # calling it would raise
        monkeypatch.setattr(engine.concurrent.futures, "ProcessPoolExecutor", None)
        assert list(run_seeds(small_config(), [], workers=4)) == []
