"""Tests for the double-auction book: matching, expiry, quotes, statistics."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from market_abm.book import NO_TICK, BookStats, OrderBook, OrderIntent, Side, current_price
from market_abm.engine import check_escrow

from oracles import NaiveBook, current_price_reference, order_price, resting_orders

TICK = 0.0005


def intent(agent, side, price, horizon=100):
    ticks = int(round(price / TICK))
    return OrderIntent(agent_id=agent, side=side, ticks=ticks, price=ticks * TICK, horizon=horizon)


def make_book(allow_self_trades=False):
    return OrderBook(tick_size=TICK, allow_self_trades=allow_self_trades)


class TestQuotes:
    def test_empty_book(self):
        book = make_book()
        assert book.best_bid() is None
        assert book.best_ask() is None

    def test_best_of_explicit_set(self):
        book = make_book()
        book.submit(intent(1, Side.BUY, 299.0), 1)
        book.submit(intent(2, Side.BUY, 298.0), 1)
        book.submit(intent(3, Side.SELL, 301.0), 1)
        assert book.best_bid() == pytest.approx(299.0)
        assert book.best_ask() == pytest.approx(301.0)

    def test_emptied_side(self):
        book = make_book()
        book.submit(intent(1, Side.SELL, 301.0), 1)
        trade, _ = book.submit(intent(2, Side.BUY, 301.0), 2)
        assert trade is not None
        assert book.best_ask() is None


class TestSubmit:
    def test_marketable_buy_executes_at_ask(self):
        book = make_book()
        book.submit(intent(1, Side.SELL, 301.0), 1)
        trade, rested = book.submit(intent(2, Side.BUY, 301.0), 2)
        assert rested is None
        assert trade.price == pytest.approx(301.0)
        assert trade.buyer_id == 2 and trade.seller_id == 1
        assert trade.aggressor == Side.BUY

    def test_non_crossing_buy_rests(self):
        book = make_book()
        book.submit(intent(1, Side.SELL, 301.0), 1)
        trade, rested = book.submit(intent(2, Side.BUY, 300.5), 2)
        assert trade is None
        assert rested is not None
        assert book.best_bid() == pytest.approx(300.5)

    def test_time_priority_at_same_price(self):
        book = make_book()
        book.submit(intent(1, Side.SELL, 301.0), 5)
        book.submit(intent(2, Side.SELL, 301.0), 9)
        trade, _ = book.submit(intent(3, Side.BUY, 302.0), 10)
        assert trade.seller_id == 1  # the older order matches first

    def test_marketable_sell_executes_at_bid(self):
        book = make_book()
        book.submit(intent(1, Side.BUY, 299.0), 1)
        trade, _ = book.submit(intent(2, Side.SELL, 298.0), 2)
        assert trade.price == pytest.approx(299.0)
        assert trade.aggressor == Side.SELL

    def test_self_cross_is_dropped_by_default(self):
        book = make_book()
        book.submit(intent(1, Side.SELL, 301.0), 1)
        trade, rested = book.submit(intent(1, Side.BUY, 302.0), 2)
        assert trade is None and rested is None
        assert book.self_trade_rejections == 1
        assert book.quote_ticks()[4] == 1  # the resting ask is untouched

    def test_self_cross_allowed_when_enabled(self):
        book = make_book(allow_self_trades=True)
        book.submit(intent(1, Side.SELL, 301.0), 1)
        trade, _ = book.submit(intent(1, Side.BUY, 302.0), 2)
        assert trade is not None
        assert trade.buyer_id == trade.seller_id == 1

    def test_no_cross_invariant_random_sequence(self):
        rng = np.random.default_rng(0)
        book = make_book()
        for t in range(1, 3000):
            book.expire(t)
            it = intent(
                int(rng.integers(50)),
                Side.BUY if rng.random() < 0.5 else Side.SELL,
                float(rng.uniform(280, 320)),
                horizon=int(rng.integers(10, 300)),
            )
            book.submit(it, t)
            bid, ask = book.best_bid(), book.best_ask()
            if bid is not None and ask is not None:
                assert bid < ask

    def test_grid_closure(self):
        rng = np.random.default_rng(1)
        book = make_book()
        for t in range(1, 500):
            it = intent(int(rng.integers(50)), Side.BUY if rng.random() < 0.5 else Side.SELL,
                        float(rng.uniform(280, 320)))
            book.submit(it, t)
        for order in resting_orders(book):
            assert order.ticks > 0
            price = order_price(order, TICK)
            assert abs(price / TICK - round(price / TICK)) < 1e-6


class TestExpire:
    def test_noop_without_expiries(self):
        book = make_book()
        book.submit(intent(1, Side.BUY, 299.0, horizon=100), 1)
        assert book.expire(50) == []
        assert book.quote_ticks()[4] == 1

    def test_boundary_inclusive(self):
        book = make_book()
        book.submit(intent(1, Side.BUY, 299.0, horizon=100), 1)
        removed = book.expire(101)
        assert len(removed) == 1
        assert book.quote_ticks()[4] == 0

    def test_mixed_expiries_match_set_difference(self):
        rng = np.random.default_rng(2)
        book = make_book()
        expected_alive = set()
        for i in range(200):
            t = i + 1
            horizon = int(rng.integers(5, 80))
            it = intent(i, Side.BUY if rng.random() < 0.5 else Side.SELL,
                        float(rng.uniform(200, 400)), horizon=horizon)
            _, rested = book.submit(it, t)
            if rested is not None:
                expected_alive.add((rested.order_id, rested.expires_at))
        cutoff = 120
        book.expire(cutoff)
        expected_alive = {oid for oid, exp in expected_alive if exp > cutoff}
        # some expected-alive orders may have traded; the live set must be a subset
        live = {o.order_id for o in resting_orders(book)}
        assert live <= expected_alive
        for order in resting_orders(book):
            assert order.expires_at > cutoff


def price_proxy(book, trade, previous_price):
    """The price proxy over the book's best quotes, as the step loop reads them."""
    bid, ask, _, _, _ = book.quote_ticks()
    got = current_price(trade, bid, ask, book.tick_size, previous_price)
    assert got == current_price_reference(book, trade, previous_price)
    return got


class TestCurrentPrice:
    # each case also asserts the proxy equals the reference that reads the
    # book itself, bit for bit

    def test_midpoint(self):
        book = make_book()
        book.submit(intent(1, Side.BUY, 299.0), 1)
        book.submit(intent(2, Side.SELL, 301.0), 1)
        assert price_proxy(book, None, 310.0) == pytest.approx(300.0)

    def test_trade_price_wins(self):
        book = make_book()
        book.submit(intent(1, Side.BUY, 299.0), 1)
        book.submit(intent(2, Side.SELL, 301.0), 1)
        trade, _ = book.submit(intent(3, Side.BUY, 301.0), 2)
        assert price_proxy(book, trade, 310.0) == pytest.approx(301.0)

    def test_empty_book_keeps_previous(self):
        book = make_book()
        assert price_proxy(book, None, 300.0) == pytest.approx(300.0)

    def test_one_sided_book_keeps_previous(self):
        book = make_book()
        book.submit(intent(1, Side.BUY, 299.0), 1)
        assert price_proxy(book, None, 305.0) == pytest.approx(305.0)
        other = make_book()
        other.submit(intent(2, Side.SELL, 301.0), 1)
        assert price_proxy(other, None, 305.0) == pytest.approx(305.0)

    def test_odd_tick_midpoint_equals_reference(self):
        # a mid-quote between ticks an odd count apart lands off the grid
        book = make_book()
        book.submit(intent(1, Side.BUY, 299.0005), 1)
        book.submit(intent(2, Side.SELL, 301.0), 1)
        assert price_proxy(book, None, 310.0) == pytest.approx(300.00025)


class TestSpreadAndGaps:
    def test_explicit_book(self):
        book = make_book()
        for price in (299.0, 297.5):
            book.submit(intent(1, Side.BUY, price), 1)
        for price in (301.0, 302.0):
            book.submit(intent(2, Side.SELL, price), 1)
        stats = book.spread_and_gaps()
        assert stats.spread == pytest.approx(2.0)
        assert stats.bid_gap == pytest.approx(1.5)
        assert stats.ask_gap == pytest.approx(1.0)
        assert stats.depth == 4

    def test_single_level_sides(self):
        book = make_book()
        book.submit(intent(1, Side.BUY, 299.0), 1)
        book.submit(intent(2, Side.SELL, 301.0), 1)
        stats = book.spread_and_gaps()
        assert stats.spread == pytest.approx(2.0)
        assert stats.bid_gap is None
        assert stats.ask_gap is None

    def test_empty_book(self):
        stats = make_book().spread_and_gaps()
        assert stats == BookStats(spread=None, bid_gap=None, ask_gap=None, depth=0)

    def test_same_price_orders_form_one_level(self):
        book = make_book()
        book.submit(intent(1, Side.BUY, 299.0), 1)
        book.submit(intent(2, Side.BUY, 299.0), 2)
        assert book.spread_and_gaps().bid_gap is None


class TestQuoteTicks:
    def test_explicit_book(self):
        book = make_book()
        for price in (299.0, 297.5):
            book.submit(intent(1, Side.BUY, price), 1)
        for price in (301.0, 302.0, 302.0):
            book.submit(intent(2, Side.SELL, price), 1)
        assert book.quote_ticks() == (598_000, 602_000, 3_000, 2_000, 5)

    def test_missing_values_are_no_tick(self):
        book = make_book()
        assert book.quote_ticks() == (NO_TICK, NO_TICK, NO_TICK, NO_TICK, 0)
        book.submit(intent(1, Side.BUY, 299.0), 1)
        book.submit(intent(1, Side.BUY, 299.0), 2)
        assert book.quote_ticks() == (598_000, NO_TICK, NO_TICK, NO_TICK, 2)


class TestSnapshot:
    def test_ask_volumes_negative(self):
        book = make_book()
        book.submit(intent(1, Side.BUY, 299.0), 1)
        book.submit(intent(2, Side.BUY, 299.0), 1)
        book.submit(intent(3, Side.SELL, 301.0), 1)
        rows = book.snapshot_levels()
        assert rows == [(pytest.approx(299.0), 2), (pytest.approx(301.0), -1)]


class TestPurge:
    def test_out_of_band_orders_removed(self):
        book = make_book()
        book.submit(intent(1, Side.BUY, 250.0), 1)
        book.submit(intent(2, Side.BUY, 299.0), 1)
        book.submit(intent(3, Side.SELL, 360.0), 1)
        removed = book.purge_outside(255.0, 345.0)
        assert {o.agent_id for o in removed} == {1, 3}
        assert book.quote_ticks()[4] == 1


def test_differential_against_naive_reference():
    """Random intent stream: trades must match the rescan-everything book."""
    rng = np.random.default_rng(7)
    fast = make_book()
    naive = NaiveBook()
    mismatches = 0
    for t in range(1, 20_000):
        fast.expire(t)
        naive.expire(t)
        it = intent(
            int(rng.integers(40)),
            Side.BUY if rng.random() < 0.5 else Side.SELL,
            float(rng.uniform(285, 315)),
            horizon=int(rng.integers(5, 200)),
        )
        trade, _ = fast.submit(it, t)
        ref = naive.submit(it, t)
        if trade is None:
            assert ref is None
        else:
            assert ref is not None
            ticks, buyer, seller = ref
            assert trade.ticks == ticks
            assert trade.buyer_id == buyer
            assert trade.seller_id == seller
        # occasionally compare the standing quotes as well
        if t % 97 == 0:
            nb = naive.best(Side.BUY)
            na = naive.best(Side.SELL)
            assert fast.best_bid_ticks() == (nb[1] if nb else None)
            assert fast.best_ask_ticks() == (na[1] if na else None)
    assert mismatches == 0


class BookAgainstNaive(RuleBasedStateMachine):
    """Random submit, expire and purge sequences on the book and the naive
    reference, with an escrow ledger kept the way the engine keeps it.

    Few agents and few price levels make self-crosses, shared levels and
    empty sides common. After every rule the quotes, the pledges and the
    ledger must agree.
    """

    N_AGENTS = 4

    @initialize(allow_self=st.booleans())
    def start(self, allow_self):
        self.book = make_book(allow_self_trades=allow_self)
        self.naive = NaiveBook(allow_self_trades=allow_self)
        self.t = 1
        self.committed_cash = [0] * self.N_AGENTS
        self.committed_shares = [0] * self.N_AGENTS

    def release(self, order):
        if order.side == Side.BUY:
            self.committed_cash[order.agent_id] -= order.ticks
        else:
            self.committed_shares[order.agent_id] -= 1

    @rule(agent=st.integers(0, N_AGENTS - 1), side=st.sampled_from(Side),
          ticks=st.integers(1, 12), horizon=st.integers(1, 8))
    def submit(self, agent, side, ticks, horizon):
        it = OrderIntent(agent_id=agent, side=side, ticks=ticks, price=ticks * TICK,
                         horizon=horizon)
        trade, rested = self.book.submit(it, self.t)
        ref = self.naive.submit(it, self.t)
        assert (None if trade is None else (trade.ticks, trade.buyer_id, trade.seller_id)) == ref
        if trade is not None:
            assert (trade.step, trade.aggressor, trade.price) == (self.t, side, trade.ticks * TICK)
            if trade.aggressor == Side.BUY:
                self.committed_shares[trade.seller_id] -= 1
            else:
                self.committed_cash[trade.buyer_id] -= trade.ticks
        elif rested is not None:
            assert (rested.order_id, rested.expires_at) == (self.naive.next_id - 1,
                                                            self.t + horizon)
            if rested.side == Side.BUY:
                self.committed_cash[agent] += rested.ticks
            else:
                self.committed_shares[agent] += 1

    @rule(steps=st.integers(0, 4))
    def expire(self, steps):
        self.t += steps
        removed = self.book.expire(self.t)
        assert sorted(o.order_id for o in removed) == self.naive.expire(self.t)
        for order in removed:
            self.release(order)

    @rule(lo=st.integers(0, 13), width=st.integers(0, 13))
    def purge_outside(self, lo, width):
        bounds = (lo * TICK, (lo + width) * TICK)
        removed = self.book.purge_outside(*bounds)
        assert sorted(o.order_id for o in removed) == self.naive.purge_outside(*bounds, TICK)
        for order in removed:
            self.release(order)

    @invariant()
    def agrees_with_naive(self):
        assert self.book.quote_ticks() == self.naive.quote_ticks()
        assert self.book.pledges(self.N_AGENTS) == self.naive.pledges(self.N_AGENTS)
        assert self.book.self_trade_rejections == self.naive.self_trade_rejections
        check_escrow(self.book, self.committed_cash, self.committed_shares)


BookAgainstNaive.TestCase.settings = settings(max_examples=150, stateful_step_count=60,
                                              deadline=None)
TestBookAgainstNaive = BookAgainstNaive.TestCase
