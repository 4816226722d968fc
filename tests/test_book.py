"""Tests for the double-auction book: matching, expiry, escrow, quotes, statistics."""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from market_abm.book import NO_TICK, BookStats, OrderBook, Side, current_price
from market_abm.engine import check_escrow

from oracles import NaiveBook, Order, current_price_reference, order_price, resting_orders

TICK = 0.0005


def order_at(agent, side, price, horizon=100):
    ticks = int(round(price / TICK))
    return Order(agent_id=agent, side=side, ticks=ticks, horizon=horizon)


N_AGENTS = 60


def make_book(n_agents=N_AGENTS):
    return OrderBook(TICK, n_agents)


class TestQuotes:
    def test_empty_book(self):
        book = make_book()
        assert book.best_bid() is None
        assert book.best_ask() is None

    def test_best_of_explicit_set(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        book.submit(*order_at(2, Side.BUY, 298.0), 1)
        book.submit(*order_at(3, Side.SELL, 301.0), 1)
        assert book.best_bid() == pytest.approx(299.0)
        assert book.best_ask() == pytest.approx(301.0)

    def test_emptied_side(self):
        book = make_book()
        book.submit(*order_at(1, Side.SELL, 301.0), 1)
        trade = book.submit(*order_at(2, Side.BUY, 301.0), 2)
        assert trade is not None
        assert book.best_ask() is None


class TestSubmit:
    def test_marketable_buy_executes_at_ask(self):
        book = make_book()
        book.submit(*order_at(1, Side.SELL, 301.0), 1)
        trade = book.submit(*order_at(2, Side.BUY, 301.0), 2)
        assert resting_orders(book) == []
        assert trade.ticks * TICK == pytest.approx(301.0)
        assert trade.buyer_id == 2 and trade.seller_id == 1
        assert trade.aggressor == Side.BUY

    def test_non_crossing_buy_rests(self):
        book = make_book()
        book.submit(*order_at(1, Side.SELL, 301.0), 1)
        trade = book.submit(*order_at(2, Side.BUY, 300.5), 2)
        assert trade is None
        assert resting_orders(book)[-1] == (1, 2, Side.BUY, 601_000, 2, 102)
        assert book.best_bid() == pytest.approx(300.5)

    def test_time_priority_at_same_price(self):
        book = make_book()
        book.submit(*order_at(1, Side.SELL, 301.0), 5)
        book.submit(*order_at(2, Side.SELL, 301.0), 9)
        trade = book.submit(*order_at(3, Side.BUY, 302.0), 10)
        assert trade.seller_id == 1  # the older order matches first

    def test_marketable_sell_executes_at_bid(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        trade = book.submit(*order_at(2, Side.SELL, 298.0), 2)
        assert trade.ticks * TICK == pytest.approx(299.0)
        assert trade.aggressor == Side.SELL

    def test_self_cross_is_dropped_by_default(self):
        book = make_book()
        book.submit(*order_at(1, Side.SELL, 301.0), 1)
        assert book.submit(*order_at(1, Side.BUY, 302.0), 2) is None
        assert book.self_trade_rejections == 1
        assert book.quote_ticks()[4] == 1  # the resting ask is untouched
        assert [o.order_id for o in resting_orders(book)] == [0]  # and the bid did not rest

    def test_no_cross_invariant_random_sequence(self):
        rng = np.random.default_rng(0)
        book = make_book()
        for t in range(1, 3000):
            book.expire(t)
            it = order_at(
                int(rng.integers(50)),
                Side.BUY if rng.random() < 0.5 else Side.SELL,
                float(rng.uniform(280, 320)),
                horizon=int(rng.integers(10, 300)),
            )
            book.submit(*it, t)
            bid, ask = book.best_bid(), book.best_ask()
            if bid is not None and ask is not None:
                assert bid < ask

    def test_grid_closure(self):
        rng = np.random.default_rng(1)
        book = make_book()
        for t in range(1, 500):
            it = order_at(int(rng.integers(50)), Side.BUY if rng.random() < 0.5 else Side.SELL,
                        float(rng.uniform(280, 320)))
            book.submit(*it, t)
        for order in resting_orders(book):
            assert order.ticks > 0
            price = order_price(order, TICK)
            assert abs(price / TICK - round(price / TICK)) < 1e-6


class TestExpire:
    def test_noop_without_expiries(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0, horizon=100), 1)
        assert book.expire(50) is None
        assert book.quote_ticks()[4] == 1

    def test_boundary_inclusive(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0, horizon=100), 1)
        book.expire(100)
        assert book.quote_ticks()[4] == 1
        book.expire(101)
        assert book.quote_ticks()[4] == 0

    def test_mixed_expiries_match_set_difference(self):
        rng = np.random.default_rng(2)
        book = make_book(n_agents=200)
        expected_alive = set()
        for i in range(200):
            t = i + 1
            horizon = int(rng.integers(5, 80))
            it = order_at(i, Side.BUY if rng.random() < 0.5 else Side.SELL,
                        float(rng.uniform(200, 400)), horizon=horizon)
            if book.submit(*it, t) is None:  # every agent id is new, so no self-cross
                rested = resting_orders(book)[-1]
                assert rested.agent_id == i
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
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        book.submit(*order_at(2, Side.SELL, 301.0), 1)
        assert price_proxy(book, None, 310.0) == pytest.approx(300.0)

    def test_trade_price_wins(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        book.submit(*order_at(2, Side.SELL, 301.0), 1)
        trade = book.submit(*order_at(3, Side.BUY, 301.0), 2)
        assert price_proxy(book, trade, 310.0) == pytest.approx(301.0)

    def test_empty_book_keeps_previous(self):
        book = make_book()
        assert price_proxy(book, None, 300.0) == pytest.approx(300.0)

    def test_one_sided_book_keeps_previous(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        assert price_proxy(book, None, 305.0) == pytest.approx(305.0)
        other = make_book()
        other.submit(*order_at(2, Side.SELL, 301.0), 1)
        assert price_proxy(other, None, 305.0) == pytest.approx(305.0)

    def test_odd_tick_midpoint_equals_reference(self):
        # a mid-quote between ticks an odd count apart lands off the grid
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0005), 1)
        book.submit(*order_at(2, Side.SELL, 301.0), 1)
        assert price_proxy(book, None, 310.0) == pytest.approx(300.00025)


class TestSpreadAndGaps:
    def test_explicit_book(self):
        book = make_book()
        for price in (299.0, 297.5):
            book.submit(*order_at(1, Side.BUY, price), 1)
        for price in (301.0, 302.0):
            book.submit(*order_at(2, Side.SELL, price), 1)
        stats = book.spread_and_gaps()
        assert stats.spread == pytest.approx(2.0)
        assert stats.bid_gap == pytest.approx(1.5)
        assert stats.ask_gap == pytest.approx(1.0)
        assert stats.depth == 4

    def test_single_level_sides(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        book.submit(*order_at(2, Side.SELL, 301.0), 1)
        stats = book.spread_and_gaps()
        assert stats.spread == pytest.approx(2.0)
        assert stats.bid_gap is None
        assert stats.ask_gap is None

    def test_empty_book(self):
        stats = make_book().spread_and_gaps()
        assert stats == BookStats(spread=None, bid_gap=None, ask_gap=None, depth=0)

    def test_same_price_orders_form_one_level(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        book.submit(*order_at(2, Side.BUY, 299.0), 2)
        assert book.spread_and_gaps().bid_gap is None


class TestQuoteTicks:
    def test_explicit_book(self):
        book = make_book()
        for price in (299.0, 297.5):
            book.submit(*order_at(1, Side.BUY, price), 1)
        for price in (301.0, 302.0, 302.0):
            book.submit(*order_at(2, Side.SELL, price), 1)
        assert book.quote_ticks() == (598_000, 602_000, 3_000, 2_000, 5)

    def test_missing_values_are_no_tick(self):
        book = make_book()
        assert book.quote_ticks() == (NO_TICK, NO_TICK, NO_TICK, NO_TICK, 0)
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        book.submit(*order_at(1, Side.BUY, 299.0), 2)
        assert book.quote_ticks() == (598_000, NO_TICK, NO_TICK, NO_TICK, 2)


class TestSnapshot:
    def test_ask_volumes_negative(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        book.submit(*order_at(2, Side.BUY, 299.0), 1)
        book.submit(*order_at(3, Side.SELL, 301.0), 1)
        rows = book.snapshot_levels()
        assert rows == [(pytest.approx(299.0), 2), (pytest.approx(301.0), -1)]


class TestPledges:
    def test_resting_orders_pledge_and_every_removal_releases(self):
        book = make_book(n_agents=3)
        book.submit(*order_at(0, Side.BUY, 299.0, horizon=5), 1)  # pledges 598_000 ticks
        book.submit(*order_at(1, Side.SELL, 301.0), 1)  # pledges one share
        assert (book.pledged_cash, book.pledged_shares) == ([598_000, 0, 0], [0, 1, 0])
        book.submit(*order_at(2, Side.BUY, 301.0), 2)  # trades: agent 1's ask is released
        assert (book.pledged_cash, book.pledged_shares) == ([598_000, 0, 0], [0, 0, 0])
        book.submit(*order_at(2, Side.SELL, 400.0), 3)
        assert book.pledged_shares == [0, 0, 1]
        book.expire(6)  # agent 0's bid expires
        assert book.pledged_cash == [0, 0, 0]
        book.purge_outside(250.0, 350.0)  # agent 2's ask is outside
        assert (book.pledged_cash, book.pledged_shares) == ([0, 0, 0], [0, 0, 0])
        assert book.quote_ticks()[4] == 0


class TestPurge:
    def test_out_of_band_orders_removed(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 250.0), 1)
        book.submit(*order_at(2, Side.BUY, 299.0), 1)
        book.submit(*order_at(3, Side.SELL, 360.0), 1)
        assert book.purge_outside(255.0, 345.0) is None
        assert [o.agent_id for o in resting_orders(book)] == [2]
        assert book.quote_ticks()[4] == 1

    @pytest.mark.parametrize("side", [Side.BUY, Side.SELL])
    @pytest.mark.parametrize("nudge, kept", [
        (0, [1000, 1000, 1200]),  # a level priced exactly on a limit stays
        (-1, [1000, 1000, 1200]),  # limits an ulp wider keep the same levels
        (1, []),  # limits an ulp narrower drop the levels on them
    ])
    def test_levels_on_the_limits_against_naive(self, side, nudge, kept):
        # one side only, so nothing crosses: two levels on the limits, two
        # one tick beyond them and one between, the lowest level twice
        lo, hi = 1000 * TICK, 1200 * TICK  # the products the book prices levels by
        if nudge:
            lo = math.nextafter(lo, math.inf * nudge)
            hi = math.nextafter(hi, -math.inf * nudge)
        book, naive = make_book(), NaiveBook()
        for agent, ticks in enumerate([999, 1000, 1000, 1100, 1200, 1201]):
            it = Order(agent, side, ticks, 50)
            book.submit(*it, 1)
            naive.submit(it, 1)
        book.purge_outside(lo, hi)
        naive.purge_outside(lo, hi, TICK)
        live = [tuple(order) for order in resting_orders(book)]
        assert live == naive.live_orders()
        assert [order.ticks for order in resting_orders(book)
                if order.ticks != 1100] == kept
        assert book.pledges() == (book.pledged_cash, book.pledged_shares)


def test_differential_against_naive_reference():
    """Random order stream: trades must match the rescan-everything book."""
    rng = np.random.default_rng(7)
    fast = make_book()
    naive = NaiveBook()
    mismatches = 0
    for t in range(1, 20_000):
        fast.expire(t)
        naive.expire(t)
        it = order_at(
            int(rng.integers(40)),
            Side.BUY if rng.random() < 0.5 else Side.SELL,
            float(rng.uniform(285, 315)),
            horizon=int(rng.integers(5, 200)),
        )
        trade = fast.submit(*it, t)
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
    reference.

    Few agents and few price levels make self-crosses, shared levels and
    empty sides common. After every rule the quotes, the live orders and
    the book's escrow must agree with the reference.
    """

    N_AGENTS = 4

    @initialize()
    def start(self):
        self.book = make_book(n_agents=self.N_AGENTS)
        self.naive = NaiveBook()
        self.t = 1

    @rule(agent=st.integers(0, N_AGENTS - 1), side=st.sampled_from(Side),
          ticks=st.integers(1, 12), horizon=st.integers(1, 8))
    def submit(self, agent, side, ticks, horizon):
        it = Order(agent_id=agent, side=side, ticks=ticks, horizon=horizon)
        trade = self.book.submit(*it, self.t)
        ref = self.naive.submit(it, self.t)
        assert (None if trade is None else (trade.ticks, trade.buyer_id, trade.seller_id)) == ref
        if trade is not None:
            assert (trade.step, trade.aggressor) == (self.t, side)

    @rule(steps=st.integers(0, 4))
    def expire(self, steps):
        self.t += steps
        assert self.book.expire(self.t) is None
        self.naive.expire(self.t)

    @rule(lo=st.integers(0, 13), width=st.integers(0, 13))
    def purge_outside(self, lo, width):
        bounds = (lo * TICK, (lo + width) * TICK)
        assert self.book.purge_outside(*bounds) is None
        self.naive.purge_outside(*bounds, TICK)

    @invariant()
    def agrees_with_naive(self):
        assert self.book.quote_ticks() == self.naive.quote_ticks()
        # every live order, with its owner, side, price and expiry step
        assert [(o.order_id, o.agent_id, o.side, o.ticks, o.submitted_at, o.expires_at)
                for o in resting_orders(self.book)] == self.naive.live_orders()
        assert (self.book.pledged_cash, self.book.pledged_shares) == \
            self.naive.pledges(self.N_AGENTS)
        assert self.book.self_trade_rejections == self.naive.self_trade_rejections
        check_escrow(self.book)


BookAgainstNaive.TestCase.settings = settings(max_examples=150, stateful_step_count=60,
                                              deadline=None)
TestBookAgainstNaive = BookAgainstNaive.TestCase
