"""Tests for the double-auction book: matching, expiry, escrow, quotes, statistics."""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from market_abm.book import NO_TICK, OrderBook, Side, current_price
from market_abm.engine import check_escrow

from oracles import NaiveBook, Order, current_price_reference, resting_orders

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
        fill = book.submit(*order_at(2, Side.BUY, 301.0), 2)
        assert fill is not None
        assert book.best_ask() is None


class TestSubmit:
    def test_marketable_buy_executes_at_ask(self):
        book = make_book()
        book.submit(*order_at(1, Side.SELL, 301.0), 1)
        fill = book.submit(*order_at(2, Side.BUY, 301.0), 2)
        assert resting_orders(book) == []
        assert fill == (602_000, 2, 1)  # (ticks, buyer, seller): the ask's price

    def test_non_crossing_buy_rests(self):
        book = make_book()
        book.submit(*order_at(1, Side.SELL, 301.0), 1)
        fill = book.submit(*order_at(2, Side.BUY, 300.5), 2)
        assert fill is None
        assert resting_orders(book)[-1] == (1, 2, Side.BUY, 601_000)  # (id, agent, side, ticks)
        assert book.best_bid() == pytest.approx(300.5)
        # the default horizon is 100: the ask of step 1 is due at step 101,
        # the bid of step 2 rests through step 101 and is due at step 102
        book.expire(100)
        assert [o[1] for o in resting_orders(book)] == [1, 2]
        book.expire(101)
        assert [o[1] for o in resting_orders(book)] == [2]
        book.expire(102)
        assert resting_orders(book) == []

    def test_time_priority_at_same_price(self):
        book = make_book()
        book.submit(*order_at(1, Side.SELL, 301.0), 5)
        book.submit(*order_at(2, Side.SELL, 301.0), 9)
        fill = book.submit(*order_at(3, Side.BUY, 302.0), 10)
        assert fill == (602_000, 3, 1)  # the older order matches first

    def test_marketable_sell_executes_at_bid(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        fill = book.submit(*order_at(2, Side.SELL, 298.0), 2)
        assert fill == (598_000, 1, 2)  # at the bid's price; the seller is the submitter

    def test_self_cross_is_dropped_by_default(self):
        book = make_book()
        book.submit(*order_at(1, Side.SELL, 301.0), 1)
        assert book.submit(*order_at(1, Side.BUY, 302.0), 2) is None
        assert book.self_trade_rejections == 1
        assert book.quote_ticks()[4] == 1  # the resting ask is untouched
        assert [o[0] for o in resting_orders(book)] == [0]  # and the bid did not rest

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
        for _, _, _, ticks in resting_orders(book):
            assert ticks > 0
            price = ticks * TICK
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
        # horizons mixed at random, a long one submitted before a short one,
        # and expiries at steps where nothing, some or everything is due:
        # after each, the live orders are exactly the naive book's
        rng = np.random.default_rng(2)
        book, naive = make_book(n_agents=200), NaiveBook()

        def submit(order, t):
            assert book.submit(*order, t) == naive.submit(order, t)

        def expire(t):
            book.expire(t)
            naive.expire(t)
            assert resting_orders(book) == naive.live_orders()

        submit(order_at(0, Side.BUY, 250.0, horizon=150), 1)
        submit(order_at(1, Side.SELL, 350.0, horizon=5), 1)
        expire(2)  # nothing due
        expire(6)  # the short one goes, the long one stays
        assert [o[1] for o in resting_orders(book)] == [0]
        for i in range(2, 200):
            t = i + 1
            horizon = int(rng.integers(5, 80))
            side = Side.BUY if rng.random() < 0.5 else Side.SELL
            submit(order_at(i, side, float(rng.uniform(200, 400)), horizon=horizon), t)
            if t % 7 == 0:
                expire(t)
        for t in (200, 200, 230, 250, 280, 300):
            expire(t)
        assert resting_orders(book) == []

    def test_submit_going_back_in_time_is_refused(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0, horizon=10), 5)
        book.submit(*order_at(2, Side.SELL, 301.0, horizon=10), 5)  # the same step is fine
        before = resting_orders(book)
        with pytest.raises(ValueError, match="submit at step 4 after step 5"):
            book.submit(*order_at(3, Side.SELL, 299.0, horizon=10), 4)
        assert resting_orders(book) == before
        assert book.quote_ticks() == (598_000, 602_000, NO_TICK, NO_TICK, 2)


def price_proxy(book, fill, previous_price):
    """The price proxy over the book's best quotes, as the step loop reads them."""
    bid, ask, _, _, _ = book.quote_ticks()
    fill_ticks = None if fill is None else fill[0]
    got = current_price(fill_ticks, bid, ask, book.tick_size, previous_price)
    assert got == current_price_reference(book, fill_ticks, previous_price)
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
        fill = book.submit(*order_at(3, Side.BUY, 301.0), 2)
        assert price_proxy(book, fill, 310.0) == pytest.approx(301.0)

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
        spread, bid_gap, ask_gap, depth = book.spread_and_gaps()
        assert spread == pytest.approx(2.0)
        assert bid_gap == pytest.approx(1.5)
        assert ask_gap == pytest.approx(1.0)
        assert depth == 4

    def test_single_level_sides(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        book.submit(*order_at(2, Side.SELL, 301.0), 1)
        spread, bid_gap, ask_gap, _ = book.spread_and_gaps()
        assert spread == pytest.approx(2.0)
        assert bid_gap is None
        assert ask_gap is None

    def test_empty_book(self):
        assert make_book().spread_and_gaps() == (None, None, None, 0)

    def test_same_price_orders_form_one_level(self):
        book = make_book()
        book.submit(*order_at(1, Side.BUY, 299.0), 1)
        book.submit(*order_at(2, Side.BUY, 299.0), 2)
        assert book.spread_and_gaps()[1] is None  # the bid gap


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
        assert [o[1] for o in resting_orders(book)] == [2]
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
        assert resting_orders(book) == naive.live_orders()
        assert [ticks for _, _, _, ticks in resting_orders(book) if ticks != 1100] == kept
        assert book.pledges() == (book.pledged_cash, book.pledged_shares)


def test_differential_against_naive_reference():
    """Random order stream: trades must match the rescan-everything book."""
    rng = np.random.default_rng(7)
    fast = make_book()
    naive = NaiveBook()
    for t in range(1, 20_000):
        fast.expire(t)
        naive.expire(t)
        it = order_at(
            int(rng.integers(40)),
            Side.BUY if rng.random() < 0.5 else Side.SELL,
            float(rng.uniform(285, 315)),
            horizon=int(rng.integers(5, 200)),
        )
        assert fast.submit(*it, t) == naive.submit(it, t)
        # occasionally compare the standing quotes as well
        if t % 97 == 0:
            nb = naive.best(Side.BUY)
            na = naive.best(Side.SELL)
            assert fast.best_bid_ticks() == (nb[1] if nb else None)
            assert fast.best_ask_ticks() == (na[1] if na else None)


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
        assert self.book.submit(*it, self.t) == self.naive.submit(it, self.t)

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
        # every live order, with its owner, side and price; as the naive book
        # drops an order at its expiry step, this checks expiry timing too
        assert resting_orders(self.book) == self.naive.live_orders()
        # bid levels below ask levels, so the snapshot's prices rise strictly
        rows = self.book.snapshot_levels()
        assert all(a[0] < b[0] for a, b in zip(rows, rows[1:]))
        bids_first = [volume > 0 for _, volume in rows]  # asks' volumes are negative
        assert bids_first == sorted(bids_first, reverse=True)
        assert all(volume for _, volume in rows)
        assert (self.book.pledged_cash, self.book.pledged_shares) == \
            self.naive.pledges(self.N_AGENTS)
        assert self.book.self_trade_rejections == self.naive.self_trade_rejections
        check_escrow(self.book)


BookAgainstNaive.TestCase.settings = settings(max_examples=150, stateful_step_count=60,
                                              deadline=None)
TestBookAgainstNaive = BookAgainstNaive.TestCase
