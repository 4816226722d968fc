"""Continuous double-auction order book with price-time priority.

All resting orders are one-unit limit orders on an integer tick grid; a
submission whose reservation crosses the opposite best quote executes
immediately against the oldest resting order at that quote, at the resting
order's price. Resting orders expire after the submitting agent's horizon.

The book keeps the escrow: per agent, a resting bid pledges its ticks in cash
and a resting ask one share, until the order trades, expires or is purged.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple


class Side(IntEnum):
    BUY = 0
    SELL = 1


# Bound once: reading a member off the enum class costs a lookup on every use.
BUY, SELL = Side.BUY, Side.SELL


# A submission is plain values; what the book stores or returns (a resting
# order, a trade) is a named tuple, built positionally, read by field name.
class LimitOrder(NamedTuple):
    order_id: int
    agent_id: int
    side: Side
    ticks: int
    submitted_at: int
    expires_at: int


class Trade(NamedTuple):
    step: int
    ticks: int  # the price is ticks * tick_size
    buyer_id: int
    seller_id: int
    aggressor: Side


@dataclass(frozen=True)
class BookStats:
    spread: float | None
    bid_gap: float | None
    ask_gap: float | None
    depth: int


NO_TICK = 0  # stands for a missing quote or gap in tick fields; real ones are > 0


class OrderBook:
    def __init__(self, tick_size: float, n_agents: int):
        if tick_size <= 0.0:
            raise ValueError("tick_size must be > 0")
        self.tick_size = float(tick_size)
        # the escrow, per agent id: ticks pledged by resting bids, shares by resting asks
        self.pledged_cash = [0] * n_agents
        self.pledged_shares = [0] * n_agents
        self._orders: dict[int, LimitOrder] = {}
        self._levels = {BUY: {}, SELL: {}}  # ticks -> deque of order ids
        self._ticks = {BUY: [], SELL: []}  # sorted ascending distinct ticks
        self.ask_levels = self._ticks[SELL]  # the asks' ticks, best first; for reading only
        self._expiry: list[tuple[int, int]] = []  # (expires_at, order_id) min-heap
        self._next_id = 0
        self.self_trade_rejections = 0

    # -- quotes ------------------------------------------------------------

    def best_bid_ticks(self) -> int | None:
        ticks = self._ticks[BUY]
        return ticks[-1] if ticks else None

    def best_ask_ticks(self) -> int | None:
        ticks = self._ticks[SELL]
        return ticks[0] if ticks else None

    def best_bid(self) -> float | None:
        t = self.best_bid_ticks()
        return None if t is None else t * self.tick_size

    def best_ask(self) -> float | None:
        t = self.best_ask_ticks()
        return None if t is None else t * self.tick_size

    # -- mutation ----------------------------------------------------------

    def submit(self, agent_id: int, side: Side, ticks: int, horizon: int, t: int) -> Trade | None:
        """Match or rest one agent's one-unit order at `ticks` (> 0), resting
        for `horizon` steps; the trade it makes, else None.

        An order whose only match candidate is the submitter's own resting
        order is dropped and counted in `self_trade_rejections`.
        """
        if ticks <= 0:
            raise ValueError("reservation price must be positive")
        if side == BUY:
            best = self.best_ask_ticks()
            crossing = best is not None and ticks >= best
        else:
            best = self.best_bid_ticks()
            crossing = best is not None and ticks <= best

        if crossing:
            queue = self._levels[SELL if side == BUY else BUY][best]
            resting = self._orders[queue[0]]
            if resting.agent_id == agent_id:
                self.self_trade_rejections += 1
                return None
            self._remove(resting.order_id)
            if side == BUY:
                buyer, seller = agent_id, resting.agent_id
            else:
                buyer, seller = resting.agent_id, agent_id
            return Trade(t, best, buyer, seller, side)

        order_id = self._next_id
        self._next_id = order_id + 1
        expires_at = t + horizon
        order = LimitOrder(order_id, agent_id, side, ticks, t, expires_at)
        self._orders[order_id] = order
        level = self._levels[side].get(ticks)
        if level is None:  # _remove drops a level once it is empty
            level = self._levels[side][ticks] = deque()
            bisect.insort(self._ticks[side], ticks)
        level.append(order_id)
        heapq.heappush(self._expiry, (expires_at, order_id))
        if side == BUY:
            self.pledged_cash[agent_id] += ticks
        else:
            self.pledged_shares[agent_id] += 1

    def expire(self, t: int) -> None:
        """Remove every resting order with expires_at <= t."""
        expiry = self._expiry
        while expiry and expiry[0][0] <= t:
            oid = heapq.heappop(expiry)[1]
            if oid in self._orders:
                self._remove(oid)

    def purge_outside(self, lo: float, hi: float) -> None:
        """Remove resting orders priced outside [lo, hi] (currency units).

        A level's price ticks * tick_size rises with its ticks, so the levels
        below lo are a prefix of a side's sorted ticks and those above hi a
        suffix; bisection on the same products finds both. They are removed
        in ascending order.
        """
        price = lambda ticks: ticks * self.tick_size  # noqa: E731
        for side in (BUY, SELL):
            levels = self._ticks[side]
            below = bisect.bisect_left(levels, lo, key=price)
            above = max(below, bisect.bisect_right(levels, hi, key=price))
            for ticks in levels[:below] + levels[above:]:
                for oid in list(self._levels[side][ticks]):
                    self._remove(oid)

    def _remove(self, order_id: int) -> None:
        """Take a resting order off the book and release its pledge; every
        trade, expiry and purge goes through here."""
        order = self._orders.pop(order_id)
        if order.side == BUY:
            self.pledged_cash[order.agent_id] -= order.ticks
        else:
            self.pledged_shares[order.agent_id] -= 1
        level = self._levels[order.side][order.ticks]
        level.remove(order_id)
        if not level:
            del self._levels[order.side][order.ticks]
            idx = bisect.bisect_left(self._ticks[order.side], order.ticks)
            self._ticks[order.side].pop(idx)

    # -- statistics ----------------------------------------------------------

    def quote_ticks(self) -> tuple[int, int, int, int, int]:
        """(best bid, best ask, bid gap, ask gap, depth) as ints; quotes and
        gaps in ticks, NO_TICK where absent.

        A gap is the distance from a side's best level to the next one.
        """
        bids = self._ticks[BUY]
        asks = self._ticks[SELL]
        return (
            bids[-1] if bids else NO_TICK,
            asks[0] if asks else NO_TICK,
            bids[-1] - bids[-2] if len(bids) > 1 else NO_TICK,
            asks[1] - asks[0] if len(asks) > 1 else NO_TICK,
            len(self._orders),
        )

    def spread_and_gaps(self) -> BookStats:
        """Best-quote spread, first gap behind each best level, total depth."""
        bid, ask, bid_gap, ask_gap, depth = self.quote_ticks()
        tick = self.tick_size
        return BookStats(
            spread=(ask - bid) * tick if bid and ask else None,
            bid_gap=bid_gap * tick if bid_gap else None,
            ask_gap=ask_gap * tick if ask_gap else None,
            depth=depth,
        )

    def pledges(self) -> tuple[list[int], list[int]]:
        """The escrow recounted from the resting orders: per agent, its bids' ticks and asks."""
        cash = [0] * len(self.pledged_cash)
        shares = [0] * len(self.pledged_shares)
        for order in self._orders.values():
            if order.side == BUY:
                cash[order.agent_id] += order.ticks
            else:
                shares[order.agent_id] += 1
        return cash, shares

    def snapshot_levels(self) -> list[tuple[float, int]]:
        """(price, signed volume) rows, ask volumes negative, ascending price."""
        rows = [
            (ticks * self.tick_size, len(self._levels[BUY][ticks]))
            for ticks in self._ticks[BUY]
        ]
        rows.extend(
            (ticks * self.tick_size, -len(self._levels[SELL][ticks]))
            for ticks in self._ticks[SELL]
        )
        rows.sort(key=lambda r: r[0])
        return rows


def current_price(last_trade: Trade | None, bid: int, ask: int, tick_size: float,
                  previous_price: float) -> float:
    """Price proxy for one step: trade price, else mid-quote, else last price.

    `bid` and `ask` are the book's best quotes after the step, in ticks,
    NO_TICK where absent (as `quote_ticks` reads them). The mid-quote needs
    both sides; a one-sided or empty book keeps the previously traded or
    quoted price.
    """
    if previous_price <= 0.0:
        raise ValueError("previous_price must be > 0")
    if last_trade is not None:
        return last_trade.ticks * tick_size
    if bid and ask:
        return (bid + ask) * tick_size / 2.0
    return previous_price
