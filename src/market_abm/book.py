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
import math
from collections import deque
from enum import IntEnum


class Side(IntEnum):
    BUY = 0
    SELL = 1


# Bound once: reading a member off the enum class costs a lookup on every use.
BUY, SELL = Side.BUY, Side.SELL


NO_TICK = 0  # stands for a missing quote or gap in tick fields; real ones are > 0


class OrderBook:
    def __init__(self, tick_size: float, n_agents: int):
        if tick_size <= 0.0:
            raise ValueError("tick_size must be > 0")
        self.tick_size = float(tick_size)
        # the escrow, per agent id: ticks pledged by resting bids, shares by resting asks
        self.pledged_cash = [0] * n_agents
        self.pledged_shares = [0] * n_agents
        # order id -> (agent_id, side, ticks) of each resting order, oldest first
        self._orders: dict[int, tuple[int, Side, int]] = {}
        self._levels = {BUY: {}, SELL: {}}  # ticks -> list of order ids, oldest first
        self._ticks = {BUY: [], SELL: []}  # sorted ascending distinct ticks
        # for reading only: the bids' ticks (best last), the asks' (best
        # first), and the resting orders by id, oldest first
        self.bid_levels = self._ticks[BUY]
        self.ask_levels = self._ticks[SELL]
        self.resting = self._orders
        # per horizon, (expires_at, order_id) in submission order, which is
        # expiry order; and the earliest expires_at they hold
        self._expiry: dict[int, deque[tuple[int, int]]] = {}
        self._next_due = math.inf
        self._last_submit = -math.inf
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

    def submit(self, agent_id: int, side: Side, ticks: int, horizon: int,
               t: int) -> tuple[int, int, int] | None:
        """Match or rest one agent's one-unit order at `ticks` (> 0), resting
        for `horizon` steps; the fill it makes as (ticks, buyer_id, seller_id),
        priced at the resting order's ticks, else None.

        An order whose only match candidate is the submitter's own resting
        order is dropped and counted in `self_trade_rejections`. Steps must
        not go back: a `t` below the previous submit's is refused.
        """
        if ticks <= 0:
            raise ValueError("reservation price must be positive")
        if t < self._last_submit:
            raise ValueError(f"submit at step {t} after step {self._last_submit}")
        self._last_submit = t
        if side == BUY:
            best = self.best_ask_ticks()
            crossing = best is not None and ticks >= best
        else:
            best = self.best_bid_ticks()
            crossing = best is not None and ticks <= best

        if crossing:
            oid = self._levels[SELL if side == BUY else BUY][best][0]
            other = self._orders[oid][0]
            if other == agent_id:
                self.self_trade_rejections += 1
                return None
            self._remove(oid)
            if side == BUY:
                return best, agent_id, other
            return best, other, agent_id

        order_id = self._next_id
        self._next_id = order_id + 1
        expires_at = t + horizon
        self._orders[order_id] = (agent_id, side, ticks)
        level = self._levels[side].get(ticks)
        if level is None:  # _remove drops a level once it is empty
            level = self._levels[side][ticks] = []
            bisect.insort(self._ticks[side], ticks)
        level.append(order_id)
        queue = self._expiry.get(horizon)
        if queue is None:
            queue = self._expiry[horizon] = deque()
        queue.append((expires_at, order_id))
        if expires_at < self._next_due:
            self._next_due = expires_at
        if side == BUY:
            self.pledged_cash[agent_id] += ticks
        else:
            self.pledged_shares[agent_id] += 1

    def expire(self, t: int) -> None:
        """Remove every resting order with expires_at <= t.

        Each horizon's queue is popped in submission order. The end state
        does not depend on which order goes first: a level keeps the relative
        order of what remains, and pledges are sums.
        """
        if t < self._next_due:
            return
        orders = self._orders
        next_due = math.inf
        for queue in self._expiry.values():
            while queue and queue[0][0] <= t:
                oid = queue.popleft()[1]
                if oid in orders:  # else it traded or was purged
                    self._remove(oid)
            if queue and queue[0][0] < next_due:
                next_due = queue[0][0]
        self._next_due = next_due

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
        agent_id, side, ticks = self._orders.pop(order_id)
        if side == BUY:
            self.pledged_cash[agent_id] -= ticks
        else:
            self.pledged_shares[agent_id] -= 1
        levels = self._levels[side]
        level = levels[ticks]
        level.remove(order_id)
        if not level:
            del levels[ticks]
            side_ticks = self._ticks[side]
            del side_ticks[bisect.bisect_left(side_ticks, ticks)]

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

    def spread_and_gaps(self) -> tuple[float | None, float | None, float | None, int]:
        """(spread, bid gap, ask gap, depth): the best-quote spread and the first
        gap behind each best level in currency, None where absent, and the
        total depth."""
        bid, ask, bid_gap, ask_gap, depth = self.quote_ticks()
        tick = self.tick_size
        return (
            (ask - bid) * tick if bid and ask else None,
            bid_gap * tick if bid_gap else None,
            ask_gap * tick if ask_gap else None,
            depth,
        )

    def pledges(self) -> tuple[list[int], list[int]]:
        """The escrow recounted from the resting orders: per agent, its bids' ticks and asks."""
        cash = [0] * len(self.pledged_cash)
        shares = [0] * len(self.pledged_shares)
        for agent_id, side, ticks in self._orders.values():
            if side == BUY:
                cash[agent_id] += ticks
            else:
                shares[agent_id] += 1
        return cash, shares

    def snapshot_levels(self) -> list[tuple[float, int]]:
        """(price, signed volume) rows, ask volumes negative, ascending price:
        the bids' rows, then the asks', since a crossing order never rests."""
        rows = [
            (ticks * self.tick_size, len(self._levels[BUY][ticks]))
            for ticks in self._ticks[BUY]
        ]
        rows.extend(
            (ticks * self.tick_size, -len(self._levels[SELL][ticks]))
            for ticks in self._ticks[SELL]
        )
        return rows


def current_price(fill_ticks: int | None, bid: int, ask: int, tick_size: float,
                  previous_price: float) -> float:
    """Price proxy for one step: trade price, else mid-quote, else last price.

    `fill_ticks` is the step's fill price in ticks, None without a fill;
    `bid` and `ask` are the book's best quotes after the step, in ticks,
    NO_TICK where absent (as `quote_ticks` reads them). The mid-quote needs
    both sides; a one-sided or empty book keeps the previously traded or
    quoted price.
    """
    if previous_price <= 0.0:
        raise ValueError("previous_price must be > 0")
    if fill_ticks is not None:
        return fill_ticks * tick_size
    if bid and ask:
        return (bid + ask) * tick_size / 2.0
    return previous_price
