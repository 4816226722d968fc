"""Reference implementations that the tests compare the library against.

None of this is used by the library itself:

- the original row-wise CSV writers and the `np.genfromtxt` loader, which
  define the on-disk run format byte for byte;
- the switching signals U1 and U2 and the per-pair switching rates over a
  population's group counts, which the switching sweep computes inline;
- the step helpers as they read a history slice and the book (the price
  trend, the price dispersion and the price proxy), which the library now
  reads from the price buffer at a step index and from the step's quotes;
- `switch_sweep`, the switching sweep over a population and a market view,
  which adapts tests to the flat `apply_switching` kernel;
- a naive order book that rescans a flat list of resting orders on every
  operation, and a listing of a book's resting orders and an order's price
  in currency;
- the expectation and reservation-offset draws as `rng.normal` and
  `rng.exponential` calls, which the library takes as scaled standard draws;
- the step-by-step fundamental value process, which `fundamental_path`
  computes in one vectorised pass.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from market_abm.book import NO_TICK, OrderBook, Side
from market_abm.config import SimConfig
from market_abm.engine import STEP_COLUMNS, TRADE_COLUMNS, StepRecords, TradeRecords
from market_abm.population import (
    FUNDAMENTALIST,
    OPTIMIST,
    PESSIMIST,
    Population,
    apply_switching,
)

# ---------------------------------------------------------------------------
# run I/O
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return "" if not np.isfinite(value) else format(value, ".12g")


def write_steps_csv(path, records: StepRecords) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(STEP_COLUMNS) + "\n")
        for i in range(len(records)):
            row = (
                f"{records.step[i]},{_fmt(records.price[i])},"
                f"{_fmt(records.fundamental_value[i])},{_fmt(records.best_bid[i])},"
                f"{_fmt(records.best_ask[i])},{_fmt(records.spread[i])},"
                f"{_fmt(records.bid_gap[i])},{_fmt(records.ask_gap[i])},"
                f"{records.depth[i]},{records.n_f[i]},{records.n_plus[i]},"
                f"{records.n_minus[i]},{int(records.traded[i])},{_fmt(records.trade_price[i])}\n"
            )
            fh.write(row)


def load_steps_csv(path) -> StepRecords:
    data = np.genfromtxt(path, delimiter=",", names=True, dtype=float, filling_values=np.nan)
    data = np.atleast_1d(data)

    def col(name, dtype=None):
        arr = data[name]
        return arr.astype(dtype) if dtype else arr.copy()

    return StepRecords(
        step=col("step", np.int64),
        price=col("price"),
        fundamental_value=col("fundamental_value"),
        best_bid=col("best_bid"),
        best_ask=col("best_ask"),
        spread=col("spread"),
        bid_gap=col("bid_gap"),
        ask_gap=col("ask_gap"),
        depth=col("depth", np.int64),
        n_f=col("n_f", np.int64),
        n_plus=col("n_plus", np.int64),
        n_minus=col("n_minus", np.int64),
        traded=data["traded"].astype(bool),
        trade_price=col("trade_price"),
    )


def write_trades_csv(path, trades: TradeRecords) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(TRADE_COLUMNS) + "\n")
        for i in range(len(trades)):
            side = "buy" if trades.aggressor[i] == int(Side.BUY) else "sell"
            fh.write(
                f"{trades.step[i]},{_fmt(trades.price[i])},"
                f"{trades.buyer_id[i]},{trades.seller_id[i]},{side}\n"
            )


def write_lob_snapshot(path, rows: list[tuple[float, int]]) -> None:
    with open(path, "w") as fh:
        fh.write("price,volume\n")
        for price, volume in rows:
            fh.write(f"{_fmt(price)},{volume}\n")


# ---------------------------------------------------------------------------
# switching rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationCounts:
    n_f: int
    n_plus: int
    n_minus: int

    @property
    def total(self) -> int:
        return self.n_f + self.n_plus + self.n_minus

    @property
    def n_c(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def x(self) -> float:
        """Opinion index in [-1, 1]; defined as 0 when no chartists exist
        (every rate that consumes it carries a zero prefactor then)."""
        n_c = self.n_c
        if n_c == 0:
            return 0.0
        return (self.n_plus - self.n_minus) / n_c


def compute_U1(x: float, trend: float, p: float, params: SimConfig) -> float:
    """Herding-plus-trend signal steering flows between optimists and pessimists."""
    if p <= 0.0:
        raise ValueError("price must be > 0")
    return params.alpha1 * x + (params.alpha2 / params.v1) * (trend / p)


def compute_U2(direction: int, trend: float, p: float, p_f: float, params: SimConfig) -> float:
    """Profit-differential signal between one chartist camp and fundamentalism.

    The chartist side earns the nominal rate plus the trend; fundamentalists
    forgo it but profit from any gap between price and fundamental value.
    """
    if p <= 0.0 or p_f <= 0.0:
        raise ValueError("prices must be > 0")
    r = params.big_r * p_f
    excess = (r + trend / params.v2) / p - params.big_r
    gap = params.s * abs((p_f - p) / p)
    if direction == OPTIMIST:
        return params.alpha3 * (excess - gap)
    if direction == PESSIMIST:
        return params.alpha3 * (-excess - gap)
    raise ValueError("direction must be OPTIMIST or PESSIMIST")


def transition_rate(
    from_type: int, to_type: int, counts: PopulationCounts, u: float, params: SimConfig
) -> float:
    """Poisson rate for one opinion change, before scaling by the step size.

    `u` is the signal for the pair: the chartist-chartist signal for flows
    between optimists and pessimists, otherwise the profit differential of
    the chartist camp involved. Its sign convention: flows toward the
    optimist camp (or away from fundamentalism) take exp(+u), the reverse
    flows exp(-u).
    """
    if from_type == to_type:
        raise ValueError("transition requires two distinct types")
    n = counts.total
    if n == 0:
        raise ValueError("empty population")
    pair = (from_type, to_type)
    if pair == (PESSIMIST, OPTIMIST):
        return params.v1 * (counts.n_c / n) * math.exp(u)
    if pair == (OPTIMIST, PESSIMIST):
        return params.v1 * (counts.n_c / n) * math.exp(-u)
    if pair == (FUNDAMENTALIST, OPTIMIST):
        return params.v2 * (counts.n_plus / n) * math.exp(u)
    if pair == (OPTIMIST, FUNDAMENTALIST):
        return params.v2 * (counts.n_f / n) * math.exp(-u)
    if pair == (FUNDAMENTALIST, PESSIMIST):
        return params.v2 * (counts.n_minus / n) * math.exp(u)
    if pair == (PESSIMIST, FUNDAMENTALIST):
        return params.v2 * (counts.n_f / n) * math.exp(-u)
    raise ValueError(f"unknown transition pair {pair}")


def transition_probability(
    from_type: int,
    to_type: int,
    counts: PopulationCounts,
    u: float,
    params: SimConfig,
) -> float:
    """Per-step switching probability rate * dt, clamped into [0, 1]."""
    prob = transition_rate(from_type, to_type, counts, u, params) * params.dt
    return min(max(prob, 0.0), 1.0)


# ---------------------------------------------------------------------------
# step helpers over a history slice, and the sweep over a market view
# ---------------------------------------------------------------------------


def average_price_trend_reference(price_history, horizon: int, dt: float) -> float:
    """The price trend over the trailing window of a history slice."""
    n = len(price_history)
    if n < 2 or horizon < 1:
        return 0.0
    h = min(horizon, n - 1)
    return (price_history[-1] - price_history[-1 - h]) / (h * dt)


def rolling_sigma_reference(price_history, tau: int, aligned: bool = False) -> float:
    """The price dispersion over the trailing windows of a history slice."""
    n = len(price_history)
    if n < 2:
        return 0.0
    t = min(tau, n - 1)
    prices = np.asarray(price_history, dtype=float)
    window = prices[n - t : n]
    mean = np.add.reduce(window if aligned else prices[n - t - 1 : n - 1]) / t
    dev = window - mean
    var = float(np.add.reduce(dev * dev)) * math.sqrt(t) / t
    return math.sqrt(var)


def current_price_reference(book: OrderBook, last_trade, previous_price: float) -> float:
    """The price proxy read from the book's best quotes."""
    if previous_price <= 0.0:
        raise ValueError("previous_price must be > 0")
    if last_trade is not None:
        return last_trade.price
    bid = book.best_bid_ticks()
    ask = book.best_ask_ticks()
    if bid is not None and ask is not None:
        return (bid + ask) * book.tick_size / 2.0
    return previous_price


class MarketView(NamedTuple):
    """Per-step market context consumed by the switching rules."""

    p: float
    p_f: float
    trend_f: float  # average price trend over the fundamentalist horizon
    trend_c: float  # average price trend over the chartist horizon


@dataclass
class SwitchStats:
    switches: int = 0
    clamped: int = 0
    counts: tuple[int, int, int] = (0, 0, 0)  # (n_f, n_plus, n_minus) after the sweep


def switch_sweep(
    pop: Population,
    market: MarketView,
    params: SimConfig,
    rng: np.random.Generator,
    only=None,
    counts: tuple[int, int, int] | None = None,
    uniforms: np.ndarray | None = None,
) -> SwitchStats:
    """One sweep of `apply_switching` over `pop.types`, moved in place.

    `counts` are counted and the n `uniforms` drawn from `rng` when not
    given. `only` lists the agents that may move: one agent goes through
    the kernel's per-trade variant; any other list hides every other
    agent's draw behind +inf, above every reach, in an all-agents sweep.
    """
    n_f, n_plus, n_minus = pop.counts() if counts is None else counts
    n = len(pop.types)
    u = np.asarray(rng.random(n) if uniforms is None else uniforms, dtype=float)
    agent = None
    if only is not None:
        allowed = sorted({int(i) for i in only})
        if len(allowed) == 1:
            agent = allowed[0]
        else:
            u = np.where(np.isin(np.arange(n), allowed), u, np.inf)
    switches, clamped, after = apply_switching(
        memoryview(pop.types), n_f, n_plus, n_minus, *market, params, memoryview(u), 0, agent)
    return SwitchStats(switches, clamped, after)


# ---------------------------------------------------------------------------
# book reference and inspection
# ---------------------------------------------------------------------------


class NaiveBook:
    """Reference book: a flat list of resting orders rescanned on every operation.

    Each order is a row (side, ticks, submit_step, order_id, agent_id,
    expires_at); ids count resting orders from 0, as `OrderBook` numbers them.
    """

    def __init__(self, allow_self_trades: bool = False):
        self.allow_self_trades = allow_self_trades
        self.orders = []
        self.next_id = 0
        self.self_trade_rejections = 0

    def best(self, side):
        rows = [o for o in self.orders if o[0] == side]
        if not rows:
            return None
        if side == Side.BUY:
            return max(rows, key=lambda o: (o[1], -o[2], -o[3]))
        return min(rows, key=lambda o: (o[1], o[2], o[3]))

    def submit(self, it, t):
        """(ticks, buyer, seller) of the trade `it` makes, else None."""
        opposite = Side.SELL if it.side == Side.BUY else Side.BUY
        best = self.best(opposite)
        crossing = best is not None and (
            it.ticks >= best[1] if it.side == Side.BUY else it.ticks <= best[1]
        )
        if crossing:
            if best[4] == it.agent_id and not self.allow_self_trades:
                self.self_trade_rejections += 1
                return None  # dropped
            self.orders.remove(best)
            if it.side == Side.BUY:
                return (best[1], it.agent_id, best[4])
            return (best[1], best[4], it.agent_id)
        self.orders.append((it.side, it.ticks, t, self.next_id, it.agent_id, t + it.horizon))
        self.next_id += 1
        return None

    def expire(self, t) -> None:
        self.orders = [o for o in self.orders if o[5] > t]

    def purge_outside(self, lo, hi, tick_size) -> None:
        self.orders = [o for o in self.orders if lo <= o[1] * tick_size <= hi]

    def quote_ticks(self):
        """(best bid, best ask, bid gap, ask gap, depth), NO_TICK where absent."""
        bids = sorted({o[1] for o in self.orders if o[0] == Side.BUY}, reverse=True)
        asks = sorted({o[1] for o in self.orders if o[0] == Side.SELL})
        return (
            bids[0] if bids else NO_TICK,
            asks[0] if asks else NO_TICK,
            bids[0] - bids[1] if len(bids) > 1 else NO_TICK,
            asks[1] - asks[0] if len(asks) > 1 else NO_TICK,
            len(self.orders),
        )

    def live_orders(self):
        """(order_id, agent_id, side, ticks, submit_step, expires_at) of every
        resting order, oldest first, as `OrderBook` records them."""
        return sorted((o[3], o[4], o[0], o[1], o[2], o[5]) for o in self.orders)

    def pledges(self, n_agents):
        cash, shares = [0] * n_agents, [0] * n_agents
        for side, ticks, _, _, agent, _ in self.orders:
            if side == Side.BUY:
                cash[agent] += ticks
            else:
                shares[agent] += 1
        return cash, shares


def resting_orders(book: OrderBook) -> list:
    """Every resting order, oldest first."""
    return [book._orders[oid] for oid in sorted(book._orders)]


def order_price(order, tick_size: float) -> float:
    return order.ticks * tick_size


# ---------------------------------------------------------------------------
# expectation draws
# ---------------------------------------------------------------------------


def expected_price_reference(
    agent_type: int,
    p: float,
    p_f: float,
    sigma_tau: float,
    params: SimConfig,
    rng: np.random.Generator,
) -> float:
    """`expected_price` with its normal draws taken as rng.normal(0.0, scale)."""
    if agent_type == FUNDAMENTALIST:
        value = p_f * (1.0 + rng.normal(0.0, params.sigma_eps / params.gamma_f))
    elif agent_type == OPTIMIST:
        value = p + abs(rng.normal(0.0, sigma_tau / params.gamma_c))
    elif agent_type == PESSIMIST:
        value = p - abs(rng.normal(0.0, sigma_tau / params.gamma_c))
    else:
        raise ValueError(f"unknown agent type {agent_type}")
    return max(value, params.tick)


def draw_k_reference(rng: np.random.Generator, scale: float) -> float:
    """`draw_k` as rng.exponential(scale)."""
    return float(rng.exponential(scale))


# ---------------------------------------------------------------------------
# fundamental value, one step at a time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FundamentalState:
    value: float
    time: int = 0


def apply_log_increment(state: FundamentalState, eps: float) -> FundamentalState:
    """Advance one step with a given log increment; the exponential map keeps value > 0."""
    value = state.value * math.exp(eps)
    if not math.isfinite(value) or value <= 0.0:
        raise FloatingPointError(
            f"fundamental value became non-finite at t={state.time + 1} (eps={eps!r})"
        )
    return FundamentalState(value=value, time=state.time + 1)


def step_fundamental(
    state: FundamentalState, sigma_eps: float, dt: float, rng: np.random.Generator
) -> FundamentalState:
    """One Gaussian log-step of size sigma_eps * sqrt(dt).

    Summing 1/dt consecutive steps gives a unit-time log increment with
    standard deviation sigma_eps.
    """
    if sigma_eps < 0.0:
        raise ValueError("sigma_eps must be >= 0")
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    eps = sigma_eps * math.sqrt(dt) * rng.standard_normal()
    return apply_log_increment(state, eps)
