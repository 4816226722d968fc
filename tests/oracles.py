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
- an order's fields as one tuple, `Order`, which a test unpacks into
  `OrderBook.submit` and hands whole to the naive book;
- a naive order book that rescans a flat list of resting orders on every
  operation, and a listing of a book's resting orders and an order's price
  in currency;
- the expectation and reservation-offset draws as `rng.normal` and
  `rng.exponential` calls, which the library takes as scaled standard draws;
- the step-by-step fundamental value process, which `fundamental_path`
  computes in one vectorised pass;
- `reference_run`, the step loop that calls the step helpers (expectation,
  reservation offset, order pricing, budget filter and price proxy) and
  purges the book by scanning every level, which `run_simulation` computes
  inline and by bisection.
"""

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from market_abm.book import BUY, NO_TICK, SELL, OrderBook, Side, current_price
from market_abm.config import SimConfig
from market_abm.engine import (
    STEP_COLUMNS,
    TRADE_COLUMNS,
    _DRAW_BLOCK_DOUBLES,
    RunOutput,
    StepRecords,
    TradeRecords,
    check_escrow,
    circuit_breaker,
    enforce_budget,
    settle_trade,
)
from market_abm.expectations import decide_order, draw_k, expected_price, rolling_sigma
from market_abm.fundamental import fundamental_path
from market_abm.population import (
    FUNDAMENTALIST,
    OPTIMIST,
    PESSIMIST,
    Population,
    apply_switching,
    average_price_trend,
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


def rolling_sigma_reference(price_history, tau: int) -> float:
    """The price dispersion over the trailing windows of a history slice."""
    n = len(price_history)
    if n < 2:
        return 0.0
    t = min(tau, n - 1)
    prices = np.asarray(price_history, dtype=float)
    window = prices[n - t : n]
    mean = np.add.reduce(prices[n - t - 1 : n - 1]) / t
    dev = window - mean
    var = float(np.add.reduce(dev * dev)) * math.sqrt(t) / t
    return math.sqrt(var)


def current_price_reference(book: OrderBook, fill_ticks, previous_price: float) -> float:
    """The price proxy read from the book's best quotes."""
    if previous_price <= 0.0:
        raise ValueError("previous_price must be > 0")
    if fill_ticks is not None:
        return fill_ticks * book.tick_size
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
    given. `only` lists the agents that may move: every other agent's draw
    is hidden behind +inf, above every reach.
    """
    n_f, n_plus, n_minus = pop.counts() if counts is None else counts
    n = len(pop.types)
    u = np.asarray(rng.random(n) if uniforms is None else uniforms, dtype=float)
    if only is not None:
        u = np.where(np.isin(np.arange(n), only), u, np.inf)
    switches, clamped, after = apply_switching(
        memoryview(pop.types), n_f, n_plus, n_minus, *market, params, memoryview(u), 0)
    return SwitchStats(switches, clamped, after)


# ---------------------------------------------------------------------------
# book reference and inspection
# ---------------------------------------------------------------------------


class Order(NamedTuple):
    """One submission: `OrderBook.submit(*order, t)` takes its fields in order."""

    agent_id: int
    side: Side
    ticks: int  # reservation price in tick units, > 0
    horizon: int  # lifetime in steps once resting


class NaiveBook:
    """Reference book: a flat list of resting orders rescanned on every operation.

    Each order is a row (side, ticks, submit_step, order_id, agent_id,
    expires_at); ids count resting orders from 0, as `OrderBook` numbers them.
    """

    def __init__(self):
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

    def submit(self, it: Order, t):
        """(ticks, buyer, seller) of the trade order `it` makes, else None."""
        opposite = Side.SELL if it.side == Side.BUY else Side.BUY
        best = self.best(opposite)
        crossing = best is not None and (
            it.ticks >= best[1] if it.side == Side.BUY else it.ticks <= best[1]
        )
        if crossing:
            if best[4] == it.agent_id:
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
        """(order_id, agent_id, side, ticks) of every resting order, oldest
        first, as `resting_orders` reads them off an `OrderBook`."""
        return sorted((o[3], o[4], o[0], o[1]) for o in self.orders)

    def pledges(self, n_agents):
        cash, shares = [0] * n_agents, [0] * n_agents
        for side, ticks, _, _, agent, _ in self.orders:
            if side == Side.BUY:
                cash[agent] += ticks
            else:
                shares[agent] += 1
        return cash, shares


def resting_orders(book: OrderBook) -> list:
    """(order_id, agent_id, side, ticks) of every resting order, oldest first."""
    return [(oid, *book._orders[oid]) for oid in sorted(book._orders)]


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


# ---------------------------------------------------------------------------
# the step loop
# ---------------------------------------------------------------------------


def scan_purge(book: OrderBook, lo: float, hi: float) -> None:
    """`OrderBook.purge_outside` as a scan that tests every level's price."""
    for side in (BUY, SELL):
        bad = [
            ticks
            for ticks in book._ticks[side]
            if ticks * book.tick_size < lo or ticks * book.tick_size > hi
        ]
        for ticks in bad:
            for oid in list(book._levels[side][ticks]):
                book._remove(oid)


def reference_run(config: SimConfig, lob_snapshot_steps=()) -> RunOutput:
    """`run_simulation`'s step loop before it inlined its step helpers: it
    draws the trader, the expectation noise and the reservation offset one
    step at a time, calls rolling_sigma on every chartist step and
    expected_price, draw_k, decide_order, enforce_budget and current_price
    once per step, and purges out-of-band levels by `scan_purge`. The
    library's run must match it bit for bit."""
    config.validate()
    n_steps = config.steps
    snapshot_at = set(int(s) for s in lob_snapshot_steps)
    outside = sorted(s for s in snapshot_at if not 1 <= s <= n_steps)
    if outside:
        raise ValueError(f"lob snapshot steps outside 1..{n_steps}: {outside}")
    n_agents = config.n_agents
    spp = config.steps_per_period
    tick = config.tick
    dt = config.dt
    horizon_f, horizon_c = config.horizon_f, config.horizon_c
    k_scale = config.k_scale

    seed_seq = np.random.SeedSequence(config.seed)
    fund_ss, switch_ss, trade_ss = seed_seq.spawn(3)
    rng_switch = np.random.default_rng(switch_ss)
    # one stream each for the trader pick, the expectation noise and the
    # reservation offset, drawn one step at a time
    rng_pick, rng_noise, rng_offset = map(np.random.default_rng, trade_ss.spawn(3))

    fv = fundamental_path(config.pf0, config.sigma_eps, dt, n_steps, np.random.default_rng(fund_ss))
    fv_at = memoryview(fv)

    pop = Population.initial(
        n_agents=n_agents, frac_f=config.init_frac_f, frac_opt=config.init_frac_opt,
        cash=config.init_cash, shares=config.init_shares, tick_size=tick,
    )
    # The holdings ledger is plain ints during the run and goes back into
    # `pop` at its end; the book keeps what resting orders pledge of it.
    cash = pop.cash_ticks.tolist()
    shares = pop.shares.tolist()
    total_cash0, total_shares0 = sum(cash), sum(shares)

    book = OrderBook(tick, n_agents)
    tick_size = book.tick_size  # float; the book prices every tick with it
    pledged_cash, pledged_shares = book.pledged_cash, book.pledged_shares

    # Per-step values go through memoryviews, which read and store Python
    # numbers faster than numpy indexing. The quote and gap columns hold tick
    # counts (exact in a double below 2**53) until they are priced in place at
    # the end; separate int64 columns raised a run's peak memory by ~1 MiB.
    price = np.empty(n_steps + 1)
    price[0] = config.p0
    price_at = memoryview(price)
    rec = StepRecords.allocate(n_steps)
    tick_cols = (rec.best_bid, rec.best_ask, rec.bid_gap, rec.ask_gap)
    bid_at, ask_at, bid_gap_at, ask_gap_at = map(memoryview, tick_cols)
    depth_at = memoryview(rec.depth)
    trade_rows = array("q")  # (step, ticks, buyer, seller, aggressor) per trade

    rejections = {"band": 0, "budget_buy": 0, "budget_sell": 0, "self_cross": 0, "no_order": 0}
    clamp_events = 0
    switch_count = 0
    snapshots = {}

    kinds = memoryview(pop.types)  # apply_switching moves agents in place
    n_f, n_plus, n_minus = pop.counts()
    rec.n_plus[:] = n_plus
    rec.n_minus[:] = n_minus
    n_plus_at, n_minus_at = memoryview(rec.n_plus), memoryview(rec.n_minus)
    # Sweeps read their uniforms at a row offset in a flat block of sweeps
    # drawn at once; rng.random(n * k) yields the same stream as k calls of
    # rng.random(n).
    block_size = max(1, _DRAW_BLOCK_DOUBLES // n_agents) * n_agents
    offset = block_size - n_agents  # so that the first sweep draws a block

    switching = config.switch_mode != "off"
    band = config.band
    lo, hi = circuit_breaker(config.p0, band)
    p_prev = float(price[0])  # price[t - 1]; a Python float computes the same values faster
    for t in range(1, n_steps + 1):
        # new trading period: the band anchor moved, purge stale out-of-band orders
        if t > 1 and (t - 1) % spp == 0:
            lo, hi = circuit_breaker(p_prev, band)
            scan_purge(book, lo, hi)

        book.expire(t)

        if switching:
            trend_c = average_price_trend(price_at, t, horizon_c, dt)
            trend_f = average_price_trend(price_at, t, horizon_f, dt)
            offset += n_agents
            if offset == block_size:
                draws, offset = memoryview(rng_switch.random(block_size)), 0
            switches, clamped, (n_f, n_plus, n_minus) = apply_switching(
                kinds, n_f, n_plus, n_minus, p_prev, fv_at[t - 1], trend_f, trend_c,
                config, draws, offset)
            clamp_events += clamped
            switch_count += switches
            n_plus_at[t - 1] = n_plus
            n_minus_at[t - 1] = n_minus

        p_f_now = fv_at[t]

        agent = int(rng_pick.integers(n_agents))
        agent_type = kinds[agent]
        if agent_type == FUNDAMENTALIST:
            sigma_tau = 0.0
            horizon = horizon_f
        else:
            sigma_tau = rolling_sigma(price, t, horizon_c)
            horizon = horizon_c
        expectation = expected_price(agent_type, p_prev, p_f_now, sigma_tau, config, rng_noise)
        k = draw_k(rng_offset, k_scale)
        side, ticks = decide_order(expectation, p_prev, k, tick)

        fill_ticks = None
        if ticks <= 0:
            rejections["no_order"] += 1
        elif not lo <= ticks * tick <= hi:
            rejections["band"] += 1
        elif not enforce_budget(side, ticks, book, cash[agent] - pledged_cash[agent],
                                shares[agent] - pledged_shares[agent]):
            rejections["budget_buy" if side == BUY else "budget_sell"] += 1
        else:
            fill = book.submit(agent, side, ticks, horizon, t)
            if fill is not None:
                fill_ticks, buyer, seller = fill
                settle_trade(cash, shares, fill_ticks, buyer, seller, t)
                trade_rows.extend((t, fill_ticks, buyer, seller, side))

        bid, ask, bid_gap, ask_gap, depth = book.quote_ticks()
        p_now = current_price(fill_ticks, bid, ask, tick_size, p_prev)
        if not math.isfinite(p_now) or p_now <= 0.0:
            raise FloatingPointError(f"non-finite or non-positive price at step {t}: {p_now!r}")
        price_at[t] = p_now

        i = t - 1
        bid_at[i] = bid
        ask_at[i] = ask
        bid_gap_at[i] = bid_gap
        ask_gap_at[i] = ask_gap
        depth_at[i] = depth

        if t in snapshot_at:
            snapshots[t] = book.snapshot_levels()
        p_prev = p_now

    rejections["self_cross"] = book.self_trade_rejections

    pop.cash_ticks[:] = cash
    pop.shares[:] = shares
    if int(pop.cash_ticks.sum()) != total_cash0 or int(pop.shares.sum()) != total_shares0:
        raise RuntimeError("conservation violated: cash or share totals changed")
    if (pop.cash_ticks < 0).any() or (pop.shares < 0).any():
        raise RuntimeError("negative holdings at end of run")
    check_escrow(book)

    tr_step, tr_ticks, tr_buyer, tr_seller, tr_aggr = np.reshape(trade_rows, (-1, 5)).T
    trades = TradeRecords(
        step=tr_step.copy(), price=tr_ticks * tick_size, buyer_id=tr_buyer.copy(),
        seller_id=tr_seller.copy(), aggressor=tr_aggr.astype(np.int8),
    )
    # price the tick columns as the book does: a quote or gap is ticks * tick,
    # the spread (ask - bid) * tick, and an absent one NaN
    for column in tick_cols:
        column[column == NO_TICK] = np.nan
    np.subtract(rec.best_ask, rec.best_bid, out=rec.spread)
    for column in (*tick_cols, rec.spread):
        column *= tick_size
    rec.price[:] = price[1:]
    rec.fundamental_value[:] = fv[1:]
    np.subtract(n_agents, rec.n_plus, out=rec.n_f)
    rec.n_f -= rec.n_minus
    rec.traded[trades.step - 1] = True
    rec.trade_price[trades.step - 1] = trades.price
    return RunOutput(
        config=config,
        records=rec,
        trades=trades,
        final_population=pop,
        rejections=rejections,
        clamp_events=clamp_events,
        switch_count=switch_count,
        lob_snapshots=snapshots,
    )
