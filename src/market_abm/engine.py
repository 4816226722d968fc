"""Trading-loop orchestration.

Each step: expire stale orders, let every agent reconsider its opinion,
advance the fundamental value, pick one trader at random, turn its
expectation into an order, filter through the price band and the budget,
match against the book, and record the market state.

Cash is accounted in integer ticks and shares as integers, so conservation
holds exactly. The book escrows the cash pledged by resting bids and the
shares pledged by resting asks until the order trades, expires or is
purged; the budget filter spends only what is not pledged, which makes it
sound even with several live orders per agent. Every run ends by checking
the book's escrow against its resting orders.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

# The step loop computes expected_price, draw_k, enforce_budget and
# current_price inline (per block of steps the draws and the fundamentalists'
# expectations and reservations, per step the rest) and calls decide_order on
# chartist steps only. The names stay bound in this module, where the
# benchmark's tracer wraps them, and tests run the loop against them.
from .book import BUY, NO_TICK, SELL, OrderBook, Side, Trade, current_price  # noqa: F401
from .config import SimConfig
from .expectations import (  # noqa: F401
    decide_order, draw_k, expected_price, reservation_ticks, rolling_sigma,
)
from .fundamental import fundamental_path
from .population import (
    FUNDAMENTALIST, OPTIMIST, PESSIMIST, Population, apply_switching, average_price_trend,
)

_BAND_EPS = 1e-12  # relative slack so exact boundary prices stay inside the band
_DRAW_BLOCK_DOUBLES = 32_768  # switching uniforms drawn at once: 65 sweeps of 500 agents, 254 KiB
_TRADE_BLOCK = 4_096  # steps of trader picks, noises and offsets drawn at once: 32 KiB each


def _column(dtype) -> dataclasses.Field:
    """A record column, tagged with the dtype it is allocated and loaded as."""
    return field(metadata={"dtype": dtype})


@dataclass
class StepRecords:
    """Column-oriented per-step market snapshots; quote fields are NaN when
    undefined. The fields, in order, are the columns of `steps.csv`."""

    step: np.ndarray = _column(np.int64)
    price: np.ndarray = _column(np.float64)
    fundamental_value: np.ndarray = _column(np.float64)
    best_bid: np.ndarray = _column(np.float64)
    best_ask: np.ndarray = _column(np.float64)
    spread: np.ndarray = _column(np.float64)
    bid_gap: np.ndarray = _column(np.float64)
    ask_gap: np.ndarray = _column(np.float64)
    depth: np.ndarray = _column(np.int64)
    n_f: np.ndarray = _column(np.int64)
    n_plus: np.ndarray = _column(np.int64)
    n_minus: np.ndarray = _column(np.int64)
    traded: np.ndarray = _column(np.bool_)
    trade_price: np.ndarray = _column(np.float64)

    def __len__(self) -> int:
        return len(self.step)

    @classmethod
    def allocate(cls, n_steps: int) -> StepRecords:
        """Records for steps 1..n_steps: floats NaN, ints 0, flags False."""
        columns = {
            name: np.full(n_steps, np.nan) if np.dtype(dtype).kind == "f"
            else np.zeros(n_steps, dtype=dtype)
            for name, dtype in STEP_SCHEMA
        }
        columns["step"] = np.arange(1, n_steps + 1, dtype=np.int64)
        return cls(**columns)

    @property
    def pc(self) -> np.ndarray:
        """Chartist fraction per step."""
        n = self.n_f + self.n_plus + self.n_minus
        return (self.n_plus + self.n_minus) / n


@dataclass
class TradeRecords:
    """One row per trade; the fields, in order, are the columns of `trades.csv`."""

    step: np.ndarray
    price: np.ndarray
    buyer_id: np.ndarray
    seller_id: np.ndarray
    aggressor: np.ndarray

    def __len__(self) -> int:
        return len(self.step)


# (name, dtype) of each step column, in file order: allocation, the writer and the loader read it.
STEP_SCHEMA = tuple((f.name, f.metadata["dtype"]) for f in dataclasses.fields(StepRecords))
STEP_COLUMNS = [name for name, _ in STEP_SCHEMA]
TRADE_COLUMNS = [f.name for f in dataclasses.fields(TradeRecords)]


@dataclass
class RunOutput:
    config: SimConfig
    records: StepRecords
    trades: TradeRecords
    final_population: Population  # opinions and holdings at the end of the run
    rejections: dict[str, int]
    clamp_events: int
    switch_count: int
    lob_snapshots: dict[int, list[tuple[float, int]]] = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.config.seed


def circuit_breaker(reference_close: float, band: float) -> tuple[float, float]:
    """Price limits (lo, hi) of the +-band around the previous period close:
    new orders outside them are dropped, resting orders outside them purged."""
    if reference_close <= 0.0:
        raise ValueError("reference_close must be > 0")
    return (
        reference_close * (1.0 - band) * (1.0 - _BAND_EPS),
        reference_close * (1.0 + band) * (1.0 + _BAND_EPS),
    )


def enforce_budget(side: Side, ticks: int, book: OrderBook, available_cash_ticks: int,
                   available_shares: int) -> bool:
    """Whether the agent can settle a one-unit order on `side` at `ticks`.

    A buy needs cash for its actual cost: the best ask when it would cross,
    otherwise its own reservation. A sell needs one unencumbered share
    (short sales are forbidden).
    """
    if side == BUY:
        best_ask = book.best_ask_ticks()
        return available_cash_ticks >= (
            best_ask if best_ask is not None and ticks >= best_ask else ticks)
    return available_shares >= 1


def settle_trade(cash_ticks, shares, trade: Trade) -> None:
    """Move the price in cash and one share between the counterparties'
    holdings, indexed by agent id."""
    buyer, seller = trade.buyer_id, trade.seller_id
    if cash_ticks[buyer] < trade.ticks:
        raise RuntimeError(f"settle at step {trade.step}: buyer {buyer} cannot pay {trade.ticks}")
    if shares[seller] < 1:
        raise RuntimeError(f"settle at step {trade.step}: seller {seller} holds no share")
    cash_ticks[buyer] -= trade.ticks
    cash_ticks[seller] += trade.ticks
    shares[buyer] += 1
    shares[seller] -= 1
    if cash_ticks[buyer] < 0 or shares[seller] < 0:
        raise RuntimeError(f"settle at step {trade.step}: negative holdings after settle")


def check_escrow(book: OrderBook) -> None:
    """The book's running escrow must equal what its resting orders pledge,
    per agent: the ticks of its bids in cash and one share per ask."""
    if book.pledges() != (book.pledged_cash, book.pledged_shares):
        raise RuntimeError("escrow violated: pledged cash or shares differ from resting orders")


def run_simulation(config: SimConfig, lob_snapshot_steps=()) -> RunOutput:
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

    fund_ss, switch_ss, trade_ss = np.random.SeedSequence(config.seed).spawn(3)
    rng_switch = np.random.default_rng(switch_ss)
    # a stream each for the trader pick, the expectation noise and the reservation offset
    rng_pick, rng_noise, rng_offset = map(np.random.default_rng, trade_ss.spawn(3))
    block = _TRADE_BLOCK

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
    # the level ticks (bids best last, asks best first) and resting orders,
    # read in place: the budget filter reads the best ask, the record the
    # quotes, gaps and depth as quote_ticks gives them
    bids, asks, resting = book.bid_levels, book.ask_levels, book.resting

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

    no_order = band_rejects = budget_buys = budget_sells = 0
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
    noise_f = config.sigma_eps / config.gamma_f  # a fundamentalist's noise scale
    gamma_c = config.gamma_c
    band = config.band
    lo, hi = circuit_breaker(config.p0, band)
    p_prev = float(price[0])  # price[t - 1]; a Python float computes the same values faster
    for t in range(1, n_steps + 1):
        # new trading period: the band anchor moved, purge stale out-of-band orders
        if t > 1 and (t - 1) % spp == 0:
            lo, hi = circuit_breaker(p_prev, band)
            book.purge_outside(lo, hi)

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

        # Per block: the draws of its steps (the reservation offset as draw_k
        # computes it) and, since they read no market state, every step's
        # fundamentalist expectation (as expected_price computes it, floored
        # at one tick) and its buy and sell reservations in ticks.
        j = (t - 1) % block
        if j == 0:
            # the last block's tables go before this block's are drawn
            picks = noise = ks = e_f = buy_f = sell_f = z = k = None
            picks = memoryview(rng_pick.integers(n_agents, size=block))
            z = rng_noise.standard_normal(block)
            k = rng_offset.standard_exponential(block)
            k *= k_scale
            p_f = fv[t : t + block]
            e_f = np.multiply(noise_f, z[: len(p_f)])
            e_f += 1.0
            e_f *= p_f
            np.maximum(e_f, tick, out=e_f)  # NaN passes through
            buy_f, sell_f = map(memoryview, reservation_ticks(e_f, k[: len(p_f)], tick))
            noise, ks, e_f = memoryview(z), memoryview(k), memoryview(e_f)
        # Per step: the trader's side and reservation in ticks, as
        # decide_order returns them; ticks <= 0 means no order.
        agent = picks[j]
        agent_type = kinds[agent]
        if fv_at[t] <= 0.0:
            raise ValueError("prices must be > 0")
        if agent_type == FUNDAMENTALIST:
            horizon = horizon_f
            expectation = e_f[j]
            if expectation > p_prev:
                side, ticks = BUY, buy_f[j]
            elif expectation < p_prev:
                side, ticks = SELL, sell_f[j]
            else:
                ticks = 0
        else:
            horizon = horizon_c
            sigma_tau = rolling_sigma(price, t, horizon_c)
            if agent_type == OPTIMIST:
                expectation = p_prev + abs(sigma_tau / gamma_c * noise[j])
            elif agent_type == PESSIMIST:
                expectation = p_prev - abs(sigma_tau / gamma_c * noise[j])
            else:
                raise ValueError(f"unknown agent type {agent_type}")
            if tick > expectation:  # max(expectation, tick), NaN passing through
                expectation = tick
            side, ticks = decide_order(expectation, p_prev, ks[j], tick)

        # The band, then the budget as enforce_budget checks it: a buy needs
        # cash for what it would pay (the best ask when it crosses, else its
        # own reservation), a sell one share, both beyond what is pledged.
        trade = None
        if ticks <= 0:
            no_order += 1
        elif not lo <= ticks * tick <= hi:
            band_rejects += 1
        elif side == BUY and cash[agent] - pledged_cash[agent] < (
                asks[0] if asks and ticks >= asks[0] else ticks):
            budget_buys += 1
        elif side == SELL and shares[agent] - pledged_shares[agent] < 1:
            budget_sells += 1
        else:
            trade = book.submit(agent, side, int(ticks), horizon, t)
            if trade is not None:
                settle_trade(cash, shares, trade)
                trade_rows.extend(trade)

        # The quotes as quote_ticks reads them, then the price proxy, as
        # current_price takes it: the trade's price, else the mid-quote of a
        # two-sided book, else the previous price.
        if bids:
            bid = bids[-1]
            bid_gap = bid - bids[-2] if len(bids) > 1 else NO_TICK
        else:
            bid = bid_gap = NO_TICK
        if asks:
            ask = asks[0]
            ask_gap = asks[1] - ask if len(asks) > 1 else NO_TICK
        else:
            ask = ask_gap = NO_TICK
        if trade is not None:
            p_now = trade.ticks * tick_size
        elif bid and ask:
            p_now = (bid + ask) * tick_size / 2.0
        else:
            p_now = p_prev
        if not 0.0 < p_now < math.inf:
            raise FloatingPointError(f"non-finite or non-positive price at step {t}: {p_now!r}")
        price_at[t] = p_now

        i = t - 1
        bid_at[i] = bid
        ask_at[i] = ask
        bid_gap_at[i] = bid_gap
        ask_gap_at[i] = ask_gap
        depth_at[i] = len(resting)

        if t in snapshot_at:
            snapshots[t] = book.snapshot_levels()
        p_prev = p_now

    rejections = {"band": band_rejects, "budget_buy": budget_buys, "budget_sell": budget_sells,
                  "self_cross": book.self_trade_rejections, "no_order": no_order}

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


def _run_seed(config: SimConfig, seed: int) -> tuple[int, RunOutput | Exception, float]:
    """One seed's run, or the exception it raised, and the seconds it took,
    measured where it runs so that a pooled run's time excludes its wait in
    the pool's queue."""
    started = time.perf_counter()
    try:
        result = run_simulation(dataclasses.replace(config, seed=seed))
    except Exception as exc:  # noqa: BLE001 - reported per seed
        result = exc
    return seed, result, time.perf_counter() - started


def _take(pending: dict, future) -> tuple[int, RunOutput | Exception, float | None]:
    """A finished future's outcome, removed from `pending`; a failure of the
    pool itself (a worker that died, a result that could not be sent back)
    is its seed's exception."""
    seed = pending.pop(future)
    try:
        return future.result()
    except Exception as exc:  # noqa: BLE001 - reported per seed
        return seed, exc, None


def run_seeds(config: SimConfig, seeds, workers: int = 1):
    """Independent runs of `config`, one per seed.

    Yields (seed, RunOutput or the exception the run raised, seconds the run
    took, None if the pool itself failed) as each run finishes: in seed order
    when `workers` <= 1, else in completion order on a pool of `workers`
    processes, or of one per seed if there are fewer seeds. Nothing here
    refers to a run once it is yielded, so a caller that lets each run go
    holds only the runs the pool has finished and not yet handed over.
    """
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    if workers <= 1 or not seeds:
        for seed in seeds:
            yield _run_seed(config, seed)
        return
    pool_size = min(workers, len(seeds))  # a forked pool starts every worker at the first submit
    with concurrent.futures.ProcessPoolExecutor(max_workers=pool_size) as pool:
        pending = {pool.submit(_run_seed, config, seed): seed for seed in seeds}
        while pending:
            done = concurrent.futures.wait(
                pending, return_when=concurrent.futures.FIRST_COMPLETED).done
            while done:
                yield _take(pending, done.pop())
