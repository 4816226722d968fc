"""Trading-loop orchestration.

Each step: expire stale orders, let every agent reconsider its opinion,
advance the fundamental value, pick one trader at random, turn its
expectation into an order, filter through the price band and the budget,
match against the book, and record the market state.

Cash is accounted in integer ticks and shares as integers, so conservation
holds exactly. Cash pledged by resting bids and shares pledged by resting
asks are escrowed until the order trades, expires or is purged, which makes
the budget filter sound even with several live orders per agent.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .book import OrderBook, OrderIntent, Side, Trade, current_price
from .config import SimConfig
from .expectations import ExpectationParams, decide_order, draw_k, expected_price, rolling_sigma
from .fundamental import fundamental_path
from .population import (
    FUNDAMENTALIST,
    Agent,
    MarketView,
    Population,
    SwitchParams,
    apply_switching,
    average_price_trend,
)

_BAND_EPS = 1e-12  # relative slack so exact boundary prices stay inside the band
_DRAW_BLOCK_DOUBLES = 32_768  # switching uniforms drawn at once: 256 KiB, 64 sweeps of 500 agents

# The step record, in file column order: (name, dtype). It drives the
# allocation of `StepRecords`, the CSV writer and the loader.
STEP_SCHEMA = (
    ("step", np.int64),
    ("price", np.float64),
    ("fundamental_value", np.float64),
    ("best_bid", np.float64),
    ("best_ask", np.float64),
    ("spread", np.float64),
    ("bid_gap", np.float64),
    ("ask_gap", np.float64),
    ("depth", np.int64),
    ("n_f", np.int64),
    ("n_plus", np.int64),
    ("n_minus", np.int64),
    ("traded", np.bool_),
    ("trade_price", np.float64),
)
STEP_COLUMNS = [name for name, _ in STEP_SCHEMA]

TRADE_COLUMNS = ["step", "price", "buyer_id", "seller_id", "aggressor"]


@dataclass
class StepRecords:
    """Column-oriented per-step market snapshots; quote fields are NaN when undefined."""

    step: np.ndarray
    price: np.ndarray
    fundamental_value: np.ndarray
    best_bid: np.ndarray
    best_ask: np.ndarray
    spread: np.ndarray
    bid_gap: np.ndarray
    ask_gap: np.ndarray
    depth: np.ndarray
    n_f: np.ndarray
    n_plus: np.ndarray
    n_minus: np.ndarray
    traded: np.ndarray
    trade_price: np.ndarray

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
    step: np.ndarray
    price: np.ndarray
    buyer_id: np.ndarray
    seller_id: np.ndarray
    aggressor: np.ndarray

    def __len__(self) -> int:
        return len(self.step)


@dataclass
class RunOutput:
    config: SimConfig
    seed: int
    records: StepRecords
    trades: TradeRecords
    final_agents: list[Agent]
    rejections: dict[str, int]
    clamp_events: int
    switch_count: int
    lob_snapshots: dict[int, list[tuple[float, int]]] = field(default_factory=dict)


def circuit_breaker(intent: OrderIntent, reference_close: float, band: float) -> OrderIntent | None:
    """Drop intents priced outside +-band around the previous period close."""
    if reference_close <= 0.0:
        raise ValueError("reference_close must be > 0")
    hi = reference_close * (1.0 + band)
    lo = reference_close * (1.0 - band)
    if intent.price > hi * (1.0 + _BAND_EPS) or intent.price < lo * (1.0 - _BAND_EPS):
        return None
    return intent


def enforce_budget(
    intent: OrderIntent,
    book: OrderBook,
    available_cash_ticks: int,
    available_shares: int,
) -> OrderIntent | None:
    """Drop intents the agent cannot settle.

    A buy needs cash for its actual cost: the best ask when it would cross,
    otherwise its own reservation. A sell needs one unencumbered share
    (short sales are forbidden).
    """
    if intent.side == Side.BUY:
        best_ask = book.best_ask_ticks()
        required = best_ask if (best_ask is not None and intent.ticks >= best_ask) else intent.ticks
        if available_cash_ticks < required:
            return None
    else:
        if available_shares < 1:
            return None
    return intent


def settle_trade(pop: Population, trade: Trade) -> None:
    """Move the price in cash and one share between the counterparties."""
    buyer, seller = trade.buyer_id, trade.seller_id
    if pop.cash_ticks[buyer] < trade.ticks:
        raise RuntimeError(
            f"settle at step {trade.step}: buyer {buyer} cannot pay {trade.ticks} ticks"
        )
    if pop.shares[seller] < 1:
        raise RuntimeError(f"settle at step {trade.step}: seller {seller} holds no share")
    pop.cash_ticks[buyer] -= trade.ticks
    pop.cash_ticks[seller] += trade.ticks
    pop.shares[buyer] += 1
    pop.shares[seller] -= 1
    if pop.cash_ticks[buyer] < 0 or pop.shares[seller] < 0:
        raise RuntimeError(f"settle at step {trade.step}: negative holdings after settle")


def run_simulation(config: SimConfig, lob_snapshot_steps=()) -> RunOutput:
    config.validate()
    n_steps = config.steps
    n_agents = config.n_agents
    spp = config.steps_per_period
    tick = config.tick
    dt = config.dt

    seed_seq = np.random.SeedSequence(config.seed)
    fund_ss, switch_ss, trade_ss = seed_seq.spawn(3)
    rng_switch = np.random.default_rng(switch_ss)
    rng_trade = np.random.default_rng(trade_ss)

    fv = fundamental_path(config.pf0, config.sigma_eps, dt, n_steps, np.random.default_rng(fund_ss))

    pop = Population.initial(
        n_agents=n_agents,
        frac_f=config.init_frac_f,
        frac_opt=config.init_frac_opt,
        cash=config.init_cash,
        shares=config.init_shares,
        horizon_f=config.horizon_f,
        horizon_c=config.horizon_c,
        tick_size=tick,
    )
    total_cash0 = int(pop.cash_ticks.sum())
    total_shares0 = int(pop.shares.sum())
    committed_cash = np.zeros(n_agents, dtype=np.int64)
    committed_shares = np.zeros(n_agents, dtype=np.int64)

    book = OrderBook(tick_size=tick, allow_self_trades=config.allow_self_trades)
    sparams = SwitchParams(
        v1=config.v1, v2=config.v2, alpha1=config.alpha1, alpha2=config.alpha2,
        alpha3=config.alpha3, big_r=config.big_r, s=config.s,
    )
    eparams = ExpectationParams(
        gamma_f=config.gamma_f, gamma_c=config.gamma_c, k_scale=config.k_scale, tick=tick,
    )

    price = np.empty(n_steps + 1)
    price[0] = config.p0

    rec = StepRecords.allocate(n_steps)
    tr_step = np.empty(n_steps, dtype=np.int64)
    tr_price = np.empty(n_steps)
    tr_buyer = np.empty(n_steps, dtype=np.int64)
    tr_seller = np.empty(n_steps, dtype=np.int64)
    tr_aggr = np.empty(n_steps, dtype=np.int8)
    n_trades = 0

    rejections = {"band": 0, "budget_buy": 0, "budget_sell": 0, "self_cross": 0, "no_order": 0}
    clamp_events = 0
    switch_count = 0
    snapshots = {}
    snapshot_at = set(int(s) for s in lob_snapshot_steps)

    def release(order) -> None:
        if order.side == Side.BUY:
            committed_cash[order.agent_id] -= order.ticks
        else:
            committed_shares[order.agent_id] -= 1

    types = pop.types  # apply_switching moves agents in place
    counts = pop.counts()
    n_f, n_plus, n_minus = counts.n_f, counts.n_plus, counts.n_minus
    # All-agents sweeps take their uniforms from blocks of sweeps drawn at
    # once; rng.random(n * k) yields the same stream as k calls of
    # rng.random(n). Per-trade sweeps interleave an integer draw, so they
    # draw their own.
    per_trade = config.switch_mode == "per_trade"
    block_steps = max(1, _DRAW_BLOCK_DOUBLES // n_agents)
    draws = None

    period_start = price[0]
    p_prev = float(price[0])  # price[t - 1]; a Python float computes the same values faster
    for t in range(1, n_steps + 1):
        # new trading period: the band anchor moved, purge stale out-of-band orders
        if t > 1 and (t - 1) % spp == 0:
            period_start = price[t - 1]
            lo = period_start * (1.0 - config.band) * (1.0 - _BAND_EPS)
            hi = period_start * (1.0 + config.band) * (1.0 + _BAND_EPS)
            for order in book.purge_outside(lo, hi):
                release(order)

        for order in book.expire(t):
            release(order)

        if config.switching_enabled:
            history = price[:t]
            trend_c = average_price_trend(history, config.horizon_c, dt)
            if config.u2_trend_horizon == "chartist":
                trend_f = trend_c
            else:
                trend_f = average_price_trend(history, config.horizon_f, dt)
            market = MarketView(
                p=p_prev,
                p_f=fv[t - 1],
                trend_f=trend_f,
                trend_c=trend_c,
            )
            if per_trade:
                only = [int(rng_switch.integers(n_agents))]
                uniforms = None
            else:
                only = None
                row = (t - 1) % block_steps
                if row == 0:
                    draws = rng_switch.random(n_agents * block_steps).reshape(block_steps, n_agents)
                uniforms = draws[row]
            stats = apply_switching(
                pop, market, sparams, dt, rng_switch, only=only,
                counts=(n_f, n_plus, n_minus), uniforms=uniforms,
            )
            clamp_events += stats.clamped
            switch_count += stats.switches
            n_f, n_plus, n_minus = stats.counts

        p_f_now = fv[t]

        agent = int(rng_trade.integers(n_agents))
        agent_type = int(types[agent])
        if agent_type == FUNDAMENTALIST:
            sigma_tau = 0.0
            horizon = config.horizon_f
        else:
            sigma_tau = rolling_sigma(price[:t], config.horizon_c, config.sigma_window_aligned)
            horizon = config.horizon_c
        expectation = expected_price(
            agent_type, p_prev, p_f_now, sigma_tau, config.sigma_eps, eparams, rng_trade
        )
        k = draw_k(rng_trade, config.k_scale)
        intent = decide_order(agent, horizon, expectation, p_prev, k, tick)

        trade = None
        if intent is None:
            rejections["no_order"] += 1
        else:
            intent = circuit_breaker(intent, period_start, config.band)
            if intent is None:
                rejections["band"] += 1
            else:
                checked = enforce_budget(
                    intent,
                    book,
                    int(pop.cash_ticks[agent] - committed_cash[agent]),
                    int(pop.shares[agent] - committed_shares[agent]),
                )
                if checked is None:
                    rejections["budget_buy" if intent.side == Side.BUY else "budget_sell"] += 1
                else:
                    trade, rested = book.submit(checked, t)
                    if trade is not None:
                        if trade.aggressor == Side.BUY:
                            committed_shares[trade.seller_id] -= 1
                        else:
                            committed_cash[trade.buyer_id] -= trade.ticks
                        settle_trade(pop, trade)
                        tr_step[n_trades] = t
                        tr_price[n_trades] = trade.price
                        tr_buyer[n_trades] = trade.buyer_id
                        tr_seller[n_trades] = trade.seller_id
                        tr_aggr[n_trades] = int(trade.aggressor)
                        n_trades += 1
                    elif rested is not None:
                        if rested.side == Side.BUY:
                            committed_cash[agent] += rested.ticks
                        else:
                            committed_shares[agent] += 1
                    # both None: submit rejected a self-cross; counted by the book

        p_now = current_price(book, trade, p_prev)
        if not math.isfinite(p_now) or p_now <= 0.0:
            raise FloatingPointError(f"non-finite or non-positive price at step {t}: {p_now!r}")
        price[t] = p_now

        i = t - 1
        rec.price[i] = p_now
        rec.fundamental_value[i] = p_f_now
        bb, ba = book.best_bid(), book.best_ask()
        if bb is not None:
            rec.best_bid[i] = bb
        if ba is not None:
            rec.best_ask[i] = ba
        stats_book = book.spread_and_gaps()
        if stats_book.spread is not None:
            rec.spread[i] = stats_book.spread
        if stats_book.bid_gap is not None:
            rec.bid_gap[i] = stats_book.bid_gap
        if stats_book.ask_gap is not None:
            rec.ask_gap[i] = stats_book.ask_gap
        rec.depth[i] = stats_book.depth
        rec.n_f[i] = n_f
        rec.n_plus[i] = n_plus
        rec.n_minus[i] = n_minus
        if trade is not None:
            rec.traded[i] = True
            rec.trade_price[i] = trade.price

        if t in snapshot_at:
            snapshots[t] = book.snapshot_levels()
        p_prev = p_now

    rejections["self_cross"] = book.self_trade_rejections

    if int(pop.cash_ticks.sum()) != total_cash0 or int(pop.shares.sum()) != total_shares0:
        raise RuntimeError("conservation violated: cash or share totals changed")
    if (pop.cash_ticks < 0).any() or (pop.shares < 0).any():
        raise RuntimeError("negative holdings at end of run")

    trades = TradeRecords(
        step=tr_step[:n_trades].copy(),
        price=tr_price[:n_trades].copy(),
        buyer_id=tr_buyer[:n_trades].copy(),
        seller_id=tr_seller[:n_trades].copy(),
        aggressor=tr_aggr[:n_trades].copy(),
    )
    return RunOutput(
        config=config,
        seed=config.seed,
        records=rec,
        trades=trades,
        final_agents=pop.snapshot(),
        rejections=rejections,
        clamp_events=clamp_events,
        switch_count=switch_count,
        lob_snapshots=snapshots,
    )


class EnsembleError(RuntimeError):
    def __init__(self, failures: list[tuple[int, Exception]]):
        self.failures = failures
        detail = "; ".join(f"seed {s}: {e}" for s, e in failures)
        super().__init__(f"{len(failures)} run(s) failed: {detail}")


def _run_with_seed(args) -> RunOutput:
    config, seed, snapshot_steps = args
    cfg = dataclasses.replace(config, seed=seed)
    return run_simulation(cfg, lob_snapshot_steps=snapshot_steps)


def run_ensemble(
    config: SimConfig, seeds, workers: int = 1, lob_snapshot_steps=()
) -> list[RunOutput]:
    """Independent runs, one per seed, in seed order.

    Failures are collected per seed and raised together after every other
    run has finished.
    """
    seeds = list(seeds)
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    jobs = [(config, s, tuple(lob_snapshot_steps)) for s in seeds]
    results: list[RunOutput | None] = [None] * len(seeds)
    failures: list[tuple[int, Exception]] = []
    if workers <= 1:
        for i, job in enumerate(jobs):
            try:
                results[i] = _run_with_seed(job)
            except Exception as exc:  # noqa: BLE001 - reported per seed
                failures.append((seeds[i], exc))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_with_seed, job): i for i, job in enumerate(jobs)}
            for fut in concurrent.futures.as_completed(futures):
                i = futures[fut]
                try:
                    results[i] = fut.result()
                except Exception as exc:  # noqa: BLE001
                    failures.append((seeds[i], exc))
    if failures:
        failures.sort(key=lambda f: seeds.index(f[0]))
        raise EnsembleError(failures)
    return results  # type: ignore[return-value]
