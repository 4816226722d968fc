"""Trader population and stochastic opinion switching.

Agents hold one of three opinions: fundamentalists anchor on the fundamental
value, while optimists and pessimists (jointly, chartists) follow the price
trend. Every step each agent may switch opinion; the switching rates combine
a herding term (group sizes) with the relative profitability of strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

FUNDAMENTALIST = 0
OPTIMIST = 1
PESSIMIST = 2

# Groups holding less than this fraction of the population cannot be left,
# which keeps every opinion alive (no absorbing state).
MIN_GROUP_FRACTION = 0.008


@dataclass(frozen=True)
class SwitchParams:
    v1: float = 2.0
    v2: float = 0.6
    alpha1: float = 0.6
    alpha2: float = 1.5
    alpha3: float = 1.0
    big_r: float = 0.0004  # nominal return rate; r = big_r * p_f is recomputed each step
    s: float = 0.75

    def __post_init__(self):
        for name in ("v1", "v2", "alpha1", "alpha2", "alpha3", "big_r", "s"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"switch parameter {name} must be > 0")


class MarketView(NamedTuple):
    """Per-step market context consumed by the switching rules (a tuple,
    because the engine builds one every step)."""

    p: float
    p_f: float
    trend_f: float  # average price trend over the fundamentalist horizon
    trend_c: float  # average price trend over the chartist horizon


@dataclass
class SwitchStats:
    switches: int = 0
    clamped: int = 0
    counts: tuple[int, int, int] = (0, 0, 0)  # (n_f, n_plus, n_minus) after the sweep


def average_price_trend(price_history, horizon: int, dt: float) -> float:
    """Mean one-step price change per unit time over the trailing window.

    Telescopes to (p_last - p_first) / (h * dt); a shorter history shrinks
    the window, and fewer than two prices give 0 (cold start).
    """
    n = len(price_history)
    if n < 2 or horizon < 1:
        return 0.0
    h = min(horizon, n - 1)
    return (price_history[-1] - price_history[-1 - h]) / (h * dt)


def compute_U1(x: float, trend: float, p: float, params: SwitchParams) -> float:
    """Herding-plus-trend signal steering flows between optimists and pessimists."""
    if p <= 0.0:
        raise ValueError("price must be > 0")
    return params.alpha1 * x + (params.alpha2 / params.v1) * (trend / p)


def compute_U2(direction: int, trend: float, p: float, p_f: float, params: SwitchParams) -> float:
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


class Population:
    """Array-backed population: opinion codes and holdings, with cash in
    integer tick units so conservation checks are exact."""

    def __init__(self, types: np.ndarray, cash_ticks: np.ndarray, shares: np.ndarray):
        self.types = np.asarray(types, dtype=np.int8)
        self.cash_ticks = np.asarray(cash_ticks, dtype=np.int64)
        self.shares = np.asarray(shares, dtype=np.int64)
        if not (len(self.types) == len(self.cash_ticks) == len(self.shares)):
            raise ValueError("population arrays must have equal length")

    @classmethod
    def initial(
        cls,
        n_agents: int,
        frac_f: float,
        frac_opt: float,
        cash: float,
        shares: int,
        tick_size: float,
    ) -> "Population":
        n_f = round(frac_f * n_agents)
        n_plus = round(frac_opt * n_agents)
        n_minus = n_agents - n_f - n_plus
        if min(n_f, n_plus, n_minus) < 0:
            raise ValueError("initial fractions exceed 1")
        types = np.concatenate(
            [
                np.full(n_f, FUNDAMENTALIST, dtype=np.int8),
                np.full(n_plus, OPTIMIST, dtype=np.int8),
                np.full(n_minus, PESSIMIST, dtype=np.int8),
            ]
        )
        cash_ticks = np.full(n_agents, round(cash / tick_size), dtype=np.int64)
        holdings = np.full(n_agents, int(shares), dtype=np.int64)
        return cls(types, cash_ticks, holdings)

    def counts(self) -> tuple[int, int, int]:
        """(n_f, n_plus, n_minus)."""
        n_plus = int(np.count_nonzero(self.types == OPTIMIST))
        n_minus = int(np.count_nonzero(self.types == PESSIMIST))
        return len(self.types) - n_plus - n_minus, n_plus, n_minus


def apply_switching(
    pop: Population,
    market: MarketView,
    params: SwitchParams,
    dt: float,
    rng: np.random.Generator,
    only=None,
    counts: tuple[int, int, int] | None = None,
    uniforms: np.ndarray | None = None,
) -> SwitchStats:
    """One synchronous switching sweep over the whole population.

    Counts and signals are frozen at entry, one uniform draw decides each
    agent's move, and the two admissible targets per type split the unit
    interval in a fixed order (chartists: other camp first, then
    fundamentalist; fundamentalists: optimist first, then pessimist).
    Opinion groups below MIN_GROUP_FRACTION of the population cannot be left.
    `only` restricts the sweep to the given agent ids (the per-trade variant);
    the draw stream is consumed identically either way.

    `counts` is the caller's (n_f, n_plus, n_minus) of `pop.types`, counted
    here when not given. `uniforms` holds this sweep's n draws, taken from
    `rng` when not given, so a caller may draw several sweeps at once.
    Moves are written into `pop.types` in place; the stats carry the counts
    after the sweep.
    """
    if counts is None:
        counts = pop.counts()
    n_f, n_plus, n_minus = counts
    types = pop.types
    n = len(types)
    stats = SwitchStats(counts=tuple(counts))
    if n == 0:
        return stats

    n_c = n_plus + n_minus
    x = (n_plus - n_minus) / n_c if n_c else 0.0
    p, p_f, trend_c, trend_f = market.p, market.p_f, market.trend_c, market.trend_f
    u1 = compute_U1(x, trend_c, p, params)
    u21_c = compute_U2(OPTIMIST, trend_c, p, p_f, params)
    u21_f = compute_U2(OPTIMIST, trend_f, p, p_f, params)
    u22_c = compute_U2(PESSIMIST, trend_c, p, p_f, params)
    u22_f = compute_U2(PESSIMIST, trend_f, p, p_f, params)

    # Per-step probabilities rate * dt: a herding prefactor times exp(+-u),
    # where flows toward the optimist camp or away from fundamentalism take
    # exp(+u) and the reverse flows exp(-u). Each agent evaluates the trend
    # over its own current horizon, so paired flows use differently-horizoned
    # signals.
    v1, v2 = params.v1, params.v2
    o_to_p = v1 * (n_c / n) * math.exp(-u1) * dt
    p_to_o = v1 * (n_c / n) * math.exp(u1) * dt
    o_to_f = v2 * (n_f / n) * math.exp(-u21_c) * dt
    f_to_o = v2 * (n_plus / n) * math.exp(u21_f) * dt
    p_to_f = v2 * (n_f / n) * math.exp(-u22_c) * dt
    f_to_p = v2 * (n_minus / n) * math.exp(u22_f) * dt
    stats.clamped = (
        (o_to_p > 1.0) + (p_to_o > 1.0) + (o_to_f > 1.0)
        + (f_to_o > 1.0) + (p_to_f > 1.0) + (f_to_p > 1.0)
    )

    # Indexed by type code (fundamentalist, optimist, pessimist): first
    # target, second target, p1 and the reach p1 + p2. A draw below p1 moves
    # to the first target, one in [p1, p1 + p2) to the second; a frozen
    # group's reach is -1, below every draw.
    rules = []
    for first, second, raw1, raw2, size in (
        (OPTIMIST, PESSIMIST, f_to_o, f_to_p, n_f),
        (PESSIMIST, FUNDAMENTALIST, o_to_p, o_to_f, n_plus),
        (OPTIMIST, FUNDAMENTALIST, p_to_o, p_to_f, n_minus),
    ):
        p1 = min(max(raw1, 0.0), 1.0)
        p2 = min(max(raw2, 0.0), 1.0)
        reach = -1.0 if size / n < MIN_GROUP_FRACTION else p1 + p2
        rules.append((first, second, p1, reach))

    u = rng.random(n) if uniforms is None else uniforms
    hit = u < max(rules[0][3], rules[1][3], rules[2][3])
    if only is not None:
        allowed = np.zeros(n, dtype=bool)
        allowed[np.asarray(only, dtype=int)] = True
        hit &= allowed
    candidates = hit.nonzero()[0]
    if not len(candidates):
        return stats

    # every kind is read before any move is written: decisions use entry types
    sizes = [n_f, n_plus, n_minus]
    switches = 0
    for i, kind, draw in zip(candidates.tolist(), types[candidates].tolist(), u[candidates].tolist()):
        first, second, p1, reach = rules[kind]
        if draw < reach:
            target = first if draw < p1 else second
            types[i] = target
            sizes[kind] -= 1
            sizes[target] += 1
            switches += 1
    stats.switches = switches
    stats.counts = tuple(sizes)
    return stats
