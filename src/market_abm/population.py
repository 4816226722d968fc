"""Trader population and stochastic opinion switching.

Agents hold one of three opinions: fundamentalists anchor on the fundamental
value, while optimists and pessimists (jointly, chartists) follow the price
trend. Every step each agent may switch opinion; the switching rates combine
a herding term (group sizes) with the relative profitability of strategies.
"""

from __future__ import annotations

from math import exp, isfinite

import numpy as np

from .config import SimConfig

FUNDAMENTALIST = 0
OPTIMIST = 1
PESSIMIST = 2

# Groups holding less than this fraction of the population cannot be left,
# which keeps every opinion alive (no absorbing state).
MIN_GROUP_FRACTION = 0.008


def average_price_trend(price, t: int, horizon: int, dt: float) -> float:
    """Mean one-step price change per unit time over the trailing window of
    the prices before step t, price[0..t-1].

    Telescopes to (price[t-1] - price[t-1-h]) / (h * dt); a shorter history
    shrinks the window, and fewer than two prices give 0 (cold start).
    """
    if t < 2 or horizon < 1:
        return 0.0
    h = horizon if horizon < t else t - 1
    return (price[t - 1] - price[t - 1 - h]) / (h * dt)


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
        # both counts may round up; the optimists then give way to n_f
        n_plus = min(round(frac_opt * n_agents), n_agents - n_f)
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
    kinds: memoryview,
    n_f: int,
    n_plus: int,
    n_minus: int,
    p: float,
    p_f: float,
    trend_f: float,
    trend_c: float,
    config: SimConfig,
    draws: memoryview,
    offset: int,
) -> tuple[int, int, tuple[int, int, int]]:
    """One synchronous switching sweep over the whole population.

    Counts and signals are frozen at entry, one uniform draw decides each
    agent's move, and the two admissible targets per type split the unit
    interval in a fixed order (chartists: other camp first, then
    fundamentalist; fundamentalists: optimist first, then pessimist).
    Opinion groups below MIN_GROUP_FRACTION of the population cannot be left.

    `kinds` views the int8 type codes, (n_f, n_plus, n_minus) counts them,
    and moves are written into it in place. `draws` views a flat float64
    numpy array of uniforms, of which agent i reads draws[offset + i], so
    that one array serves several sweeps. The rates read `config`'s v1, v2,
    alpha1, alpha2, alpha3, big_r, s and dt. Returns (switches, clamp
    events, counts after the sweep).
    """
    n = len(kinds)
    n_c = n_plus + n_minus
    x = (n_plus - n_minus) / n_c if n_c else 0.0
    if p <= 0.0 or p_f <= 0.0:
        raise ValueError("prices must be > 0")
    if not (isfinite(trend_f) and isfinite(trend_c)):
        raise ValueError("trends must be finite")
    v1, v2, alpha1, alpha2 = config.v1, config.v2, config.alpha1, config.alpha2
    alpha3, big_r, s, dt = config.alpha3, config.big_r, config.s, config.dt

    # The signals. U1, herding plus the chartist trend, steers flows between
    # optimists and pessimists. Each U2 is the profit differential between a
    # chartist camp and fundamentalism: the chartist side earns the nominal
    # rate r = big_r * p_f plus the trend (the excess), fundamentalists forgo
    # it but profit from any gap between price and fundamental value.
    u1 = alpha1 * x + (alpha2 / v1) * (trend_c / p)
    r = big_r * p_f
    gap = s * abs((p_f - p) / p)
    excess_c = (r + trend_c / v2) / p - big_r
    excess_f = (r + trend_f / v2) / p - big_r
    u21_c = alpha3 * (excess_c - gap)
    u21_f = alpha3 * (excess_f - gap)
    u22_c = alpha3 * (-excess_c - gap)
    u22_f = alpha3 * (-excess_f - gap)

    # Per-step probabilities rate * dt: a herding prefactor times exp(+-u),
    # where flows toward the optimist camp or away from fundamentalism take
    # exp(+u) and the reverse flows exp(-u). Each agent evaluates the trend
    # over its own current horizon, so paired flows use differently-horizoned
    # signals.
    share_c, share_f, share_plus, share_minus = n_c / n, n_f / n, n_plus / n, n_minus / n
    o_to_p = v1 * share_c * exp(-u1) * dt
    p_to_o = v1 * share_c * exp(u1) * dt
    o_to_f = v2 * share_f * exp(-u21_c) * dt
    f_to_o = v2 * share_plus * exp(u21_f) * dt
    p_to_f = v2 * share_f * exp(-u22_c) * dt
    f_to_p = v2 * share_minus * exp(u22_f) * dt
    clamped = (
        (o_to_p > 1.0) + (p_to_o > 1.0) + (o_to_f > 1.0)
        + (f_to_o > 1.0) + (p_to_f > 1.0) + (f_to_p > 1.0)
    )

    # Clamped into [0, 1], returning what min(max(v, 0.0), 1.0) returns for
    # every float: a NaN rate passes through.
    o_to_p = 0.0 if o_to_p < 0.0 else 1.0 if o_to_p > 1.0 else o_to_p
    p_to_o = 0.0 if p_to_o < 0.0 else 1.0 if p_to_o > 1.0 else p_to_o
    o_to_f = 0.0 if o_to_f < 0.0 else 1.0 if o_to_f > 1.0 else o_to_f
    f_to_o = 0.0 if f_to_o < 0.0 else 1.0 if f_to_o > 1.0 else f_to_o
    p_to_f = 0.0 if p_to_f < 0.0 else 1.0 if p_to_f > 1.0 else p_to_f
    f_to_p = 0.0 if f_to_p < 0.0 else 1.0 if f_to_p > 1.0 else f_to_p

    # Each type's reach p1 + p2: a draw below p1 moves to its first target,
    # one in [p1, p1 + p2) to its second; a frozen group's reach is -1,
    # below every draw.
    reach_f = -1.0 if share_f < MIN_GROUP_FRACTION else f_to_o + f_to_p
    reach_plus = -1.0 if share_plus < MIN_GROUP_FRACTION else o_to_p + o_to_f
    reach_minus = -1.0 if share_minus < MIN_GROUP_FRACTION else p_to_o + p_to_f
    # Python's max(reach_f, reach_plus, reach_minus), NaN handling included:
    # no draw at or above it can move an agent
    reach_max = reach_plus if reach_plus > reach_f else reach_f
    reach_max = reach_minus if reach_minus > reach_max else reach_max
    # draws.obj is the array under the view: one vector test finds the few
    # agents whose draw can move them
    candidates = (draws.obj[offset : offset + n] < reach_max).nonzero()[0].tolist()
    if not candidates:
        return 0, clamped, (n_f, n_plus, n_minus)

    # By type code (fundamentalist, optimist, pessimist): the reach, and the
    # first target, second target and p1. Each candidate's kind is read
    # before its own move is written and no agent moves twice, so decisions
    # use entry types.
    reaches = (reach_f, reach_plus, reach_minus)
    rules = ((OPTIMIST, PESSIMIST, f_to_o), (PESSIMIST, FUNDAMENTALIST, o_to_p),
             (OPTIMIST, FUNDAMENTALIST, p_to_o))
    sizes = [n_f, n_plus, n_minus]
    switches = 0
    for i in candidates:
        kind = kinds[i]
        draw = draws[offset + i]
        if draw < reaches[kind]:
            first, second, p1 = rules[kind]
            target = first if draw < p1 else second
            kinds[i] = target
            sizes[kind] -= 1
            sizes[target] += 1
            switches += 1
    return switches, clamped, (sizes[0], sizes[1], sizes[2])
