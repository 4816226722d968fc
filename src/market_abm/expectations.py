"""Price expectations and order pricing for the trading agent of a step.

Fundamentalists expect the fundamental value plus proportional noise;
optimists (pessimists) expect the current price shifted up (down) by a
half-Gaussian scaled by recent price dispersion. The reservation price then
discounts (marks up) the expectation by an exponentially distributed factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .book import BUY, SELL, OrderIntent
from .population import FUNDAMENTALIST, OPTIMIST, PESSIMIST


@dataclass(frozen=True)
class ExpectationParams:
    gamma_f: float = 1.0
    gamma_c: float = 0.1
    tick: float = 0.0005

    def __post_init__(self):
        if not (self.gamma_f > self.gamma_c > 0.0):
            raise ValueError("risk aversion must satisfy gamma_f > gamma_c > 0")
        if self.tick <= 0.0:
            raise ValueError("tick must be > 0")


def rolling_sigma(price, t: int, tau: int, aligned: bool) -> float:
    """Trailing dispersion of the prices before step t, price[0..t-1], over
    a window of tau steps.

    As specified, the deviation window ends one step after the window that
    sets the mean, and the squared deviations carry a sqrt(tau)/tau weight.
    `aligned=True` evaluates the variant with both windows coincident, kept
    for sensitivity runs. A shorter history shrinks the window, and fewer
    than two prices give 0.
    """
    if t < 2:
        return 0.0
    w = tau if tau < t else t - 1
    window = price[t - w : t]
    # np.add.reduce is the pairwise sum np.mean and np.sum use, so the
    # result is bit-identical to theirs without their wrapper cost
    mean = np.add.reduce(window if aligned else price[t - w - 1 : t - 1]) / w
    dev = window - mean
    dev *= dev
    return math.sqrt(float(np.add.reduce(dev)) * math.sqrt(w) / w)


def expected_price(
    agent_type: int,
    p: float,
    p_f: float,
    sigma_tau: float,
    sigma_eps: float,
    params: ExpectationParams,
    rng: np.random.Generator,
) -> float:
    """Draw one price expectation for the given agent type; floored at one tick.

    A normal draw of scale s is taken as s * z: numpy's normal(0.0, s) is
    0.0 + s * z from the same stream, which differs only in the sign of a
    zero, and `1.0 + x` and `abs(x)` erase that.
    """
    if p <= 0.0 or p_f <= 0.0:
        raise ValueError("prices must be > 0")
    if agent_type == FUNDAMENTALIST:
        value = p_f * (1.0 + sigma_eps / params.gamma_f * rng.standard_normal())
    elif agent_type == OPTIMIST:
        value = p + abs(sigma_tau / params.gamma_c * rng.standard_normal())
    elif agent_type == PESSIMIST:
        value = p - abs(sigma_tau / params.gamma_c * rng.standard_normal())
    else:
        raise ValueError(f"unknown agent type {agent_type}")
    return max(value, params.tick)


def draw_k(rng: np.random.Generator, scale: float) -> float:
    """Exponential reservation offset with mean `scale`: scale * E, which is
    how numpy's exponential(scale) draws it from the same stream."""
    if scale <= 0.0:
        raise ValueError("scale must be > 0")
    return scale * rng.standard_exponential()


def _snap(price: float, tick: float, round_up: bool) -> int:
    q = price / tick
    nearest = round(q)
    if abs(q - nearest) <= 1e-6:  # already on grid up to float noise
        return int(nearest)
    return int(math.ceil(q)) if round_up else int(math.floor(q))


def decide_order(
    agent_id: int,
    horizon: int,
    expectation: float,
    p: float,
    k: float,
    tick: float,
) -> OrderIntent | None:
    """Turn an expectation into a one-unit priced intent, or no order.

    Expecting a rise makes the agent bid below the expectation; expecting a
    fall makes it ask above. Buy reservations round down to the grid, sell
    reservations round up, and a reservation at or below zero means no order.
    """
    if expectation <= 0.0 or p <= 0.0:
        raise ValueError("expectation and price must be > 0")
    if k < 0.0:
        raise ValueError("k must be >= 0")
    if expectation > p:
        side = BUY
        ticks = _snap(expectation * (1.0 - k), tick, round_up=False)
    elif expectation < p:
        side = SELL
        ticks = _snap(expectation * (1.0 + k), tick, round_up=True)
    else:
        return None
    if ticks <= 0:
        return None
    return OrderIntent(agent_id, side, ticks, ticks * tick, horizon)
