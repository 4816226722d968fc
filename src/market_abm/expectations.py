"""Price expectations and order pricing for the trading agent of a step.

Fundamentalists expect the fundamental value plus proportional noise;
optimists (pessimists) expect the current price shifted up (down) by a
half-Gaussian scaled by recent price dispersion. The reservation price then
discounts (marks up) the expectation by an exponentially distributed factor.
"""

from __future__ import annotations

import math

import numpy as np

from .book import BUY, SELL, Side
from .config import SimConfig
from .population import FUNDAMENTALIST, OPTIMIST, PESSIMIST


def rolling_sigma(price, t: int, tau: int) -> float:
    """Trailing dispersion of the prices before step t, price[0..t-1], over
    a window of tau steps.

    As specified, the deviation window ends one step after the window that
    sets the mean, and the squared deviations carry a sqrt(tau)/tau weight.
    A shorter history shrinks the window, and fewer than two prices give 0.
    """
    if t < 2:
        return 0.0
    w = tau if tau < t else t - 1
    window = price[t - w : t]
    # np.add.reduce is the pairwise sum np.mean and np.sum use, so the
    # result is bit-identical to theirs without their wrapper cost
    mean = np.add.reduce(price[t - w - 1 : t - 1]) / w
    dev = window - mean
    dev *= dev
    return math.sqrt(float(np.add.reduce(dev)) * math.sqrt(w) / w)


def expected_price(
    agent_type: int,
    p: float,
    p_f: float,
    sigma_tau: float,
    config: SimConfig,
    rng: np.random.Generator,
) -> float:
    """Draw one price expectation for the given agent type; floored at one tick.

    Reads `config`'s sigma_eps and gamma_f (fundamentalists), gamma_c
    (chartists) and tick.

    A normal draw of scale s is taken as s * z: numpy's normal(0.0, s) is
    0.0 + s * z from the same stream, which differs only in the sign of a
    zero, and `1.0 + x` and `abs(x)` erase that.
    """
    if p <= 0.0 or p_f <= 0.0:
        raise ValueError("prices must be > 0")
    if agent_type == FUNDAMENTALIST:
        value = p_f * (1.0 + config.sigma_eps / config.gamma_f * rng.standard_normal())
    elif agent_type == OPTIMIST:
        value = p + abs(sigma_tau / config.gamma_c * rng.standard_normal())
    elif agent_type == PESSIMIST:
        value = p - abs(sigma_tau / config.gamma_c * rng.standard_normal())
    else:
        raise ValueError(f"unknown agent type {agent_type}")
    return max(value, config.tick)


def draw_k(rng: np.random.Generator, scale: float) -> float:
    """Exponential reservation offset with mean `scale`: scale * E, which is
    how numpy's exponential(scale) draws it from the same stream."""
    if scale <= 0.0:
        raise ValueError("scale must be > 0")
    return scale * rng.standard_exponential()


def decide_order(expectation: float, p: float, k: float, tick: float) -> tuple[Side | None, int]:
    """(side, ticks) of the one-unit order an expectation makes: its side and
    reservation in ticks. Ticks <= 0 mean no order; an expectation equal to
    the price gives (None, 0).

    Expecting a rise makes the agent bid below the expectation; expecting a
    fall makes it ask above. A reservation within 1e-6 ticks of the grid
    snaps to it; otherwise buy reservations round down to the grid and sell
    reservations up.
    """
    if expectation <= 0.0 or p <= 0.0:
        raise ValueError("expectation and price must be > 0")
    if k < 0.0:
        raise ValueError("k must be >= 0")
    if expectation > p:
        side = BUY
        q = expectation * (1.0 - k) / tick
    elif expectation < p:
        side = SELL
        q = expectation * (1.0 + k) / tick
    else:
        return None, 0
    ticks = round(q)
    if abs(q - ticks) > 1e-6:  # off the grid by more than float noise
        ticks = math.floor(q) if side == BUY else math.ceil(q)
    return side, ticks


def reservation_ticks(expectation: np.ndarray, k: np.ndarray, tick: float):
    """decide_order's buy and sell reservations for arrays of expectations
    and offsets: two float64 arrays of tick counts, each element the count
    decide_order gives that side for a finite reservation (<= 0: no order).
    The expressions are decide_order's, in its order, so each element is the
    same IEEE result; np.rint rounds half to even as round does. Each side
    computes in place in its own q array, beside one shared scratch array
    and mask."""
    scratch = np.empty_like(expectation)
    off_grid = np.empty(len(expectation), dtype=bool)

    def snap(factor, round_off):
        q = np.multiply(expectation, factor, out=factor)
        q /= tick
        ticks = np.rint(q)
        np.subtract(q, ticks, out=scratch)
        np.greater(np.abs(scratch, out=scratch), 1e-6, out=off_grid)
        np.copyto(ticks, round_off(q, out=q), where=off_grid)
        return ticks

    return (snap(np.subtract(1.0, k), np.floor), snap(np.add(1.0, k), np.ceil))
