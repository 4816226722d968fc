"""Exogenous fundamental value, driven by a geometric Brownian motion.

The log value receives an independent Gaussian increment each simulation
step, scaled so that the aggregate increment over one unit of time (one
trading period) has the configured standard deviation.
"""

from __future__ import annotations

import math

import numpy as np


def fundamental_path(
    p0: float, sigma_eps: float, dt: float, n_steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Full value path as an array of length n_steps + 1, path[0] == p0.

    Consumes the generator exactly like n_steps scalar standard_normal()
    draws; the vectorised cumulative sum only changes float rounding, not
    the draw sequence.
    """
    if p0 <= 0.0:
        raise ValueError("p0 must be > 0")
    if sigma_eps < 0.0:
        raise ValueError("sigma_eps must be >= 0")
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    eps = rng.standard_normal(n_steps) * (sigma_eps * math.sqrt(dt))
    path = np.empty(n_steps + 1)
    path[0] = p0
    if n_steps:
        path[1:] = np.exp(math.log(p0) + np.cumsum(eps))
    if not np.all(np.isfinite(path)):
        bad = int(np.flatnonzero(~np.isfinite(path))[0])
        raise FloatingPointError(f"fundamental path non-finite at step {bad}")
    return path
