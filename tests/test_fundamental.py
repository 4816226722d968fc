"""Tests for the fundamental value process."""

import math

import numpy as np
import pytest

from market_abm.fundamental import fundamental_path

from oracles import FundamentalState, apply_log_increment, step_fundamental


def test_zero_noise_is_identity():
    state = FundamentalState(value=300.0, time=0)
    rng = np.random.default_rng(1)
    out = step_fundamental(state, sigma_eps=0.0, dt=0.01, rng=rng)
    assert out.value == 300.0
    assert out.time == 1


def test_forced_increment_exponential_map():
    state = FundamentalState(value=300.0)
    out = apply_log_increment(state, 0.005)
    assert out.value == pytest.approx(300.0 * math.exp(0.005), rel=1e-14)
    assert out.value == pytest.approx(301.5038, abs=2e-4)


def test_unit_time_aggregate_std_matches_sigma_eps():
    # 1e5 unit-time aggregates of 100 sub-steps each
    rng = np.random.default_rng(42)
    path = fundamental_path(300.0, sigma_eps=0.005, dt=0.01, n_steps=10_000_000, rng=rng)
    log_path = np.log(path)
    unit_increments = log_path[100::100] - log_path[:-100:100]
    assert unit_increments.size == 10**5
    assert unit_increments.std() == pytest.approx(0.005, abs=2e-4)


def test_per_step_increment_scaling():
    rng = np.random.default_rng(7)
    path = fundamental_path(300.0, sigma_eps=0.005, dt=0.01, n_steps=200_000, rng=rng)
    steps = np.diff(np.log(path))
    # per-step variance times steps-per-unit-time recovers sigma_eps^2
    assert steps.var() * 100 == pytest.approx(0.005**2, rel=0.02)


def test_positivity_and_martingale_log():
    rng = np.random.default_rng(3)
    path = fundamental_path(300.0, sigma_eps=0.005, dt=0.01, n_steps=1_000_000, rng=rng)
    assert (path > 0).all()
    increments = np.diff(np.log(path))
    se = increments.std() / math.sqrt(increments.size)
    assert abs(increments.mean()) < 3 * se


def test_path_matches_iterated_steps():
    n = 500
    path = fundamental_path(300.0, 0.005, 0.01, n, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    state = FundamentalState(300.0)
    values = [state.value]
    for _ in range(n):
        state = step_fundamental(state, 0.005, 0.01, rng)
        values.append(state.value)
    np.testing.assert_allclose(path, values, rtol=1e-10)


def test_invalid_arguments():
    state = FundamentalState(300.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        step_fundamental(state, -0.1, 0.01, rng)
    with pytest.raises(ValueError):
        step_fundamental(state, 0.1, 0.0, rng)
    with pytest.raises(ValueError):
        fundamental_path(-1.0, 0.005, 0.01, 10, rng)


def test_non_finite_increment_aborts():
    state = FundamentalState(300.0)
    with pytest.raises(FloatingPointError):
        apply_log_increment(state, float("inf"))
