"""Acceptance suite: every exit criterion at its stated tolerance.

Each check prints one [PASS]/[FAIL] line. The two desk-scale ensembles
(10 seeds x 1e5 steps, heterogeneous and all-fundamentalist control) are run
once per session through the canonical experiment recipe and shared by all
criteria. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from market_abm.analytics import (
    BIN_WIDTH,
    BURN_PERIODS,
    MEMH,
    MIN_OBS,
    MRFM,
    analyze_bundles,
    ensemble_dfa,
    extreme_threshold,
    fit_power_law,
    reduce_run,
)
from market_abm.book import OrderBook, Side
from market_abm.cli import experiment_config, experiment_seeds
from market_abm.config import SimConfig
from market_abm.engine import run_seeds, run_simulation
from market_abm.runio import write_steps_csv

from oracles import NaiveBook, Order

DESK_SCALE = 0.1
WORKERS = 2
QUANTITIES = ("volatility", "spread", "first_gap")  # the regime and peak checks' quantities


def check_each(lines) -> None:
    """Print each (label, ok, detail) line's [PASS]/[FAIL], then fail on
    those that failed, so one failure hides no other quantity's line."""
    for label, ok, detail in lines:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    failed = [f"{label}: {detail}" for label, ok, detail in lines if not ok]
    assert not failed, "; ".join(failed)


def check(label: str, ok: bool, detail: str = "") -> None:
    check_each([(label, ok, detail)])


def desk_runs(cfg):
    """The recipe's runs in seed order; a failed run fails the fixture."""
    runs = {}
    for seed, run, _ in run_seeds(cfg, experiment_seeds(DESK_SCALE), workers=WORKERS):
        if isinstance(run, Exception):
            raise run
        runs[seed] = run
    return [runs[seed] for seed in sorted(runs)]


def desk_report(cfg, runs):
    return analyze_bundles(
        [reduce_run(r.records, cfg.steps_per_period) for r in runs], cfg.steps_per_period,
        bin_width=BIN_WIDTH, min_obs=MIN_OBS, burn_periods=BURN_PERIODS,
    )


@pytest.fixture(scope="session")
def hetero():
    cfg = experiment_config(DESK_SCALE, homogeneous=False)
    runs = desk_runs(cfg)
    return cfg, runs, desk_report(cfg, runs)


@pytest.fixture(scope="session")
def homog():
    started = time.perf_counter()
    cfg = experiment_config(DESK_SCALE, homogeneous=True)
    runs = desk_runs(cfg)
    elapsed = time.perf_counter() - started
    return cfg, runs, desk_report(cfg, runs), elapsed


def qualified_bins(report, quantity):
    return [b for b in report.regimes[quantity]["bins"] if b["n_obs"] >= MIN_OBS]


# -- criterion 1: homogeneous control ---------------------------------------


def test_c1_hurst_near_half(homog):
    _, _, report, _ = homog
    lines = []
    for kind in ("return", "volatility", "spread", "first_gap", "volume"):
        h = report.hurst[kind].get("h")
        lines.append((f"C1 homogeneous Hurst[{kind}] in 0.5 +- 0.07",
                      h is not None and 0.43 <= h <= 0.57,
                      f"h={h:.3f}" if h is not None else "undefined"))
    check_each(lines)


def test_c1_no_heavy_tails(homog):
    _, runs, report, _ = homog
    # the fitted exponent's error band must exclude every heterogeneous-market
    # table value (1.53 - 2.03): these tails are far steeper
    lines = []
    for name, fit in report.tails.items():
        assert "alpha" in fit, f"tail fit failed for {name}: {fit}"
        low = fit["alpha"] - 2 * fit["stderr"]
        lines.append((f"C1 {name} tail steeper than any heavy-tail table value", low > 2.03,
                      f"alpha={fit['alpha']:.2f} -2se={low:.2f}"))
    # CCDF consistency with (at most) exponential decay: beyond the top-5%
    # threshold, exceedances must not outlive the fitted exponential bound
    from market_abm.analytics import period_series
    pooled = {}
    for run in runs:
        series = period_series(run.records, run.config.steps_per_period)
        for key in ("spread", "first_gap", "volatility"):
            pooled.setdefault(key, []).append(series[key])
    for key, chunks in pooled.items():
        x = np.concatenate(chunks)
        x = x[np.isfinite(x)]
        x0 = np.quantile(x, 0.95)
        excess = x[x > x0] - x0
        scale = excess.mean()
        observed = np.mean(x > x0 + 3 * scale)
        bound = 5 * 0.05 * math.exp(-3)
        lines.append((f"C1 {key} CCDF consistent with exponential decay", observed <= bound,
                      f"P(X>q95+3m)={observed:.2e} bound={bound:.2e}"))
    check_each(lines)


def test_c1_runtime_target(homog):
    _, _, _, elapsed = homog
    check("C1 homogeneous ensemble under 5 minutes", elapsed < 300.0, f"{elapsed:.0f}s")


# -- criterion 2: heterogeneous stylized facts -------------------------------


def test_c2_return_hurst(hetero):
    _, _, report = hetero
    h = report.hurst["return"]["h"]
    check("C2 return Hurst in [0.40, 0.60]", 0.40 <= h <= 0.60, f"h={h:.3f}")


def test_c2_long_memory_hurst(hetero):
    _, _, report = hetero
    lines = []
    for kind in ("volatility", "spread", "first_gap", "volume"):
        h = report.hurst[kind]["h"]
        lines.append((f"C2 {kind} Hurst > 0.65", h > 0.65, f"h={h:.3f}"))
    check_each(lines)


def test_c2_tail_spread(hetero):
    _, _, report = hetero
    alpha = report.tails["spread"]["alpha"]
    check("C2 spread tail alpha in [1.2, 2.0]", 1.2 <= alpha <= 2.0, f"alpha={alpha:.2f}")


def test_c2_tail_first_gap(hetero):
    _, _, report = hetero
    alpha = report.tails["first_gap"]["alpha"]
    check("C2 first-gap tail alpha in [1.4, 2.2]", 1.4 <= alpha <= 2.2, f"alpha={alpha:.2f}")


def test_c2_tail_returns(hetero):
    _, _, report = hetero
    lines = []
    for name in ("return_positive", "return_negative"):
        alpha = report.tails[name]["alpha"]
        lines.append((f"C2 {name} tail alpha in [1.5, 2.5]", 1.5 <= alpha <= 2.5,
                      f"alpha={alpha:.2f}"))
    check_each(lines)


# -- criterion 3: regime structure -------------------------------------------


def test_c3_memh_contiguous_at_low_pc(hetero):
    _, _, report = hetero
    lines = []
    for quantity in QUANTITIES:
        bins = qualified_bins(report, quantity)
        first_mrfm = next((i for i, b in enumerate(bins) if b["label"] == MRFM), None)
        ok = first_mrfm is not None and first_mrfm >= 3 and all(
            b["label"] == MEMH for b in bins[:first_mrfm]
        )
        lines.append((f"C3 {quantity}: contiguous MEMH below the MRFM band", ok,
                      f"first MRFM index={first_mrfm}"))
    check_each(lines)


def test_c3_mrfm_onset_window(hetero):
    _, _, report = hetero
    lines = []
    for quantity in QUANTITIES:
        onset = report.regimes[quantity]["mrfm_start"]
        ok = onset is not None and 0.35 <= onset <= 0.50
        lines.append((f"C3 {quantity}: MRFM onset in [0.35, 0.50]", ok, f"onset={onset}"))
    check_each(lines)


def test_c3_mmc_onset_window(hetero):
    _, _, report = hetero
    lines = []
    for quantity in QUANTITIES:
        onset = report.regimes[quantity]["mmc_start"]
        ok = onset is not None and 0.80 <= onset <= 0.90
        lines.append((f"C3 {quantity}: MMC onset in 0.85 +- 0.05", ok, f"onset={onset}"))
    check_each(lines)


def test_c3_depth_monotone_spearman(hetero):
    _, _, report = hetero
    rho = report.depth_pc_spearman
    check("C3 book depth decreasing in P_c (Spearman < -0.8)",
          rho is not None and rho < -0.8, f"rho={rho}")


# -- criterion 4: transition peak ---------------------------------------------


def test_c4_sigma_peak_position(hetero):
    _, _, report = hetero
    lines = []
    for quantity in QUANTITIES:
        peak = report.sigma_peaks[quantity].get("argmax_pc")
        ok = peak is not None and 0.78 <= peak <= 0.92
        lines.append((f"C4 {quantity}: sigma curve peaks in 0.85 +- 0.07", ok, f"argmax={peak}"))
    check_each(lines)


def test_c4_sigma_drop_above_peak(hetero):
    _, _, report = hetero
    lines = []
    for quantity in QUANTITIES:
        drop = report.sigma_peaks[quantity].get("drop_above_peak")
        ok = drop is not None and drop > 0.80
        lines.append((f"C4 {quantity}: sigma drops > 80% above the peak", ok, f"drop={drop}"))
    check_each(lines)


# -- criterion 5: aggregational Gaussianity -----------------------------------


def test_c5_kurtosis_decays_toward_fundamental(hetero):
    _, _, report = hetero
    kurt = report.aggregational_gaussianity["excess_kurtosis"]
    fv_kurt = report.aggregational_gaussianity["fv_excess_kurtosis"]
    inversions = sum(1 for a, b in zip(kurt, kurt[1:]) if b > a)
    gap = abs(kurt[-1] - fv_kurt[-1])
    check_each([
        ("C5 kurtosis decreasing over lags {1,4,16,64} (<= 1 inversion)", inversions <= 1,
         f"kurt={[round(k, 2) for k in kurt]}"),
        ("C5 largest-lag kurtosis within 1.0 of fundamental-value kurtosis", gap <= 1.0,
         f"|{kurt[-1]:.2f} - {fv_kurt[-1]:.2f}| = {gap:.2f}"),
    ])


# -- criterion 6: analytics oracles -------------------------------------------


def test_c6_dfa_iid_gaussian():
    rng = np.random.default_rng(606)
    h = ensemble_dfa([rng.standard_normal(2**20)])[0].h
    check("C6 DFA on 2^20 iid Gaussian = 0.50 +- 0.03", abs(h - 0.5) <= 0.03, f"h={h:.3f}")


def test_c6_dfa_shuffled_long_memory():
    rng = np.random.default_rng(607)
    freqs = np.fft.rfftfreq(2**18)[1:]
    spectrum = np.concatenate(
        [[0.0], freqs ** ((1 - 2 * 0.85) / 2) * np.exp(1j * rng.uniform(0, 2 * np.pi, freqs.size))]
    )
    series = np.fft.irfft(spectrum, 2**18)
    assert ensemble_dfa([series])[0].h > 0.7  # long memory present before shuffling
    h = ensemble_dfa([rng.permutation(series)])[0].h
    check("C6 DFA on shuffled long-memory series = 0.5 +- 0.03", abs(h - 0.5) <= 0.03,
          f"h={h:.3f}")


def test_c6_power_law_mle_pareto():
    rng = np.random.default_rng(608)
    samples = 1.0 * (1 - rng.random(100_000)) ** (-1 / 1.5)  # Pareto alpha = 2.5
    alpha = fit_power_law(samples, 1.0).alpha
    check("C6 MLE on 1e5 Pareto(2.5) samples = 2.5 +- 0.05", abs(alpha - 2.5) <= 0.05,
          f"alpha={alpha:.3f}")


def test_c6_extreme_event_rate_gaussian():
    # one 1e7 batch has a binomial standard error of ~1.8e-6, comparable to
    # the +-2e-6 window; the mean over five batches resolves the target
    rng = np.random.default_rng(609)
    rates = []
    for _ in range(5):
        x = rng.standard_normal(10_000_000)
        rates.append(np.mean(x > extreme_threshold(x)))
    rate = float(np.mean(rates))
    check("C6 extreme rate on 1e7-sample Gaussian batches = 3.17e-5 +- 2e-6",
          abs(rate - 3.17e-5) <= 2e-6, f"mean rate={rate:.3e}")


# -- criterion 7: engine properties -------------------------------------------


def test_c7_book_matches_naive_reference():
    tick = 0.0005
    rng = np.random.default_rng(777)
    fast = OrderBook(tick, 60)
    naive = NaiveBook()
    trades = 0
    for t in range(1, 100_001):
        fast.expire(t)
        naive.expire(t)
        ticks = int(round(rng.uniform(285, 315) / tick))
        it = Order(
            agent_id=int(rng.integers(60)),
            side=Side.BUY if rng.random() < 0.5 else Side.SELL,
            ticks=ticks,
            horizon=int(rng.integers(5, 120)),
        )
        fill = fast.submit(*it, t)
        ref = naive.submit(it, t)
        if fill is None:
            assert ref is None, f"step {t}: reference traded, book did not"
        else:
            trades += 1
            assert ref is not None, f"step {t}: book traded, reference did not"
            assert fill == ref, f"step {t}"
    check("C7 1e5 random orders match naive reference book trade-for-trade", True,
          f"{trades} trades compared")


def test_c7_conservation_exact(hetero):
    cfg, runs, _ = hetero
    cash_ticks_target = cfg.n_agents * round(cfg.init_cash / cfg.tick)
    for run in runs:
        cash_ticks = int(run.final_population.cash_ticks.sum())
        shares = int(run.final_population.shares.sum())
        assert cash_ticks == cash_ticks_target, f"seed {run.seed}: cash drifted"
        assert shares == cfg.n_agents * cfg.init_shares, f"seed {run.seed}: shares drifted"
    check("C7 cash and share totals conserved exactly over every run", True,
          f"{len(runs)} runs")


def test_c7_determinism_byte_exact(tmp_path):
    cfg = SimConfig(steps=10_000, seed=99, init_frac_f=0.15, init_frac_opt=0.425,
                    init_cash=450.0, init_shares=1)
    paths = []
    for i in range(2):
        out = run_simulation(cfg)
        path = tmp_path / f"steps_{i}.csv"
        write_steps_csv(path, out.records)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    check("C7 (config, seed) reproduces byte-identical output", identical)


def test_c7_trade_prices_inside_band(hetero):
    cfg, runs, _ = hetero
    spp = cfg.steps_per_period
    worst = 0.0
    for run in runs:
        closes = np.concatenate([[cfg.p0], run.records.price[spp - 1 :: spp]])
        refs = closes[(run.trades.step - 1) // spp]
        ratio = run.trades.price / refs
        worst = max(worst, float(np.max(np.abs(ratio - 1.0))))
        assert (ratio <= 1.15 * (1 + 1e-9)).all(), f"seed {run.seed}: above band"
        assert (ratio >= 0.85 * (1 - 1e-9)).all(), f"seed {run.seed}: below band"
    check("C7 every trade price within +-15% of prior period close", True,
          f"max |deviation|={worst:.3f}")
