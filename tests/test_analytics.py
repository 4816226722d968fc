"""Tests for the statistics pipeline, anchored on independent synthetic oracles."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from market_abm.analytics import (
    DEPTH_FLOOR,
    MEMH,
    MMC,
    MRFM,
    NE_THRESHOLD,
    RegimeBin,
    _ranks,
    analyze_bundles,
    bin_by_pc,
    bin_indices,
    ccdf,
    check_analysis_options,
    ensemble_dfa,
    excess_kurtosis,
    extreme_threshold,
    fit_power_law,
    fluctuation_function,
    forward_fill,
    lagged_kurtosis,
    log_box_sizes,
    period_series,
    reduce_run,
    regime_label,
    sigma_vs_pc,
    spearman,
    tail_fit_quantile,
)
from market_abm.cli import experiment_config
from market_abm.engine import run_simulation


def fgn_spectral(h, n, rng):
    """Approximate fractional Gaussian noise via spectral synthesis."""
    freqs = np.fft.rfftfreq(n)[1:]
    power = freqs ** ((1 - 2 * h) / 2)
    phases = rng.uniform(0, 2 * np.pi, len(freqs))
    spectrum = np.concatenate([[0.0], power * np.exp(1j * phases)])
    series = np.fft.irfft(spectrum, n)
    return series / series.std()


def dfa_h(series) -> float:
    """DFA exponent of one series: the ensemble of one."""
    return ensemble_dfa([series])[0].h


class TestDfa:
    def test_iid_gaussian_gives_half(self):
        rng = np.random.default_rng(0)
        series = rng.standard_normal(2**18)
        assert dfa_h(series) == pytest.approx(0.5, abs=0.03)

    def test_long_memory_series_detected(self):
        rng = np.random.default_rng(1)
        series = fgn_spectral(0.8, 2**17, rng)
        assert dfa_h(series) == pytest.approx(0.8, abs=0.08)

    def test_shuffling_destroys_memory(self):
        rng = np.random.default_rng(2)
        series = fgn_spectral(0.85, 2**17, rng)
        shuffled = rng.permutation(series)
        assert dfa_h(shuffled) == pytest.approx(0.5, abs=0.03)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        series = rng.standard_normal(4096)
        base = dfa_h(series)
        assert dfa_h(3.7 * series - 42.0) == pytest.approx(base, abs=1e-9)

    def test_constant_series_rejected(self):
        # the pooled F(n) of constant series is zero, or roundoff where the
        # mean is inexact (0.1), so no exponent exists to fit
        for value in (2.5, 0.1):
            with pytest.raises(ValueError, match="constant series"):
                ensemble_dfa([np.full(4096, value)])
        with pytest.raises(ValueError, match="constant series"):
            ensemble_dfa([np.zeros(4096), np.full(5000, 0.1)])

    def test_one_constant_run_among_others_is_pooled(self):
        rng = np.random.default_rng(20)
        pooled, per_run = ensemble_dfa([rng.standard_normal(4096), np.zeros(4096)])
        assert math.isfinite(pooled.h) and math.isfinite(per_run[0])
        assert math.isnan(per_run[1])
        # 0.1 is inexact, so a flat run's F(n) is roundoff, not zero: still no exponent
        pooled, per_run = ensemble_dfa([rng.standard_normal(4096), np.full(4096, 0.1)])
        assert math.isfinite(pooled.h) and math.isfinite(per_run[0])
        assert math.isnan(per_run[1])

    def test_series_too_short_for_boxes(self):
        # the largest box is at least MIN_BOX + 1 = 11, which needs 44 points
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ensemble_dfa([rng.standard_normal(43)])
        with pytest.raises(ValueError):
            ensemble_dfa([rng.standard_normal(4096), rng.standard_normal(43)])

    def test_fluctuation_function_monotone_for_noise(self):
        rng = np.random.default_rng(4)
        series = rng.standard_normal(2**14)
        sizes = log_box_sizes(8, 2**12, 12)
        fl = fluctuation_function(series, sizes)
        assert (np.diff(fl) > 0).all()

    def test_ensemble_pooling_close_to_single(self):
        rng = np.random.default_rng(5)
        runs = [rng.standard_normal(4096) for _ in range(8)]
        pooled, per_run = ensemble_dfa(runs)
        assert pooled.h == pytest.approx(0.5, abs=0.04)
        assert len(per_run) == 8

    def test_nan_rejected(self):
        series = np.random.default_rng(6).standard_normal(4096)
        series[7] = np.nan
        with pytest.raises(ValueError):
            ensemble_dfa([series])


class TestPowerLawFit:
    def test_closed_form_at_e(self):
        x_min = 1.3
        samples = np.full(200, x_min * math.e)
        fit = fit_power_law(samples, x_min)
        assert fit.alpha == pytest.approx(2.0, rel=1e-12)
        assert fit.stderr == pytest.approx(1.0 / math.sqrt(200), rel=1e-12)

    def test_pareto_oracle_inverse_cdf(self):
        # inverse-CDF sampling: x = x_min * (1-u)^(-1/(alpha-1))
        rng = np.random.default_rng(7)
        alpha, x_min = 2.5, 0.4
        u = rng.random(100_000)
        samples = x_min * (1 - u) ** (-1.0 / (alpha - 1))
        fit = fit_power_law(samples, x_min)
        assert fit.alpha == pytest.approx(2.5, abs=0.05)

    def test_scale_invariance(self):
        rng = np.random.default_rng(8)
        samples = 0.1 * (1 - rng.random(5000)) ** (-1 / 1.7)
        a = fit_power_law(samples, 0.1).alpha
        b = fit_power_law(samples * 1e6, 0.1 * 1e6).alpha
        assert b == pytest.approx(a, rel=1e-12)

    def test_degenerate_tail_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law(np.full(100, 2.0), 2.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law(np.linspace(1, 2, 20), 1.0)

    def test_samples_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law(np.linspace(0.5, 2, 100), 1.0)

    def test_quantile_wrapper(self):
        rng = np.random.default_rng(9)
        samples = 1.0 * (1 - rng.random(50_000)) ** (-1 / 1.5)
        fit = tail_fit_quantile(samples, 0.95)
        assert fit.n_tail == pytest.approx(2500, abs=30)
        assert fit.alpha == pytest.approx(2.5, abs=0.15)


class TestCcdf:
    def test_counting_example(self):
        values, probs = ccdf([1.0, 2.0, 3.0])
        np.testing.assert_allclose(values, [1, 2, 3])
        np.testing.assert_allclose(probs, [1.0, 2 / 3, 1 / 3])

    def test_exponential_slope_on_lin_log(self):
        rng = np.random.default_rng(10)
        mean = 2.0
        values, probs = ccdf(rng.exponential(mean, 200_000))
        # ln P(X >= x) = -x/mean: regress over the bulk
        mask = (probs > 1e-3) & (probs < 1.0)
        slope = np.polyfit(values[mask], np.log(probs[mask]), 1)[0]
        assert slope == pytest.approx(-1 / mean, rel=0.05)

    def test_single_value(self):
        values, probs = ccdf([5.0])
        assert values.tolist() == [5.0]
        assert probs.tolist() == [1.0]

    def test_non_increasing(self):
        rng = np.random.default_rng(11)
        _, probs = ccdf(rng.normal(0, 1, 5000))
        assert (np.diff(probs) <= 0).all()
        assert probs[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ccdf([])


class TestExtremeEventRate:
    def test_constant_series(self):
        x = np.full(1000, 3.0)
        assert np.mean(x > extreme_threshold(x)) == 0.0

    def test_gaussian_tail(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(10_000_000)
        rate = np.mean(x > extreme_threshold(x))
        assert rate == pytest.approx(3.17e-5, abs=2e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            extreme_threshold([])
        with pytest.raises(ValueError):
            extreme_threshold([np.nan, np.inf])

    def test_non_finite_values_ignored(self):
        assert extreme_threshold([1.0, np.nan, 3.0, -np.inf]) == extreme_threshold([1.0, 3.0])
        assert extreme_threshold([1.0, 3.0]) == 2.0 + 4.0 * 1.0


class TestBinning:
    def test_right_exclusive_edges_and_top_inclusion(self):
        idx, n_bins = bin_indices(np.array([0.0, 0.0099, 0.01, 0.5, 0.999, 1.0]), 0.01)
        assert n_bins == 100
        assert idx.tolist() == [0, 0, 1, 50, 99, 99]

    def test_degenerate_distribution_single_bin(self):
        pc = np.full(500, 0.5)
        values = np.random.default_rng(13).normal(0, 1, 500)
        bins = bin_by_pc(pc, values, np.full(500, 10.0), 0.01, extreme_threshold(values))
        populated = [b for b in bins if b.n_obs > 0]
        assert len(populated) == 1
        assert populated[0].lo == pytest.approx(0.5)

    def test_uniform_pc_fills_bins_multinomially(self):
        rng = np.random.default_rng(14)
        n = 100_000
        pc = rng.random(n)
        values = rng.normal(0, 1, n)
        bins = bin_by_pc(pc, values, np.full(n, 5.0), 0.01, extreme_threshold(values))
        counts = np.array([b.n_obs for b in bins])
        expected = n / 100
        sd = math.sqrt(n * 0.01 * 0.99)
        assert (np.abs(counts - expected) < 5 * sd).all()

    def test_ne_matches_extreme_event_rate_on_single_bin(self):
        rng = np.random.default_rng(15)
        values = rng.standard_normal(50_000) ** 2
        pc = np.full(values.size, 0.25)
        bins = bin_by_pc(pc, values, np.full(values.size, 1.0), 0.01, extreme_threshold(values))
        target = [b for b in bins if b.n_obs][0]
        rate = np.mean(values > values.mean() + 4.0 * values.std())
        assert target.ne == pytest.approx(rate, rel=1e-12)

    def test_nan_values_excluded_from_quantity_but_not_depth(self):
        pc = np.array([0.1, 0.1, 0.1, 0.1])
        values = np.array([1.0, np.nan, 2.0, np.nan])
        depth = np.array([4.0, 6.0, 8.0, 10.0])
        bins = bin_by_pc(pc, values, depth, 0.05, extreme_threshold(values))
        target = [b for b in bins if b.n_obs][0]
        assert target.n_obs == 2
        assert target.mean_depth == pytest.approx(7.0)

    def test_low_confidence_flag(self):
        pc = np.full(10, 0.3)
        values = np.arange(10.0)
        bins = bin_by_pc(pc, values, np.ones(10), 0.01, extreme_threshold(values))
        target = [b for b in bins if b.n_obs][0]
        assert target.low_confidence


def make_bin(lo, ne, depth, n_obs=5000):
    return RegimeBin(lo=lo, hi=lo + 0.01, n_obs=n_obs, ne=ne, sigma=1.0, mean=1.0,
                     mean_depth=depth, label=regime_label(ne, depth))


class TestClassifyRegimes:
    def test_examples(self):
        labels = [regime_label(0.001, 200.0), regime_label(0.020, 80.0), regime_label(0.0, 1.0)]
        assert labels == [MEMH, MRFM, MMC]

    def test_depth_rule_wins_over_ne(self):
        assert regime_label(0.5, 0.5) == MMC

    def test_ne_at_the_threshold_is_memh(self):
        assert regime_label(NE_THRESHOLD, 200.0) == MEMH
        assert regime_label(math.nextafter(NE_THRESHOLD, 1.0), 200.0) == MRFM

    def test_depth_at_the_floor_is_not_mmc(self):
        assert regime_label(0.0, DEPTH_FLOOR) == MEMH
        assert regime_label(0.0, math.nextafter(DEPTH_FLOOR, 0.0)) == MMC

    def test_nan_depth_is_never_mmc(self):
        assert regime_label(0.0, float("nan")) == MEMH
        assert regime_label(0.5, float("nan")) == MRFM

    def test_bins_are_labelled_as_they_are_built(self):
        # pc 0.1: one event in 100 over a deep book; pc 0.9: the same events over a shallow one
        pc = np.repeat([0.1, 0.9], 100)
        values = np.tile(np.r_[np.zeros(99), 1.0], 2)
        depth = np.repeat([200.0, 5.0], 100)
        bins = bin_by_pc(pc, values, depth, 0.05, 0.5)
        assert [(b.ne, b.label) for b in bins if b.n_obs] == [(0.01, MRFM), (0.01, MMC)]
        assert {b.label for b in bins if not b.n_obs} == {MEMH}  # NaN depth, no events


class TestSigmaVsPc:
    def test_normalised_max_is_one(self):
        rng = np.random.default_rng(16)
        bins = [
            RegimeBin(lo=i * 0.05, hi=(i + 1) * 0.05, n_obs=100, ne=0.0,
                      sigma=float(rng.uniform(0.5, 3.0)), mean=1.0, mean_depth=50.0, label=MEMH)
            for i in range(20)
        ]
        curve = sigma_vs_pc(bins, min_obs=10)
        assert np.nanmax(curve["curve"]) == pytest.approx(1.0)

    def test_constant_quantity_flat_curve(self):
        bins = [
            RegimeBin(lo=i * 0.05, hi=(i + 1) * 0.05, n_obs=100, ne=0.0, sigma=2.0,
                      mean=1.0, mean_depth=50.0, label=MEMH)
            for i in range(20)
        ]
        curve = sigma_vs_pc(bins, min_obs=10)
        finite = curve["curve"][np.isfinite(curve["curve"])]
        np.testing.assert_allclose(finite, 1.0)

    def test_requires_populated_bins(self):
        bins = [make_bin(0.0, 0.0, 10.0, n_obs=1) for _ in range(20)]
        with pytest.raises(ValueError):
            sigma_vs_pc(bins, min_obs=10)


class TestAggregationalGaussianity:
    def test_gaussian_random_walk_flat(self):
        rng = np.random.default_rng(17)
        prices = 300 * np.exp(np.cumsum(rng.normal(0, 0.005, 1_000_000)))
        kurt = lagged_kurtosis([prices], [1, 4, 16])
        assert len(kurt) == 3
        for value in kurt:
            assert abs(value) < 0.1

    def test_lag_out_of_range(self):
        # no difference spans 50 steps of a 50-point series
        assert lagged_kurtosis([np.linspace(1, 2, 50)], [50]) == [None]

    def test_heavy_tailed_returns_decay(self):
        rng = np.random.default_rng(18)
        increments = rng.standard_t(3, 200_000) * 0.01
        prices = 300 * np.exp(np.cumsum(increments))
        kurt_1, kurt_64 = lagged_kurtosis([prices], [1, 64])
        assert kurt_1 > kurt_64


class TestHelpers:
    def test_forward_fill(self):
        x = np.array([np.nan, 1.0, np.nan, np.nan, 4.0, np.nan])
        np.testing.assert_allclose(forward_fill(x), [1.0, 1.0, 1.0, 1.0, 4.0, 4.0])
        with pytest.raises(ValueError):
            forward_fill(np.array([np.nan, np.nan]))

    def test_excess_kurtosis_gaussian(self):
        rng = np.random.default_rng(19)
        assert abs(excess_kurtosis(rng.standard_normal(1_000_000))) < 0.02

    def test_spearman_monotone(self):
        x = np.arange(50.0)
        assert spearman(x, np.exp(x / 10)) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_spearman_ties(self):
        assert spearman([1, 1, 2, 3], [2, 2, 4, 6]) == pytest.approx(1.0)

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
    def test_tied_values_share_the_mean_of_their_positions(self, values):
        a = np.array(values, dtype=float)
        ranks = _ranks(a)
        for i, v in enumerate(a):
            # sorted, v fills positions below + 1 .. below + count
            below, count = int(np.sum(a < v)), int(np.sum(a == v))
            assert ranks[i] == below + (count + 1) / 2

    def test_analysis_options_at_their_bounds(self):
        # the widest admissible options pass; one step past any bound fails
        check_analysis_options(2, bin_width=1.0, min_obs=1, burn_periods=0)
        check_analysis_options(217, 0.05, burn_periods=200)
        with pytest.raises(ValueError) as exc:
            check_analysis_options(216, 0.05, burn_periods=200)
        assert str(exc.value) == ("burn_periods 200 leaves too little data: the shortest run "
                                  "has 216 trading periods, more than 216 are needed")
        for n_periods, options, message in (
            (100, {"bin_width": 0.0}, "bin_width"),
            (100, {"bin_width": 1.5}, "bin_width"),
            (100, {"min_obs": 0}, "min_obs"),
            (100, {"burn_periods": -1}, "burn_periods"),
        ):
            with pytest.raises(ValueError, match=message):
                check_analysis_options(n_periods, **{"bin_width": 0.05, **options})


class TestRunBundles:
    @pytest.fixture(scope="class")
    def records(self):
        # 60 periods: enough for a DFA fit (44) with no burn-in
        return run_simulation(experiment_config(1.0, False, {"steps": 6000, "seed": 3})).records

    def test_period_series_own_their_data(self, records):
        # a view would keep the run's full step arrays alive with the bundle
        for name, series in period_series(records, 100).items():
            assert series.base is None, name

    def test_flat_market_kurtosis_reported_as_none(self, records):
        # every close equal, as in a market frozen at depth 0: the lagged
        # differences have zero variance, so no kurtosis exists to report
        flat = copy.deepcopy(records)
        flat.price[:] = 300.0
        bundles = [reduce_run(flat, 100), reduce_run(flat, 100)]
        report = analyze_bundles(bundles, 100, bin_width=0.01, burn_periods=0)
        assert report.aggregational_gaussianity["lags"] == [1, 4, 16, 64]
        assert report.aggregational_gaussianity["excess_kurtosis"] == [None] * 4
        # 60 closes leave differences at lags 1, 4 and 16 but none at 64
        *short, longest = report.aggregational_gaussianity["fv_excess_kurtosis"]
        assert all(math.isfinite(k) for k in short)
        assert longest is None
        with pytest.raises(ValueError, match="zero variance"):
            excess_kurtosis(np.zeros(10))

    def test_flat_series_kind_reported_as_error(self, records):
        # a flat price makes returns and volatility constant: their Hurst
        # entries carry the rejection, the other kinds still get an exponent
        flat = copy.deepcopy(records)
        flat.price[:] = 300.0
        report = analyze_bundles([reduce_run(flat, 100), reduce_run(flat, 100)], 100,
                                 bin_width=0.01, burn_periods=0)
        for kind in ("return", "volatility"):
            assert report.hurst[kind] == {
                "error": "constant series: fluctuation function is identically zero"}
        for kind in ("spread", "first_gap", "volume", "fv_return"):
            assert math.isfinite(report.hurst[kind]["h"]), kind
