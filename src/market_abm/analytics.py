"""Statistics over simulated market microstructure.

Covers the full reporting pipeline, one implementation per statistic, each
the one `analyze_bundles` runs: detrended fluctuation analysis of one or
more realisations (`ensemble_dfa`), maximum-likelihood power-law tail fits,
empirical CCDFs, the 4-sigma extreme-event threshold (`extreme_threshold`),
the regime label of each chartist-fraction bin (`regime_label`),
dispersion-vs-chartist-fraction curves, and the decay of log-difference
kurtosis across aggregation horizons (`lagged_kurtosis`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

MEMH = "MEMH"  # efficient-like: no extreme events, deep book
MRFM = "MRFM"  # real-market-like: extreme events present
MMC = "MMC"  # collapse: book is empty, trading stalls

SERIES_KINDS = ["return", "volatility", "spread", "first_gap", "volume", "fv_return"]
BIN_QUANTITIES = ["volatility", "spread", "first_gap"]

NE_THRESHOLD = 0.005
# A collapsed book still holds the handful of resting orders the few remaining
# fundamentalists trickle in (5-15 in every tested configuration), while a
# functioning market keeps 25+; the floor sits between the two clusters.
DEPTH_FLOOR = 20.0
EXTREME_SIGMAS = 4.0
MIN_BOX = 10  # smallest DFA box; the largest is a quarter of the series
N_BOXES = 20  # log-spaced DFA box sizes
LAGS = (1, 4, 16, 64)  # aggregation lags, in periods, of the kurtosis decay
MIN_TAIL = 50  # fewest tail samples a power-law fit accepts
XMIN_QUANTILE = 0.95  # tails are fitted above this sample quantile
BIN_WIDTH = 0.05  # chartist-fraction bin width of the regime tables
BURN_PERIODS = 200  # initial trading periods left out of temporal statistics
MIN_OBS = 100  # bin population a regime boundary or sigma curve needs
LOW_CONFIDENCE_BELOW = 1000  # bins with fewer observations are flagged


# ---------------------------------------------------------------------------
# detrended fluctuation analysis
# ---------------------------------------------------------------------------


@dataclass
class DfaResult:
    h: float
    stderr: float
    box_sizes: np.ndarray
    fluctuations: np.ndarray
    span_decades: float


def log_box_sizes(lo: int, hi: int, num: int = N_BOXES) -> np.ndarray:
    """Unique integer box sizes, log-spaced in [lo, hi]."""
    if hi < lo:
        raise ValueError("box size range is empty")
    grid = np.unique(np.round(np.logspace(np.log10(lo), np.log10(hi), num)).astype(int))
    return grid[(grid >= lo) & (grid <= hi)]


def fluctuation_function(series, box_sizes) -> np.ndarray:
    """RMS fluctuation F(n) of the integrated, per-box-detrended series.

    The series is demeaned and integrated once; every complete box of size n
    is detrended with a least-squares line (DFA1), and F(n) is the root mean
    square of the residuals over the covered portion.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or len(x) < 4:
        raise ValueError("series must be 1-D with at least 4 points")
    if np.isnan(x).any():
        raise ValueError("series contains NaN")
    y = np.cumsum(x - x.mean())
    out = np.empty(len(box_sizes))
    for idx, n in enumerate(np.asarray(box_sizes, dtype=int)):
        nb = len(y) // n
        if nb < 1:
            raise ValueError(f"box size {n} exceeds series length {len(y)}")
        seg = y[: nb * n].reshape(nb, n).T  # one column per box
        t = np.arange(n, dtype=float)
        design = np.vander(t, 2)
        coef, *_ = np.linalg.lstsq(design, seg, rcond=None)
        resid = seg - design @ coef
        out[idx] = math.sqrt(float(np.mean(resid * resid)))
    return out


def _fit_loglog_slope(sizes: np.ndarray, fluct: np.ndarray) -> tuple[float, float]:
    logn = np.log10(sizes.astype(float))
    logf = np.log10(fluct)
    slope, intercept = np.polyfit(logn, logf, 1)
    resid = logf - (slope * logn + intercept)
    dof = len(logn) - 2
    if dof > 0:
        stderr = math.sqrt(float(resid @ resid) / dof / float(np.sum((logn - logn.mean()) ** 2)))
    else:
        stderr = float("nan")
    return float(slope), stderr


def ensemble_dfa(series_list):
    """DFA exponent H of F(n) ~ n^H, one least-squares slope on log-log axes
    through F(n)^2 averaged over the realisations; one series is a list of one.

    Returns (pooled DfaResult, per-run H, NaN where a run is constant or its
    F(n) has a zero). Box sizes are pinned by the shortest series so every
    run contributes to every size. Constant series have no exponent (F(n) is
    zero or roundoff)."""
    series_list = [np.asarray(s, dtype=float) for s in series_list]
    if not series_list:
        raise ValueError("no series given")
    shortest = min(len(s) for s in series_list)
    sizes = log_box_sizes(MIN_BOX, max(shortest // 4, MIN_BOX + 1))
    if shortest < 4 * sizes.max():
        raise ValueError("shortest series is under 4x the largest box size")
    constant = [bool(np.all(s == s[0])) for s in series_list]
    if all(constant):
        raise ValueError("constant series: fluctuation function is identically zero")
    sq = np.zeros(len(sizes))
    per_run_h = []
    for s, flat in zip(series_list, constant):
        f = fluctuation_function(s, sizes)
        sq += f * f
        fits = not flat and np.all(f > 0)
        per_run_h.append(_fit_loglog_slope(sizes, f)[0] if fits else float("nan"))
    pooled = np.sqrt(sq / len(series_list))
    h, stderr = _fit_loglog_slope(sizes, pooled)
    span = math.log10(sizes.max() / sizes.min())
    result = DfaResult(h=h, stderr=stderr, box_sizes=sizes, fluctuations=pooled, span_decades=span)
    return result, per_run_h


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailFit:
    alpha: float
    x_min: float
    n_tail: int
    stderr: float


def fit_power_law(samples, x_min: float) -> TailFit:
    """Continuous maximum-likelihood exponent for samples >= x_min.

    alpha = 1 + n / sum(ln(x / x_min)), stderr = (alpha - 1) / sqrt(n).
    """
    x = np.asarray(samples, dtype=float)
    if x_min <= 0.0:
        raise ValueError("x_min must be > 0")
    if x.size < MIN_TAIL:
        raise ValueError(f"need at least {MIN_TAIL} tail samples, got {x.size}")
    if np.any(x < x_min):
        raise ValueError("all samples must be >= x_min")
    log_sum = float(np.sum(np.log(x / x_min)))
    if log_sum <= 0.0:
        raise ValueError("degenerate tail: all samples equal x_min")
    alpha = 1.0 + x.size / log_sum
    return TailFit(alpha=alpha, x_min=float(x_min), n_tail=int(x.size),
                   stderr=(alpha - 1.0) / math.sqrt(x.size))


def tail_fit_quantile(samples, quantile: float) -> TailFit:
    """Fit the power-law tail above a fixed sample quantile."""
    x = np.asarray(samples, dtype=float)
    x = x[np.isfinite(x) & (x > 0.0)]
    if x.size == 0:
        raise ValueError("no positive finite samples")
    x_min = float(np.quantile(x, quantile))
    if x_min <= 0.0:
        raise ValueError("tail threshold is not positive")
    return fit_power_law(x[x >= x_min], x_min)


def ccdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Empirical P(X >= x) over the distinct sample values, ascending in x."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("empty sample")
    values, first = np.unique(x, return_index=True)
    probs = (x.size - first) / x.size
    return values, probs


# ---------------------------------------------------------------------------
# extreme events and moments
# ---------------------------------------------------------------------------


def extreme_threshold(values) -> float:
    """Mean + EXTREME_SIGMAS standard deviations of the finite values; an
    observation above it is an extreme event."""
    x = np.asarray(values, dtype=float)
    x = x[np.isfinite(x)]
    if x.size == 0:
        raise ValueError("no finite values")
    return float(x.mean() + EXTREME_SIGMAS * x.std())


def excess_kurtosis(x) -> float:
    a = np.asarray(x, dtype=float)
    if a.size < 4:
        raise ValueError("need at least 4 observations")
    c = a - a.mean()
    m2 = float(np.mean(c * c))
    if m2 == 0.0:
        raise ValueError("zero variance")
    m4 = float(np.mean(c ** 4))
    return m4 / (m2 * m2) - 3.0


def _ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the positions they
    occupy, which the last position less (count - 1) / 2 gives exactly."""
    _, group, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks on ties)."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.size != b.size or a.size < 3:
        raise ValueError("need two equally sized samples of at least 3")
    ra, rb = _ranks(a), _ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt(float(ra @ ra) * float(rb @ rb))
    if denom == 0.0:
        raise ValueError("constant ranks")
    return float(ra @ rb) / denom


def lagged_kurtosis(series_list, lags) -> list[float | None]:
    """Excess kurtosis of ln x(t) - ln x(t - lag), pooled over the series, for
    each lag. None where there is none to report: no series longer than the
    lag, fewer than four differences, or all of them zero (a flat market)."""
    logs = [np.log(np.asarray(x, dtype=float)) for x in series_list]
    out = []
    for lag in lags:
        parts = [lx[lag:] - lx[:-lag] for lx in logs if lag < lx.size]
        try:
            out.append(excess_kurtosis(np.concatenate(parts)) if parts else None)
        except ValueError:
            out.append(None)
    return out


# ---------------------------------------------------------------------------
# per-period series and per-step quantities
# ---------------------------------------------------------------------------


def forward_fill(x: np.ndarray) -> np.ndarray:
    """Replace NaN with the previous finite value; leading NaN take the first finite one."""
    x = np.asarray(x, dtype=float).copy()
    ok = np.isfinite(x)
    if not ok.any():
        raise ValueError("series has no finite values")
    idx = np.where(ok, np.arange(x.size), -1)
    np.maximum.accumulate(idx, out=idx)
    first = np.flatnonzero(ok)[0]
    idx[idx < 0] = first
    return x[idx]


def period_series(records, steps_per_period: int) -> dict[str, np.ndarray]:
    """Per-trading-period series from one run's step records.

    Returns and volatility come from period-close prices; spread, first gap
    and book depth are sampled at the close (gaps averaged over the two book
    sides, quote values held over undefined stretches); volume counts the
    period's executed trades. Every series is a compact array of its own,
    so a bundle of them does not keep the run's step records alive.
    """
    spp = int(steps_per_period)
    n_periods = len(records.price) // spp
    if n_periods < 2:
        raise ValueError("need at least two full trading periods")
    sel = slice(spp - 1, n_periods * spp, spp)
    closes = records.price[sel].copy()
    fv_closes = records.fundamental_value[sel].copy()
    log_ret = np.diff(np.log(closes))
    gap = _side_mean_gap(records)
    traded = records.traded[: n_periods * spp].astype(float)
    return {
        "return": log_ret,
        "volatility": np.abs(log_ret),
        "spread": forward_fill(records.spread)[sel].copy(),
        "first_gap": forward_fill(gap)[sel].copy(),
        "volume": traded.reshape(n_periods, spp).sum(axis=1),
        "depth": records.depth[sel].astype(float),
        "fv_return": np.diff(np.log(fv_closes)),
        "close": closes,
        "fv_close": fv_closes,
        "pc": records.pc[sel].copy(),
    }


def _side_mean_gap(records) -> np.ndarray:
    both = np.stack([records.bid_gap, records.ask_gap])
    with np.errstate(invalid="ignore"):
        counts = np.sum(np.isfinite(both), axis=0)
        totals = np.nansum(both, axis=0)
        gap = np.where(counts > 0, totals / np.maximum(counts, 1), np.nan)
    return gap


# ---------------------------------------------------------------------------
# regime bins
# ---------------------------------------------------------------------------


@dataclass
class RegimeBin:
    lo: float
    hi: float
    n_obs: int
    ne: float
    sigma: float
    mean: float
    mean_depth: float
    label: str
    low_confidence: bool = False

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)


def bin_indices(pc: np.ndarray, bin_width: float) -> tuple[np.ndarray, int]:
    """Map chartist fractions to bin ids; edges are right-exclusive and the
    top of the last bin is inclusive so pc = 1.0 lands in it. A small slack
    keeps fractions that are decimal multiples of the width on their edge."""
    n_bins = int(math.ceil(round(1.0 / bin_width, 9)))
    idx = np.floor(pc / bin_width + 1e-9).astype(int)
    return np.clip(idx, 0, n_bins - 1), n_bins


def bin_by_pc(
    pc: np.ndarray,
    values: np.ndarray,
    depth: np.ndarray,
    bin_width: float,
    threshold: float,
) -> list[RegimeBin]:
    """Per-bin extreme-event rate, dispersion, mean book depth and regime label
    for one quantity.

    An extreme event is an observation above `threshold`, one value shared by
    every bin (the report passes `extreme_threshold` of the series), so each
    bin's rate measures how much of the series-wide tail it contributes.
    NaN values are excluded from the quantity's statistics but the book depth
    is averaged over every observation falling in the bin.
    """
    pc = np.asarray(pc, dtype=float)
    values = np.asarray(values, dtype=float)
    depth = np.asarray(depth, dtype=float)
    if not (pc.size == values.size == depth.size):
        raise ValueError("pc, values and depth must be equally sized")
    idx, n_bins = bin_indices(pc, bin_width)

    depth_count = np.bincount(idx, minlength=n_bins)
    depth_sum = np.bincount(idx, weights=depth, minlength=n_bins)

    ok = np.isfinite(values)
    vi = idx[ok]
    v = values[ok]
    count = np.bincount(vi, minlength=n_bins)
    s1 = np.bincount(vi, weights=v, minlength=n_bins)
    s2 = np.bincount(vi, weights=v * v, minlength=n_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = s1 / count
        var = np.maximum(s2 / count - mean * mean, 0.0)
        sigma = np.sqrt(var)
        exceed = np.bincount(vi[v > threshold], minlength=n_bins)
        ne = np.where(count > 0, exceed / np.maximum(count, 1), 0.0)
        mean_depth = np.where(depth_count > 0, depth_sum / np.maximum(depth_count, 1), np.nan)

    return [
        RegimeBin(lo=b * bin_width, hi=min((b + 1) * bin_width, 1.0), n_obs=n, ne=e, sigma=sd,
                  mean=m, mean_depth=d, label=regime_label(e, d),
                  low_confidence=n < LOW_CONFIDENCE_BELOW)
        for b, (n, e, sd, m, d) in enumerate(zip(
            count.tolist(), ne.tolist(), sigma.tolist(), mean.tolist(), mean_depth.tolist()))
    ]


def regime_label(ne: float, mean_depth: float) -> str:
    """A bin's state from its extreme-event rate and mean book depth alone.

    A mean depth below `DEPTH_FLOOR` marks collapse; otherwise an
    extreme-event rate above `NE_THRESHOLD` marks the real-market-like
    state, and the remainder is efficient-like.
    """
    if math.isfinite(mean_depth) and mean_depth < DEPTH_FLOOR:
        return MMC
    return MRFM if ne > NE_THRESHOLD else MEMH


def regime_boundaries(bins: list[RegimeBin], min_obs: int) -> dict:
    """Onset of each state scanning upward over sufficiently populated bins."""
    confident = [b for b in bins if b.n_obs >= min_obs]
    mrfm = [b.center for b in confident if b.label == MRFM]
    mmc = [b.center for b in confident if b.label == MMC]
    memh = [b.center for b in confident if b.label == MEMH]
    return {
        "memh_end": max(memh) if memh else None,
        "mrfm_start": min(mrfm) if mrfm else None,
        "mmc_start": min(mmc) if mmc else None,
    }


def sigma_vs_pc(bins: list[RegimeBin], min_obs: int) -> dict:
    """Per-bin dispersion normalised so the curve's maximum equals 1.

    Returns bin centers, the normalised curve (NaN on thin bins), and the
    center of the peak bin.
    """
    populated = [b for b in bins if b.n_obs >= min_obs and math.isfinite(b.sigma)]
    if len(populated) < 10:
        raise ValueError("need at least 10 populated bins")
    centers = np.array([b.center for b in bins])
    curve = np.array(
        [b.sigma if (b.n_obs >= min_obs and math.isfinite(b.sigma)) else np.nan for b in bins]
    )
    peak = float(np.nanmax(curve))
    if peak <= 0.0:
        raise ValueError("dispersion is zero everywhere")
    curve = curve / peak
    argmax_center = float(centers[int(np.nanargmax(curve))])
    return {"centers": centers, "curve": curve, "argmax_pc": argmax_center}


# ---------------------------------------------------------------------------
# whole-ensemble report
# ---------------------------------------------------------------------------


@dataclass
class RunBundle:
    """Everything the report needs from one run: per-period series only, so
    large ensembles can discard full step records as they are processed."""

    period: dict[str, np.ndarray]
    n_steps: int


def reduce_run(records, steps_per_period: int) -> RunBundle:
    return RunBundle(period=period_series(records, steps_per_period), n_steps=len(records.price))


@dataclass
class AnalysisReport:
    """Every field but `plots` is a table of `analysis.json`, under its name."""

    hurst: dict
    tails: dict
    regimes: dict
    sigma_peaks: dict
    aggregational_gaussianity: dict
    depth_pc_spearman: float | None
    meta: dict
    plots: dict = field(default_factory=dict)

    def tables(self) -> dict:
        """JSON-serialisable view without the plot arrays."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if f.name != "plots"}


def check_analysis_options(n_periods: int, bin_width: float = BIN_WIDTH, min_obs: int = MIN_OBS,
                           burn_periods: int = BURN_PERIODS) -> None:
    """Reject options no report can be built with, given the fewest trading
    periods of any run, so that a caller can check them before any run exists."""
    if not 0.0 < bin_width <= 1.0:
        raise ValueError("bin_width must be in (0, 1]")
    if min_obs < 1:
        raise ValueError("min_obs must be >= 1")
    if burn_periods < 0:
        raise ValueError("burn_periods must be >= 0")
    if burn_periods and n_periods <= burn_periods + 16:
        raise ValueError(f"burn_periods {burn_periods} leaves too little data: the shortest "
                         f"run has {n_periods} trading periods, more than {burn_periods + 16} "
                         "are needed")


def analyze_bundles(
    bundles: list[RunBundle],
    steps_per_period: int,
    bin_width: float = BIN_WIDTH,
    min_obs: int = MIN_OBS,
    burn_periods: int = BURN_PERIODS,
) -> AnalysisReport:
    """Statistics report over reduced runs.

    `burn_periods` drops each run's initial periods from the temporal
    statistics (scaling exponents, kurtosis decay) so an artificial starting
    composition does not masquerade as market memory; distributional
    statistics (tail fits, regime bins) keep the full record. Each plot
    curve is a dict keyed by its CSV column names.
    """
    if not bundles:
        raise ValueError("no runs given")
    per_run = [b.period for b in bundles]
    burn = int(burn_periods)
    check_analysis_options(min(len(p["close"]) for p in per_run), bin_width, min_obs, burn)

    hurst: dict = {}
    plots: dict = {"fn": {}, "ccdf": {}, "sigma_vs_pc": {}, "ne_vs_pc": {}}
    for kind in SERIES_KINDS:
        series_list = [p[kind][burn:] for p in per_run]
        try:
            pooled, per_run_h = ensemble_dfa(series_list)
        except ValueError as exc:
            hurst[kind] = {"error": str(exc)}
            continue
        finite = [h for h in per_run_h if math.isfinite(h)]
        hurst[kind] = {
            "h": pooled.h,
            "stderr": pooled.stderr,
            "span_decades": pooled.span_decades,
            "per_run_mean": float(np.mean(finite)) if finite else None,
            "per_run_sd": float(np.std(finite)) if finite else None,
            "n_runs": len(series_list),
        }
        plots["fn"][kind] = {"box_size": pooled.box_sizes, "fluctuation": pooled.fluctuations}

    returns = np.concatenate([p["return"] for p in per_run])
    tail_samples = {
        "return_positive": returns[returns > 0],
        "return_negative": -returns[returns < 0],
        "spread": np.concatenate([p["spread"] for p in per_run]),
        "first_gap": np.concatenate([p["first_gap"] for p in per_run]),
    }
    tails: dict = {}
    for name, samples in tail_samples.items():
        try:
            tails[name] = dataclasses.asdict(tail_fit_quantile(samples, XMIN_QUANTILE))
        except ValueError as exc:
            tails[name] = {"error": str(exc)}
        finite = samples[np.isfinite(samples) & (samples > 0)]
        if finite.size:
            values, probs = ccdf(finite)
            plots["ccdf"][name] = {"value": values, "prob": probs}

    pc_all = np.concatenate([p["pc"] for p in per_run])
    depth_all = np.concatenate([p["depth"] for p in per_run])
    quantity_inputs = {
        # a period's volatility belongs to the population present at its close
        "volatility": (
            np.concatenate([p["pc"][1:] for p in per_run]),
            np.concatenate([p["volatility"] for p in per_run]),
            np.concatenate([p["depth"][1:] for p in per_run]),
        ),
        "spread": (pc_all, np.concatenate([p["spread"] for p in per_run]), depth_all),
        "first_gap": (pc_all, np.concatenate([p["first_gap"] for p in per_run]), depth_all),
    }
    regimes: dict = {}
    sigma_peaks: dict = {}
    depth_spearman = None
    for quantity in BIN_QUANTITIES:
        pc_q, values_q, depth_q = quantity_inputs[quantity]
        # the extreme-event threshold anchors on the post-burn-in (recurrent)
        # series so the artificial starting composition does not inflate it
        threshold = extreme_threshold(np.concatenate([p[quantity][burn:] for p in per_run]))
        bins = bin_by_pc(pc_q, values_q, depth_q, bin_width, threshold)
        regimes[quantity] = {
            "bins": [dataclasses.asdict(b) for b in bins],
            **regime_boundaries(bins, min_obs),
        }
        plots["ne_vs_pc"][quantity] = {
            "pc": np.array([b.center for b in bins]),
            "ne": np.array([b.ne for b in bins]),
            "mean_depth": np.array([b.mean_depth for b in bins]),
        }
        try:
            curve = sigma_vs_pc(bins, min_obs=min_obs)
            above = curve["curve"][curve["centers"] > curve["argmax_pc"]]
            drop = float(1.0 - np.nanmin(above)) if np.isfinite(above).any() else None
            sigma_peaks[quantity] = {"argmax_pc": curve["argmax_pc"], "drop_above_peak": drop}
            plots["sigma_vs_pc"][quantity] = {"pc": curve["centers"], "sigma_norm": curve["curve"]}
        except ValueError as exc:
            sigma_peaks[quantity] = {"error": str(exc)}

        if quantity == "volatility":
            active = [
                b for b in bins if b.n_obs >= min_obs and b.label in (MEMH, MRFM)
                and math.isfinite(b.mean_depth)
            ]
            if len(active) >= 3:
                depth_spearman = spearman(
                    np.array([b.center for b in active]),
                    np.array([b.mean_depth for b in active]),
                )

    agg_gauss = {
        "lags": list(LAGS),
        "excess_kurtosis": lagged_kurtosis([p["close"][burn:] for p in per_run], LAGS),
        "fv_excess_kurtosis": lagged_kurtosis([p["fv_close"][burn:] for p in per_run], LAGS),
    }

    meta = {
        "n_runs": len(bundles),
        "steps_per_run": int(bundles[0].n_steps),
        "steps_per_period": int(steps_per_period),
        "bin_width": bin_width,
        "xmin_quantile": XMIN_QUANTILE,
        "ne_threshold": NE_THRESHOLD,
        "depth_floor": DEPTH_FLOOR,
        "min_obs": min_obs,
        "burn_periods": burn,
    }
    return AnalysisReport(hurst, tails, regimes, sigma_peaks, agg_gauss, depth_spearman, meta,
                          plots)
