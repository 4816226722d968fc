"""Workloads, timed bodies, output checks and metrics of the pipeline benchmark.

Every workload drives the library from one process with no process pool
(`workers = 1`) and makes the same public calls, in the same order, as
`reproduce-paper --workers 1`: per seed `engine.run_simulation` ->
`runio.write_run` -> `analytics.reduce_run`, then
`analytics.analyze_bundles` -> `runio.write_analysis`.

One repetition of the recipe's call sequence over a workload's run seeds is
a *round*. A measurement repeats rounds with the same run seeds until the
time budget is spent, so each round must reproduce the first round's output
digests exactly. Each run directory is also loaded back, as `analyze` loads
it, and must reduce to the bundle reduced in memory; the load is timed
(`load_us_per_step`) but kept out of the round's wall time. Calls go through
module attributes (`engine.run_simulation`, not a local alias) so that the
tracer's wrappers see them.

End-to-end metrics come from untraced rounds, averaged over every run (see
`per_round`). A round holds several run seeds because the cost per step
differs from seed to seed.
Per-layer metrics come from traced rounds that alternate with untraced ones.

The library must be importable as `market_abm` before this module is
imported; `run.py` puts the checkout's `src/` on the path.
"""

from __future__ import annotations

import contextlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from market_abm import analytics, book, cli, engine, runio
from tracer import Tracer

DEFAULT_SEED = 1  # workload seed used when --seed is not given
IMPORT_PROBES = 2  # fresh-interpreter import timings before each round; setup_s is their median
PROBE = Path(__file__).resolve().parent / "probe.py"

RECIPE_ANALYSIS = {"bin_width": 0.05, "burn_periods": 200}  # reproduce-paper defaults


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    homogeneous: bool  # the recipe's all-fundamentalist control market
    runs: int  # run seeds per round
    steps: int  # steps per run
    analysis: dict  # analyze_bundles keyword arguments, as the user command passes them


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="hetero",
            why=(
                "heterogeneous recipe market (15% fundamentalists, all_agents switching): "
                "stresses population and rolling_sigma; 5 runs of 24k steps leave the "
                "near-collapse start and clear the 200-period burn-in"
            ),
            homogeneous=False,
            runs=5,
            steps=24_000,
            analysis=RECIPE_ANALYSIS,
        ),
        Workload(
            name="control",
            why=(
                "all-fundamentalist recipe market, switching off: bypasses population and "
                "rolling_sigma; stresses the deeper book, engine recording and CSV writes"
            ),
            homogeneous=True,
            runs=3,
            steps=30_000,
            analysis=RECIPE_ANALYSIS,
        ),
    )
}

END_TO_END = {
    "sim_steps_per_s": "steps/s",
    "write_us_per_step": "us/step",
    "load_us_per_step": "us/step",
    "disk_bytes_per_step": "B/step",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "population.apply_switching.us_per_step": "us/step",
    "population.apply_switching.calls_per_step": "1/step",
    "population.average_price_trend.us_per_step": "us/step",
    "population.switches_per_step": "1/step",
    "population.clamp_events": "1/run",
    "expectations.rolling_sigma.us_per_call": "us/call",
    "expectations.rolling_sigma.calls_per_step": "1/step",
    "expectations.expected_price.us_per_step": "us/step",
    "expectations.draw_k.us_per_step": "us/step",
    "expectations.decide_order.us_per_step": "us/step",
    "engine.run_simulation.self_us_per_step": "us/step",
    "engine.circuit_breaker.us_per_step": "us/step",
    "engine.enforce_budget.us_per_step": "us/step",
    "engine.settle_trade.us_per_step": "us/step",
    "engine.band_reject_ratio": "1/step",
    "engine.budget_reject_ratio": "1/step",
    "engine.book_accept_ratio": "1/step",
    "engine.trades_per_step": "1/step",
    "book.submit.us_per_call": "us/call",
    "book.submit.calls_per_step": "1/step",
    "book.fill_ratio": "1/submit",
    "book.expire.us_per_step": "us/step",
    "book.purge_outside.us_per_step": "us/step",
    "book.spread_and_gaps.us_per_step": "us/step",
    "book.quotes.us_per_step": "us/step",
    "book.current_price.us_per_step": "us/step",
    "book.mean_depth": "orders",
    "fundamental.fundamental_path.ms_per_run": "ms/run",
    "runio.write_run.us_per_step": "us/step",
    "runio.steps_csv_bytes_per_step": "B/step",
    "runio.trades_csv_bytes_per_step": "B/step",
    "runio.load_run_dir.us_per_step": "us/step",
    "analytics.reduce_run.ms_per_run": "ms/run",
    "analytics.analyze_bundles.ms": "ms",
    "setup.import_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# Names run_simulation looks up in the engine module's namespace, by span name.
ENGINE_CALLS = {
    "run_simulation": "engine.run_simulation",
    "apply_switching": "population.apply_switching",
    "average_price_trend": "population.average_price_trend",
    "rolling_sigma": "expectations.rolling_sigma",
    "expected_price": "expectations.expected_price",
    "draw_k": "expectations.draw_k",
    "decide_order": "expectations.decide_order",
    "circuit_breaker": "engine.circuit_breaker",
    "enforce_budget": "engine.enforce_budget",
    "settle_trade": "engine.settle_trade",
    "current_price": "book.current_price",
    "fundamental_path": "fundamental.fundamental_path",
}
QUOTE_METHODS = ("best_bid", "best_ask", "best_bid_ticks", "best_ask_ticks")
BOOK_METHODS = ("submit", "expire", "purge_outside", "spread_and_gaps") + QUOTE_METHODS
RUNIO_CALLS = ("write_run", "load_run_dir", "find_run_dirs", "write_analysis")
ANALYTICS_CALLS = ("reduce_run", "analyze_bundles")
SPAN_GROUPS = {"book.quotes": tuple(f"book.{m}" for m in QUOTE_METHODS)}
ROUND_SPAN = "bench.round"


def install_tracer(tracer: Tracer) -> None:
    """Wrap every public callable the benchmark times; `tracer.restore()` undoes it."""
    for attr, name in ENGINE_CALLS.items():
        tracer.wrap(engine, attr, name)
    for attr in BOOK_METHODS:
        tracer.wrap(book.OrderBook, attr, f"book.{attr}")
    for attr in RUNIO_CALLS:
        tracer.wrap(runio, attr, f"runio.{attr}")
    for attr in ANALYTICS_CALLS:
        tracer.wrap(analytics, attr, f"analytics.{attr}")


def run_seeds(workload_seed: int, runs: int) -> list[int]:
    """Consecutive run seeds, as the recipe uses, starting from 100 x the workload seed."""
    if workload_seed < 0 or not 0 < runs <= 100:
        raise ValueError("workload seed must be >= 0 and runs within 1..100")
    return [100 * workload_seed + i for i in range(runs)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Checker:
    """Units of work, each either passing or failing one or more checks."""

    def __init__(self) -> None:
        self.units: dict[str, list[str]] = {}

    def check(self, unit: str, ok: bool, message: str) -> None:
        problems = self.units.setdefault(unit, [])
        if not ok:
            problems.append(message)

    @property
    def attempted(self) -> int:
        return len(self.units)

    @property
    def failed(self) -> int:
        return sum(1 for problems in self.units.values() if problems)

    def failures(self) -> list[str]:
        return [f"{unit}: {p}" for unit, problems in self.units.items() for p in problems]


def run_counts(run) -> dict:
    """Integer outcome counts of one simulated run; tracing must not change them."""
    rec = run.records
    return {
        "steps": len(rec),
        "trades": len(run.trades),
        "traded_steps": int(np.count_nonzero(rec.traded)),
        "depth_sum": int(rec.depth.sum()),
        "switches": int(run.switch_count),
        "clamps": int(run.clamp_events),
        **{f"reject_{k}": int(v) for k, v in sorted(run.rejections.items())},
    }


def loaded_counts(records) -> dict:
    return {
        "steps": len(records),
        "traded_steps": int(np.count_nonzero(records.traded)),
        "depth_sum": int(records.depth.sum()),
    }


def bundles_match(a, b) -> bool:
    """Reduced runs agree up to the 12 significant digits steps.csv keeps.

    Log returns of 12-digit prices carry an absolute error near 1e-12, hence
    the absolute tolerance.
    """
    if a.n_steps != b.n_steps or a.period.keys() != b.period.keys():
        return False
    return all(
        np.allclose(a.period[k], b.period[k], rtol=1e-9, atol=1e-10, equal_nan=True)
        for k in a.period
    )


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


@dataclass
class Round:
    index: int
    traced: bool
    complete: bool = False  # every run seed was started; only a complete round is analysed
    wall_s: float = 0.0
    analysis_s: float = 0.0
    peak_rss_mb: float = 0.0  # the process's peak resident set size once the round ends
    beside_s: float = 0.0  # time of the load-back check, which the command does not pay
    runs: dict = field(default_factory=dict)  # seed -> {"sim_s", "write_s", "run_s", "load_s", "counts"}
    analysis_error: str | None = None
    spans: dict | None = None  # tracer summary of a traced round
    digests: dict = field(default_factory=dict)  # output file -> sha256


def recipe_round(wl: Workload, configs, out_dir: Path, checker: Checker, rnd: Round,
                 stop: float = math.inf) -> None:
    """`reproduce-paper --workers 1`: simulate, write and reduce each seed, then analyse.

    Each run directory is also loaded back as soon as it is written (see
    `load_back`), so that loads sample the machine across the whole round as
    writes do; that time goes to `rnd.beside_s`, not to the command's time.
    No run starts once the clock has reached `stop`; a round cut short there
    is not analysed.
    """
    # Bundles live only for the round: a bundle's period series can be views
    # of the run's full step arrays, so keeping them would grow memory by
    # whole runs per round.
    bundles = {}
    for cfg in configs:
        if time.perf_counter() >= stop:
            return
        unit = f"round{rnd.index}/seed_{cfg.seed}"
        run_dir = out_dir / "runs" / f"seed_{cfg.seed}"
        try:
            t0 = time.perf_counter()
            run = engine.run_simulation(cfg)
            t1 = time.perf_counter()
            runio.write_run(run_dir, run)
            t2 = time.perf_counter()
            bundles[cfg.seed] = analytics.reduce_run(run.records, cfg.steps_per_period)
            t3 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted as a failed run
            checker.check(unit, False, f"raised {exc!r}")
            continue
        rnd.runs[cfg.seed] = {"sim_s": t1 - t0, "write_s": t2 - t1, "run_s": t3 - t0,
                              "counts": run_counts(run)}
        del run
        load_back(cfg, run_dir, bundles[cfg.seed], rnd.runs[cfg.seed], unit, checker)
        rnd.beside_s += time.perf_counter() - t3
    rnd.complete = True
    t0 = time.perf_counter()
    analyse(wl, configs[0].steps_per_period, out_dir, bundles, rnd)
    rnd.analysis_s = time.perf_counter() - t0


def load_back(cfg, run_dir: Path, bundle, run: dict, unit: str, checker: Checker) -> None:
    """`analyze`'s reads: the run directory loads back to `bundle`, reduced in
    memory. The load's time is stored as the run's `load_s`."""
    try:
        t0 = time.perf_counter()
        records, manifest = runio.load_run_dir(run_dir)
        run["load_s"] = time.perf_counter() - t0
        loaded = analytics.reduce_run(records, cfg.steps_per_period)
    except Exception as exc:  # noqa: BLE001 - counted as a failed run
        checker.check(unit, False, f"load raised {exc!r}")
        return
    checker.check(unit, bundles_match(loaded, bundle),
                  "loaded run reduces differently from the simulated run")
    checker.check(unit, manifest.get("steps") == cfg.steps, "manifest step count differs")
    counts = loaded_counts(records)
    checker.check(unit, counts == {k: run["counts"][k] for k in counts},
                  "loaded counts differ from the simulated run")


def analyse(wl: Workload, spp, out_dir: Path, bundles: dict, rnd: Round) -> None:
    try:
        report = analytics.analyze_bundles(list(bundles.values()), spp, **wl.analysis)
        runio.write_analysis(out_dir / "analysis", report)
    except Exception as exc:  # noqa: BLE001 - counted as a failed analysis
        rnd.analysis_error = repr(exc)


def round_digests(rnd: Round, run_root: Path, out_dir: Path) -> dict[str, str]:
    digests = {}
    for seed in sorted(rnd.runs):
        for name in ("steps.csv", "trades.csv"):
            path = run_root / f"seed_{seed}" / name
            found = path.exists()
            digests[f"seed_{seed}/{name}"] = runio.sha256_file(path) if found else "missing"
    if rnd.complete:
        path = out_dir / "analysis" / "analysis.json"
        digests["analysis.json"] = runio.sha256_file(path) if rnd.analysis_error is None else "missing"
    return digests


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def probe(args: dict, root: Path) -> dict:
    """Time importing the library and building configs in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(PROBE), json.dumps(args)],
        cwd=root, capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_bytes(run_root: Path, seeds) -> dict[str, int]:
    sizes = {"steps.csv": 0, "trades.csv": 0, "total": 0}
    for seed in seeds:
        for path in (run_root / f"seed_{seed}").iterdir():
            size = path.stat().st_size
            sizes["total"] += size
            if path.name in sizes:
                sizes[path.name] += size
    return sizes


def per_round(rounds: list[Round], key: str) -> float:
    """Time of `key` in one whole round: each run seed's mean over its runs,
    summed over the seeds.

    Every round repeats identical work. The shared machine runs the same work
    at speeds that drift by up to 1.5-2x over phases of seconds to a minute,
    so a measurement's figure is an average over its whole window: the last
    round, cut short by the time budget, counts too, and with the few runs of
    a seed a window holds, the mean is steadier from run to run than the
    median or the fastest run.
    """
    return sum(statistics.fmean(v) for v in samples(rounds, key).values() if v)


def samples(rounds: list[Round], key: str) -> dict[str, list[float]]:
    """Every timing of `key`, per run seed, in round order."""
    return {f"seed_{s}": [r.runs[s][key] for r in rounds if key in r.runs.get(s, {})]
            for s in sorted({s for r in rounds for s in r.runs})}


def measure(wl: Workload, workload_seed: int, seconds: float, trace: bool, root: Path,
            work: Path) -> tuple[dict, Tracer | None]:
    """Run rounds for `seconds`, check outputs and compute the metrics.

    With `trace` the rounds alternate untraced and traced, and the metrics are
    the per-layer ones; otherwise every round is untraced and the metrics are
    the end-to-end ones. Returns the result and the tracer of the last traced
    round, whose spans are still in memory.
    """
    checker = Checker()
    seeds = run_seeds(workload_seed, wl.runs)

    probe_args = {"src": str(root / "src"), "homogeneous": wl.homogeneous, "steps": wl.steps,
                  "seeds": seeds}
    imports: list[dict] = []
    configs = [cli.experiment_config(1.0, wl.homogeneous, {"steps": wl.steps, "seed": s})
               for s in seeds]
    out_dir = work / "out"
    run_root = out_dir / "runs"

    rounds: list[Round] = []
    tracer = None
    deadline = time.perf_counter() + seconds
    # two whole rounds, to compare digests; then rounds until the budget is spent
    while len(rounds) < 2 or time.perf_counter() < deadline:
        rnd = Round(index=len(rounds), traced=trace and len(rounds) % 2 == 1)
        if rnd.traced:
            tracer = Tracer()
            install_tracer(tracer)
        try:
            region = tracer.span(ROUND_SPAN) if rnd.traced else contextlib.nullcontext()
            t0 = time.perf_counter()
            with region:
                recipe_round(wl, configs, out_dir, checker, rnd,
                             deadline if len(rounds) >= 2 else math.inf)
            rnd.wall_s = time.perf_counter() - t0 - rnd.beside_s
            rnd.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            if rnd.traced:
                tracer.restore()
        if rnd.traced:
            rnd.spans = tracer.summary(SPAN_GROUPS)
            check_trace(wl, tracer, checker, rnd)
        check_round(wl, rnd, rounds[0] if rounds else None, run_root, checker)
        rnd.digests = round_digests(rnd, run_root, out_dir)
        if rounds:
            for key, digest in rnd.digests.items():
                unit = f"round{rnd.index}/" + ("analysis" if key == "analysis.json" else key.split("/")[0])
                checker.check(unit, digest == rounds[0].digests.get(key),
                              f"{key} digest differs from round 0")
        rounds.append(rnd)
        # set-up probes after every round, so that setup_s samples the machine
        # over the whole measurement as the rounds do
        imports += [probe(probe_args, root) for _ in range(IMPORT_PROBES)]
    setup_s = statistics.median(p["import_s"] + p["config_s"] for p in imports)

    sizes = run_bytes(run_root, seeds)
    steps_total = wl.runs * wl.steps
    result = {
        "workload": wl.name,
        "workload_seed": workload_seed,
        "run_seeds": seeds,
        "steps_per_run": wl.steps,
        "runs_per_round": wl.runs,
        "rounds": len(rounds),
        "traced_rounds": sum(r.traced for r in rounds),
        "digests": rounds[0].digests,
        "samples": {
            "import_s": [p["import_s"] + p["config_s"] for p in imports],
            "round_wall_s": [r.wall_s for r in rounds],
            "round_peak_rss_mb": [r.peak_rss_mb for r in rounds],
            "round_analysis_s": [r.analysis_s for r in rounds if r.complete],
            **{key: samples(rounds, key) for key in ("sim_s", "write_s", "run_s", "load_s")},
        },
    }
    if trace:
        untraced = [r.wall_s for r in rounds if r.complete and not r.traced]
        traced = [r for r in rounds if r.traced]
        overhead = (statistics.median(r.wall_s for r in traced if r.complete)
                    / statistics.median(untraced) - 1.0)
        result["metrics"] = per_layer_metrics(traced, sizes, steps_total, setup_s, overhead)
    else:
        result["metrics"] = {
            "sim_steps_per_s": steps_total / per_round(rounds, "sim_s"),
            "write_us_per_step": per_round(rounds, "write_s") / steps_total * 1e6,
            "load_us_per_step": per_round(rounds, "load_s") / steps_total * 1e6,
            "disk_bytes_per_step": sizes["total"] / steps_total,
            "wall_s": per_round(rounds, "run_s")
            + statistics.fmean(r.analysis_s for r in rounds if r.complete),
            "setup_s": setup_s,
            "peak_rss_mb": rounds[-1].peak_rss_mb,
        }
    result["attempted"] = checker.attempted
    result["failed"] = checker.failed
    result["failures"] = checker.failures()
    return result, tracer


def check_round(wl: Workload, rnd: Round, first: Round | None, run_root: Path,
                checker: Checker) -> None:
    """Per-run output checks; later rounds must also repeat the first round's counts."""
    if rnd.complete:
        checker.check(f"round{rnd.index}/analysis", rnd.analysis_error is None,
                      f"analysis raised {rnd.analysis_error}")
        checker.check(f"round{rnd.index}/analysis", len(rnd.runs) == wl.runs,
                      f"{len(rnd.runs)} of {wl.runs} runs reached the analysis")
    for seed, run in rnd.runs.items():
        unit = f"round{rnd.index}/seed_{seed}"
        counts = run["counts"]
        checker.check(unit, counts["steps"] == wl.steps, f"{counts['steps']} steps recorded")
        checker.check(unit, counts["traded_steps"] == counts["trades"],
                      "traded steps differ from the trade count")
        manifest = json.loads((run_root / f"seed_{seed}" / "manifest.json").read_text())
        cfg = manifest["config"]
        checker.check(unit, manifest["totals"]["shares"] == cfg["n_agents"] * cfg["init_shares"]
                      and math.isclose(manifest["totals"]["cash"],
                                       cfg["n_agents"] * cfg["init_cash"], rel_tol=1e-9),
                      "cash or share totals not conserved")
        if first is not None and seed in first.runs:
            checker.check(unit, counts == first.runs[seed]["counts"],
                          "integer counts differ from round 0")


def check_trace(wl: Workload, tracer: Tracer, checker: Checker, rnd: Round) -> None:
    """Self times must add up to the round's wall time; bypassed layers must stay at zero."""
    a = tracer.arrays()
    root = a["parent"] < 0
    unit = f"round{rnd.index}/trace"
    checker.check(unit, int(np.count_nonzero(root)) == 1, "spans outside the round span")
    checker.check(unit, int(a["self"].sum()) == int(a["duration"][root].sum()),
                  "self times do not sum to the round's wall time")
    checker.check(unit, bool((a["self"] >= 0).all()), "negative self time")
    calls = {name: s["calls"] for name, s in rnd.spans.items()}
    if wl.homogeneous:
        for name in ("population.apply_switching", "expectations.rolling_sigma"):
            checker.check(unit, calls.get(name, 0) == 0, f"{name} called on the control market")


def per_layer_metrics(traced: list[Round], sizes: dict, file_steps: int, import_s: float,
                      overhead: float) -> dict:
    """Per-layer metrics of the traced rounds.

    Times are inclusive span durations unless the name says self time; a layer
    a workload never calls reads 0.
    """
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    n_runs = 0
    for rnd in traced:
        for name, s in rnd.spans.items():
            acc = spans.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            for k in acc:
                acc[k] += s[k]
        for run in rnd.runs.values():
            n_runs += 1
            for k, v in run["counts"].items():
                counts[k] = counts.get(k, 0) + v
    empty = {"calls": 0, "incl_ns": 0, "self_ns": 0}
    span = lambda name: spans.get(name, empty)  # noqa: E731
    loaded = counts["steps"] if span("runio.load_run_dir")["calls"] else 0
    simulated = counts["steps"] if span("engine.run_simulation")["calls"] else 0
    written = counts["steps"] if span("runio.write_run")["calls"] else 0
    us_step = lambda name: ratio(span(name)["incl_ns"] / 1e3, simulated)  # noqa: E731
    us_call = lambda name: ratio(span(name)["incl_ns"] / 1e3, span(name)["calls"])  # noqa: E731
    per_step = lambda n: ratio(n, simulated)  # noqa: E731
    submits = span("book.submit")["calls"]
    return {
        "population.apply_switching.us_per_step": us_step("population.apply_switching"),
        "population.apply_switching.calls_per_step": per_step(span("population.apply_switching")["calls"]),
        "population.average_price_trend.us_per_step": us_step("population.average_price_trend"),
        "population.switches_per_step": per_step(counts.get("switches", 0)),
        "population.clamp_events": ratio(counts.get("clamps", 0), n_runs),
        "expectations.rolling_sigma.us_per_call": us_call("expectations.rolling_sigma"),
        "expectations.rolling_sigma.calls_per_step": per_step(span("expectations.rolling_sigma")["calls"]),
        "expectations.expected_price.us_per_step": us_step("expectations.expected_price"),
        "expectations.draw_k.us_per_step": us_step("expectations.draw_k"),
        "expectations.decide_order.us_per_step": us_step("expectations.decide_order"),
        "engine.run_simulation.self_us_per_step": ratio(
            span("engine.run_simulation")["self_ns"] / 1e3, simulated),
        "engine.circuit_breaker.us_per_step": us_step("engine.circuit_breaker"),
        "engine.enforce_budget.us_per_step": us_step("engine.enforce_budget"),
        "engine.settle_trade.us_per_step": us_step("engine.settle_trade"),
        "engine.band_reject_ratio": per_step(counts.get("reject_band", 0)),
        "engine.budget_reject_ratio": per_step(
            counts.get("reject_budget_buy", 0) + counts.get("reject_budget_sell", 0)),
        "engine.book_accept_ratio": per_step(submits),
        "engine.trades_per_step": per_step(counts.get("trades", 0)),
        "book.submit.us_per_call": us_call("book.submit"),
        "book.submit.calls_per_step": per_step(submits),
        "book.fill_ratio": ratio(counts.get("trades", 0), submits),
        "book.expire.us_per_step": us_step("book.expire"),
        "book.purge_outside.us_per_step": us_step("book.purge_outside"),
        "book.spread_and_gaps.us_per_step": us_step("book.spread_and_gaps"),
        "book.quotes.us_per_step": us_step("book.quotes"),
        "book.current_price.us_per_step": us_step("book.current_price"),
        "book.mean_depth": ratio(counts.get("depth_sum", 0), counts["steps"]),
        "fundamental.fundamental_path.ms_per_run": ratio(
            span("fundamental.fundamental_path")["incl_ns"] / 1e6, span("engine.run_simulation")["calls"]),
        "runio.write_run.us_per_step": ratio(span("runio.write_run")["incl_ns"] / 1e3, written),
        "runio.steps_csv_bytes_per_step": sizes["steps.csv"] / file_steps,
        "runio.trades_csv_bytes_per_step": sizes["trades.csv"] / file_steps,
        "runio.load_run_dir.us_per_step": ratio(span("runio.load_run_dir")["incl_ns"] / 1e3, loaded),
        "analytics.reduce_run.ms_per_run": us_call("analytics.reduce_run") / 1e3,
        "analytics.analyze_bundles.ms": us_call("analytics.analyze_bundles") / 1e3,
        "setup.import_ms": import_s * 1e3,
        "trace.overhead_frac": overhead,
    }
