"""Command-line entry point: run, ensemble, analyze, reproduce-paper.

All outputs live under a single --out root. Ensembles run their seeds
concurrently up to --workers (default from MARKET_ABM_WORKERS, else 1) and
write an experiment manifest recording the config hash, seed list and
per-run wall clock, so re-running a manifest reproduces identical outputs.
"""

from __future__ import annotations

import argparse
import errno
import os
import shlex
import sys
import time
from pathlib import Path

from . import __version__
from .analytics import (BIN_WIDTH, BURN_PERIODS, MIN_OBS, analyze_bundles,
                        check_analysis_options, reduce_run)
from .config import SimConfig, dump_config, load_config, parse_overrides
from .engine import run_seeds, run_simulation
from .runio import (
    find_run_dirs,
    load_run_dir,
    sha256_file,
    write_analysis,
    write_json,
    write_run,
)

WORKERS_ENV = "MARKET_ABM_WORKERS"


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _experiment_manifest(out_root: Path, args, cfg: SimConfig, seeds, run_entries) -> None:
    manifest = {
        "tool_version": __version__,
        "command": shlex.join(args.argv),
        "config_path": str(args.config) if getattr(args, "config", None) else None,
        "config_sha256": sha256_file(args.config) if getattr(args, "config", None) else None,
        "config": cfg.as_dict(),
        "seeds": list(seeds),
        "runs": run_entries,
    }
    write_json(out_root / "experiment.json", manifest)


def _out_root(out: str) -> Path:
    """`--out` as a path, refused before any work when it names something that is
    not a directory. Nothing is created here."""
    out_root = Path(out)
    if out_root.exists() and not out_root.is_dir():
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), out)
    return out_root


def cmd_run(args) -> int:
    out_root = _out_root(args.out)
    overrides = parse_overrides(args.override or [])
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.config, overrides)
    started = time.perf_counter()
    run = run_simulation(cfg, lob_snapshot_steps=args.lob_snapshot or ())
    elapsed = time.perf_counter() - started
    # created only now, so a rejected run leaves no empty directory behind
    out_root.mkdir(parents=True, exist_ok=True)
    write_run(out_root, run)
    (out_root / "config.txt").write_text(dump_config(cfg))
    _experiment_manifest(
        out_root, args, cfg, [cfg.seed],
        [{"seed": cfg.seed, "path": str(out_root), "wall_clock_s": round(elapsed, 3)}],
    )
    print(f"run seed={cfg.seed}: {len(run.records)} steps, {len(run.trades)} trades "
          f"in {elapsed:.1f}s -> {out_root}")
    return 0


def _run_seeds_to_dirs(
    cfg: SimConfig, seeds, out_root: Path, workers: int, reducer=None
) -> tuple[list[dict], dict]:
    """Run the seeds on up to `workers` processes, writing each run as it
    arrives.

    `reducer(run)` is applied before the run is let go, so an ensemble holds
    one run's step records at a time, besides any a pool has finished and not
    yet handed over. Returns (manifest entries in seed order, reduced results
    keyed by seed).
    """
    entries: dict[int, dict] = {}
    reduced: dict[int, object] = {}
    failures: list[str] = []
    for seed, run, elapsed in run_seeds(cfg, seeds, workers):
        if isinstance(run, Exception):
            failures.append(f"  seed {seed} FAILED: {run}")
        else:
            run_dir = out_root / "runs" / f"seed_{seed}"
            write_run(run_dir, run)
            if reducer is not None:
                reduced[seed] = reducer(run)
            entries[seed] = {"seed": seed, "path": str(run_dir), "wall_clock_s": round(elapsed, 3)}
            print(f"  seed {seed}: {len(run.trades)} trades in {elapsed:.1f}s")
        del run  # not held while the next run is made
    for line in failures:
        print(line, file=sys.stderr)
    ordered = [entries[s] for s in seeds if s in entries]
    if not ordered:
        raise RuntimeError("every run failed")
    return ordered, reduced


def cmd_ensemble(args) -> int:
    if args.seeds < 1:
        print("--seeds must be >= 1", file=sys.stderr)
        return 2
    cfg = load_config(args.config, parse_overrides(args.override or []))
    seeds = list(range(cfg.seed, cfg.seed + args.seeds))
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    entries, _ = _run_seeds_to_dirs(cfg, seeds, out_root, args.workers)
    _experiment_manifest(out_root, args, cfg, seeds, entries)
    print(f"ensemble: {len(entries)}/{len(seeds)} runs -> {out_root}")
    return 0 if len(entries) == len(seeds) else 1


def cmd_analyze(args) -> int:
    out_root = _out_root(args.out)
    run_dirs = find_run_dirs(args.indirs)
    if not run_dirs:
        print(f"error: no steps.csv found under: {', '.join(args.indirs)}", file=sys.stderr)
        return 1
    bundles = []
    spp = None
    for run_dir in run_dirs:
        records, manifest = load_run_dir(run_dir)
        run_spp = manifest["config"]["steps_per_period"]
        spp = run_spp if spp is None else spp
        if run_spp != spp:
            raise ValueError(f"{run_dir}: steps_per_period {run_spp}, but {spp} in {run_dirs[0]}")
        try:
            bundles.append(reduce_run(records, spp))
        except ValueError as exc:
            raise ValueError(f"{run_dir}: {exc}") from None
        del records  # not held while the next run is loaded
    report = analyze_bundles(
        bundles, spp, bin_width=args.bin_width, min_obs=args.min_obs,
        burn_periods=args.burn_periods,
    )
    write_analysis(out_root, report)
    print(f"analyzed {len(bundles)} run(s) -> {out_root / 'analysis.json'}")
    return 0


def experiment_config(scale: float, homogeneous: bool, overrides: dict | None = None) -> SimConfig:
    """Canonical experiment recipe at a given scale.

    The heterogeneous market starts chartist-heavy with tight endowments so
    one run traverses collapse, the intermediate regimes and the efficient
    state; the control market holds only fundamentalists with switching off.
    """
    steps = max(100, int(round(1_000_000 * scale)))
    if homogeneous:
        base = dict(steps=steps, switch_mode="off", init_frac_f=1.0, init_frac_opt=0.0,
                    init_cash=450.0, init_shares=1)
    else:
        base = dict(steps=steps, init_frac_f=0.15, init_frac_opt=0.425,
                    init_cash=450.0, init_shares=1)
    base.update(overrides or {})
    return load_config(None, base)


def experiment_seeds(scale: float, first_seed: int = 0) -> list[int]:
    return list(range(first_seed, first_seed + max(1, int(round(100 * scale)))))


def cmd_reproduce_paper(args) -> int:
    scale = args.scale
    if not 0 < scale < float("inf"):  # NaN fails both comparisons
        print("--scale must be finite and > 0", file=sys.stderr)
        return 2
    overrides = parse_overrides(args.override or [])
    cfg = experiment_config(scale, args.homogeneous, overrides)
    check_analysis_options(cfg.steps // cfg.steps_per_period, bin_width=args.bin_width,
                           burn_periods=args.burn_periods)
    seeds = experiment_seeds(scale, cfg.seed)
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    label = "homogeneous" if args.homogeneous else "heterogeneous"
    print(f"{label} ensemble: {len(seeds)} seeds x {cfg.steps} steps (scale {scale})")
    entries, reduced = _run_seeds_to_dirs(
        cfg, seeds, out_root, args.workers,
        reducer=lambda run: reduce_run(run.records, cfg.steps_per_period),
    )
    _experiment_manifest(out_root, args, cfg, seeds, entries)

    bundles = [reduced[e["seed"]] for e in entries]
    report = analyze_bundles(
        bundles,
        cfg.steps_per_period,
        bin_width=args.bin_width,
        burn_periods=args.burn_periods,
    )
    write_analysis(out_root / "analysis", report)
    print(f"report -> {out_root / 'analysis' / 'analysis.json'}")
    return 0 if len(entries) == len(seeds) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="market-abm",
        description="Agent-based double-auction market simulator and analytics",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:  # reproduce-paper builds its own config, which -O still adjusts
            p.add_argument("--config", help="key = value config file")
        p.add_argument(
            "-O", "--override", action="append", metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--out", required=True, help="output directory")

    p_run = sub.add_parser("run", help="single simulation run")
    add_common(p_run)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument(
        "--lob-snapshot", action="append", type=int, metavar="STEP",
        help="write a book snapshot CSV at this step, 1..steps (repeatable)",
    )
    p_run.set_defaults(func=cmd_run)

    p_ens = sub.add_parser("ensemble", help="independent runs over consecutive seeds")
    add_common(p_ens)
    p_ens.add_argument("--seeds", type=int, required=True, help="number of seeds")
    p_ens.add_argument("--workers", type=int, default=_default_workers())
    p_ens.set_defaults(func=cmd_ensemble)

    p_an = sub.add_parser("analyze", help="statistics report over finished runs")
    p_an.add_argument("--in", dest="indirs", nargs="+", required=True, metavar="DIR")
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--bin-width", type=float, default=BIN_WIDTH)
    p_an.add_argument("--min-obs", type=int, default=MIN_OBS,
                      help="bin population needed for regime boundaries and sigma curves")
    p_an.add_argument("--burn-periods", type=int, default=BURN_PERIODS,
                      help="initial trading periods excluded from temporal statistics")
    p_an.set_defaults(func=cmd_analyze)

    p_rep = sub.add_parser(
        "reproduce-paper",
        help="full experiment recipe: ensemble plus analytics report at a given scale",
    )
    add_common(p_rep, config=False)
    p_rep.add_argument(
        "--scale", type=float, default=0.1,
        help="1.0 = 100 seeds x 1e6 steps; default desk scale 0.1 = 10 seeds x 1e5 steps",
    )
    p_rep.add_argument("--homogeneous", action="store_true",
                       help="all-fundamentalist control market with switching disabled")
    p_rep.add_argument("--workers", type=int, default=_default_workers())
    p_rep.add_argument("--bin-width", type=float, default=BIN_WIDTH,
                       help="chartist-fraction bin width for the regime tables")
    p_rep.add_argument("--burn-periods", type=int, default=BURN_PERIODS,
                       help="initial trading periods excluded from temporal statistics")
    p_rep.set_defaults(func=cmd_reproduce_paper)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv  # the command experiment.json records
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # OSError: an output path that cannot be made, such as an --out naming a file
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
