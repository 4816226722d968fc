"""Pipeline benchmark for market-abm.

    python3 perfbench/run.py --workload hetero --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark imports the library from the
checkout's `src/` (it refuses to run without it), sets up the workload,
repeats the workload's rounds for `--seconds` and checks every output. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a separate traced run with
`--trace 1`. Lines before it give the environment, every metric by name and
unit, failed_frac and the output digests. A full report (and, when traced,
the spans of the last traced round as .npz) goes to `.perfbench_out/`;
scratch files live in `.perfbench_work/` and are removed on exit.

Workloads and the default workload seed are defined in `workloads.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_library(root: Path) -> None:
    """Make the checkout's own `market_abm` importable; refuse any other copy."""
    src = root / "src"
    if not (src / "market_abm" / "__init__.py").is_file():
        raise RuntimeError(f"no market_abm sources under {src}")
    sys.path.insert(0, str(src))
    import market_abm

    if Path(market_abm.__file__).resolve().parent != (src / "market_abm").resolve():
        raise RuntimeError(f"imported market_abm from {market_abm.__file__}, not from {src}")


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, workloads) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "workers": 1,
        "default_seed": workloads.DEFAULT_SEED,
        "workloads": {
            wl.name: {"runs_per_round": wl.runs, "steps_per_run": wl.steps, "why": wl.why}
            for wl in workloads.WORKLOADS.values()
        },
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="workload seed; every run seed is derived from it")
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    try:
        load_library(ROOT)
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv, workloads)
    wl = workloads.WORKLOADS[args.workload]
    env = environment(ROOT, workloads)
    work = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        result, tracer = workloads.measure(wl, args.seed, args.seconds, bool(args.trace), ROOT, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()

    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    metrics = {name: {"value": float(result["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    report_dir = ROOT / ".perfbench_out"
    report_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(report_dir / f"{stem}-spans.npz")
    report = {"environment": env, **result, "metrics": metrics}
    (report_dir / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    for key in ("python", "numpy", "nproc", "git_commit", "workers"):
        print(f"env {key} = {env[key]}")
    print(f"workload {wl.name}: seed {args.seed} -> run seeds {result['run_seeds']}, "
          f"{wl.runs} runs x {wl.steps} steps per round, {result['rounds']} rounds "
          f"({result['traced_rounds']} traced)")
    print(f"why {wl.name}: {wl.why}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} units)")
    for key, digest in result["digests"].items():
        print(f"digest {wl.name} {key} {digest}")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
