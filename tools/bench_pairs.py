"""Alternating parent/change benchmark pairs and their BENCH_<label>.json summary.

    python3 tools/bench_pairs.py run --parent ../parent --change . \
        --workload control --seed 1 --pairs 10 --archive bench_reports
    python3 tools/bench_pairs.py summarize --archive bench_reports \
        --label step_loop --out BENCH_step_loop.json

`run` runs `perfbench/run.py` in two checkouts of the repository, one after
the other, for each pair, for `--seconds` each (by default the `run_seconds`
of the `BENCHMARK.json` next to this directory). The checkout that goes first alternates from pair
to pair, so a slow phase of the machine lands on both sides alike. After
each run it copies the report that `perfbench/run.py` wrote to the
checkout's `.perfbench_out/` into the archive directory, as
`<side>-<workload>-seed<seed>-trace<trace>-pair<k>.json`. A run that exits
non-zero, or whose result says `correct: false`, stops the pairs with an
error that names its side and pair; its report is not archived. A git
checkout whose tracked files differ from its HEAD is refused before any run,
since a report names only the HEAD commit; a directory outside git runs as is.

`summarize` reads every archived report. For each workload, seed and trace
mode it writes whether each pair's two reports carry the same digests
(`digests_equal`) and, per side, whether every report repeats that side's
first digests (`digests_stable`): a change that moves the trajectories on
purpose shows `digests_equal` false and `digests_stable` true. For each
metric it writes the per-side median and quartiles,
the per-pair change/parent ratios, their median, and how many pairs the
change won. With six pairs or more it also writes a distribution-free 95%
interval for the median pair ratio: the order statistics r(j) and
r(n + 1 - j) of the n sorted ratios, for the largest j whose binomial
coverage is at least 95%, and that coverage (null below six pairs, where
even the extremes cover less). Which direction wins comes from
`BENCHMARK.json`; a per-layer metric counts as won when the change is
lower, except for the ratios the benchmark marks "higher".

For each end-to-end metric it also writes the parent's spread,
(q3 - q1) / median, and marks the metric `unresolved` when that spread
exceeds the metric's bound and the change's runs are not all better than
all of the parent's, or when the side medians and the median pair ratio
point in opposite directions: a slow phase of the machine on a few of one
side's runs can move the side medians against what the pairs show. It
marks the metric `gain_shown` when the change won at least 9 in 10 of the
pairs (a tie counts for neither side), the change's median is better than
the parent's by more than the parent's q3 - q1, and the median pair ratio
is better than 1 by more than the parent's spread: a claimed gain needs
all three. It marks the metric `regressed` when the change's median is
worse than the parent's by more than the metric's bound, taken as a
fraction of the parent's median: no end-to-end metric of a change may be
marked so. The commits come from the reports' environments.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def uncommitted(root: Path) -> str:
    """The tracked files of git checkout `root` that differ from its HEAD, as
    `git status --porcelain` lists them; empty outside a git checkout."""
    proc = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                           "--untracked-files=no"], capture_output=True, text=True, check=False)
    return proc.stdout if proc.returncode == 0 else ""


def run_pairs(args) -> None:
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for side, root in checkouts.items():
        changed = uncommitted(root)
        if changed:
            raise SystemExit(f"{side} checkout {root} differs from its HEAD; commit or stash "
                             f"first:\n{changed}")
    archive = Path(args.archive)
    archive.mkdir(parents=True, exist_ok=True)
    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads(BENCHMARK.read_text())["run_seconds"])
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            root = checkouts[side]
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                raise SystemExit(f"{side} pair {k} failed:\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{side} pair {k} is not correct: {result['failed']} of "
                                 f"{result['attempted']} units failed\n{proc.stderr[-2000:]}")
            stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
            target = archive / f"{side}-{stem}-pair{k}.json"
            shutil.copy(root / ".perfbench_out" / f"{stem}.json", target)
            print(f"pair {k} {side}: correct={result['correct']} failed={result['failed']} "
                  f"-> {target.name}", flush=True)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def median_interval(ratios: list[float]) -> dict | None:
    """The 95% distribution-free interval for the median of `ratios`:
    [r(j), r(n + 1 - j)] of the sorted ratios for the largest j whose coverage,
    P(j <= B <= n - j) for B ~ Binomial(n, 1/2), is at least 0.95; None when
    not even j = 1 reaches it."""
    n = len(ratios)
    ordered = sorted(ratios)
    best = None
    for j in range(1, n // 2 + 1):
        coverage = 1.0 - 2.0 * sum(math.comb(n, i) for i in range(j)) / 2.0**n
        if coverage < 0.95:
            break
        best = {"lo": ordered[j - 1], "hi": ordered[n - j], "coverage": coverage}
    return best


def metric_specs(benchmark: Path) -> dict[str, dict]:
    """Each metric's entry in BENCHMARK.json, by name; end-to-end ones carry a bound."""
    spec = json.loads(benchmark.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(args) -> None:
    specs = metric_specs(Path(args.benchmark))
    groups: dict[tuple, dict[str, dict[int, dict]]] = {}
    for path in sorted(Path(args.archive).glob("*.json")):
        side, rest = path.stem.split("-", 1)
        stem, pair = rest.rsplit("-pair", 1)
        report = json.loads(path.read_text())
        key = (report["workload"], report["workload_seed"], "trace1" in stem)
        groups.setdefault(key, {s: {} for s in SIDES})[side][int(pair)] = report

    commits = {s: sorted({r["environment"]["git_commit"] for g in groups.values()
                          for r in g[s].values()}) for s in SIDES}
    out = {"label": args.label, "commits": commits, "runs": {}}
    for (workload, seed, traced), sides in sorted(groups.items()):
        pairs = sorted(set(sides["parent"]) & set(sides["change"]))
        if not pairs:
            continue
        reports = {s: [sides[s][k] for k in pairs] for s in SIDES}
        first = reports["parent"][0]
        entry = {
            "workload": workload, "seed": seed, "trace": int(traced), "pairs": len(pairs),
            "failed": {s: sum(r["failed"] for r in reports[s]) for s in SIDES},
            "digests_equal": all(p["digests"] == c["digests"]
                                 for p, c in zip(reports["parent"], reports["change"])),
            "digests_stable": {s: all(r["digests"] == reports[s][0]["digests"] for r in reports[s])
                               for s in SIDES},
            "metrics": {},
        }
        for name, meta in first["metrics"].items():
            values = {s: [r["metrics"][name]["value"] for r in reports[s]] for s in SIDES}
            spec = specs.get(name, {})
            higher = spec.get("better", "lower") == "higher"
            ratios = [c / p if p else None for p, c in zip(values["parent"], values["change"])]
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(values["parent"], values["change"]))
            known = [r for r in ratios if r is not None]
            metric = entry["metrics"][name] = {
                "unit": meta["unit"],
                "better": "higher" if higher else "lower",
                **{s: quartiles(values[s]) for s in SIDES},
                "pair_ratios": ratios,
                "median_ratio": statistics.median(known) if known else None,
                "median_ratio_ci95": median_interval(known),
                "change_wins": wins,
            }
            if "bound" in spec:
                parent = metric["parent"]
                spread = (parent["q3"] - parent["q1"]) / parent["median"]
                if higher:
                    clear = min(values["change"]) > max(values["parent"])
                else:
                    clear = max(values["change"]) < min(values["parent"])
                gain = metric["change"]["median"] - parent["median"]
                # the median pair ratio's move from 1, positive when the change is better
                ratio_gain = 0.0 if not known else metric["median_ratio"] - 1.0
                if not higher:
                    gain, ratio_gain = -gain, -ratio_gain
                metric["parent_spread"] = spread
                metric["unresolved"] = ((spread > spec["bound"] and not clear)
                                        or gain * ratio_gain < 0)
                metric["gain_shown"] = (10 * wins >= 9 * len(pairs)
                                        and gain > parent["q3"] - parent["q1"]
                                        and ratio_gain > spread)
                metric["regressed"] = -gain > spec["bound"] * parent["median"]
        label = f"{workload}-seed{seed}-trace{int(traced)}"
        out["runs"][label] = entry
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}: {', '.join(out['runs'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="alternating parent/change benchmark runs")
    p_run.add_argument("--parent", required=True, help="checkout of the parent commit")
    p_run.add_argument("--change", required=True, help="checkout of the change")
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--seconds", type=float,
                       help="per run; default: BENCHMARK.json's run_seconds")
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--pairs", type=int, default=10)
    p_run.add_argument("--archive", required=True, help="directory the reports are copied to")
    p_sum = sub.add_parser("summarize", help="write BENCH_<label>.json from an archive")
    p_sum.add_argument("--archive", required=True)
    p_sum.add_argument("--label", required=True)
    p_sum.add_argument("--out", required=True)
    p_sum.add_argument("--benchmark", default=str(BENCHMARK))
    args = parser.parse_args(argv)
    run_pairs(args) if args.command == "run" else summarize(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
