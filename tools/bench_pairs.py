"""Alternating parent/change benchmark pairs and their BENCH_<label>.json summary.

    python3 tools/bench_pairs.py run --parent ../parent --change . \
        --workload control --seed 1 --pairs 10 --archive bench_reports
    python3 tools/bench_pairs.py summarize --archive bench_reports \
        --label step_loop --out BENCH_step_loop.json

`run` runs `perfbench/run.py` in two checkouts of the repository, one after
the other, for each pair. The checkout that goes first alternates from pair
to pair, so a slow phase of the machine lands on both sides alike. After
each run it copies the report that `perfbench/run.py` wrote to the
checkout's `.perfbench_out/` into the archive directory, as
`<side>-<workload>-seed<seed>-trace<trace>-pair<k>.json`. A run that exits
non-zero, or whose result says `correct: false`, stops the pairs with an
error that names its side and pair; its report is not archived.

`summarize` reads every archived report. For each workload, seed and trace
mode, and for each metric, it writes the per-side median and quartiles,
the per-pair change/parent ratios, and how many pairs the change won. Which
direction wins comes from `BENCHMARK.json`; a per-layer metric counts as
won when the change is lower, except for the ratios the benchmark marks
"higher". For each end-to-end metric it also writes the parent's spread,
(q3 - q1) / median, and marks the metric `unresolved` when that spread
exceeds the metric's bound and the change's runs are not all better than
all of the parent's: such runs are too noisy to tell a move within the
bound. It marks the metric `gain_shown` when the change won at least 9 in
10 of the pairs (a tie counts for neither side) and the change's median is
better than the parent's by more than the parent's q3 - q1: a claimed gain
needs both. The commits come from the reports' environments.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_pairs(args) -> None:
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    archive = Path(args.archive)
    archive.mkdir(parents=True, exist_ok=True)
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            root = checkouts[side]
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
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
                "change_wins": wins,
            }
            if "bound" in spec:
                parent = metric["parent"]
                spread = (parent["q3"] - parent["q1"]) / parent["median"]
                if higher:
                    clear = min(values["change"]) > max(values["parent"])
                else:
                    clear = max(values["change"]) < min(values["parent"])
                metric["parent_spread"] = spread
                metric["unresolved"] = spread > spec["bound"] and not clear
                gain = metric["change"]["median"] - parent["median"]
                metric["gain_shown"] = (10 * wins >= 9 * len(pairs)
                                        and (gain if higher else -gain) > parent["q3"] - parent["q1"])
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
    p_run.add_argument("--seconds", type=float, default=55.0)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--pairs", type=int, default=10)
    p_run.add_argument("--archive", required=True, help="directory the reports are copied to")
    p_sum = sub.add_parser("summarize", help="write BENCH_<label>.json from an archive")
    p_sum.add_argument("--archive", required=True)
    p_sum.add_argument("--label", required=True)
    p_sum.add_argument("--out", required=True)
    p_sum.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent
                                                  / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    run_pairs(args) if args.command == "run" else summarize(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
