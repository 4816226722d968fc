"""Tests of the benchmark itself: tracer arithmetic, restoration, metric names.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from market_abm import analytics, book, cli, engine, runio  # noqa: E402


def tiny(name: str) -> workloads.Workload:
    """The named workload at smoke-test size; too short to burn in, so no burn-in."""
    wl = workloads.WORKLOADS[name]
    return dataclasses.replace(wl, steps=3_000, analysis={**wl.analysis, "burn_periods": 0})


@pytest.fixture(scope="module")
def smoke():
    """One tiny run per workload and trace mode, through the command-line entry point."""
    patch = pytest.MonkeyPatch()
    for name in workloads.WORKLOADS:
        patch.setitem(workloads.WORKLOADS, name, tiny(name))
    patch.setattr(workloads, "IMPORT_PROBES", 1)
    results = {}
    try:
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                out = _capture(["--workload", name, "--seed", "3", "--seconds", "0.01",
                                "--trace", str(trace)])
                results[name, trace] = out
    finally:
        patch.undo()
    return results


def _capture(argv) -> tuple[list[str], dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(argv) == 0
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_with_unit(smoke, name, trace):
    lines, result = smoke[name, trace]
    expected = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.startswith(f"metric {metric} = ") and line.endswith(f" {unit}")
                   for line in lines), metric
    assert any(line.startswith("failed_frac = 0 ") for line in lines)
    assert any(line.startswith(f"digest {name} analysis.json ") for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_control_never_calls_population_or_rolling_sigma(smoke):
    control = smoke["control", 1][1]["metrics"]
    hetero = smoke["hetero", 1][1]["metrics"]
    for metric in ("population.apply_switching.calls_per_step",
                   "expectations.rolling_sigma.calls_per_step"):
        assert control[metric]["value"] == 0.0
        assert hetero[metric]["value"] > 0.0


def test_round_cut_short_is_not_analysed_and_passes_its_checks(tmp_path):
    wl = tiny("control")
    configs = [cli.experiment_config(1.0, wl.homogeneous, {"steps": wl.steps, "seed": s})
               for s in workloads.run_seeds(3, wl.runs)]
    checker = workloads.Checker()
    rounds = []
    for stop in (float("inf"), 0.0):  # the second round starts after its stop time
        rnd = workloads.Round(index=len(rounds), traced=False)
        workloads.recipe_round(wl, configs, tmp_path, checker, rnd, stop)
        workloads.check_round(wl, rnd, rounds[0] if rounds else None, tmp_path / "runs", checker)
        rnd.digests = workloads.round_digests(rnd, tmp_path / "runs", tmp_path)
        rounds.append(rnd)
    whole, cut = rounds
    assert whole.complete and len(whole.runs) == wl.runs and "analysis.json" in whole.digests
    assert not cut.complete and cut.runs == {} and cut.digests == {}
    assert checker.failed == 0 and checker.attempted == wl.runs + 1


def test_install_tracer_then_restore_puts_originals_back():
    owners = [engine, book.OrderBook, runio, analytics]
    before = [dict(vars(owner)) for owner in owners]
    t = tracer_mod.Tracer()
    workloads.install_tracer(t)
    assert engine.run_simulation is not before[0]["run_simulation"]
    assert book.OrderBook.__dict__["submit"] is not before[1]["submit"]
    t.restore()
    for owner, saved in zip(owners, before):
        assert dict(vars(owner)) == saved


def fake_clock():
    """A clock that advances 10 ns per reading."""
    ticks = iter(range(0, 10_000, 10))
    return lambda: next(ticks)


def test_self_time_is_duration_minus_direct_children():
    ns = types.SimpleNamespace()
    ns.inner = lambda: None
    ns.outer = lambda: (ns.inner(), ns.inner())
    t = tracer_mod.Tracer(clock=fake_clock())
    t.wrap(ns, "inner", "inner")
    t.wrap(ns, "outer", "outer")
    with t.span("root"):
        ns.outer()
    t.restore()
    # clock reads: root 0, outer 10, inner 20-30, inner 40-50, outer end 60, root end 70
    summary = t.summary()
    assert summary["root"] == {"calls": 1, "incl_ns": 70, "self_ns": 20}
    assert summary["outer"] == {"calls": 1, "incl_ns": 50, "self_ns": 30}
    assert summary["inner"] == {"calls": 2, "incl_ns": 20, "self_ns": 20}
    spans = t.arrays()
    assert int(spans["self"].sum()) == 70
    assert ns.__dict__["inner"].__name__ == "<lambda>"


def test_group_inclusive_time_counts_nested_members_once():
    ns = types.SimpleNamespace()
    ns.ticks = lambda: None
    ns.quote = lambda: ns.ticks()
    t = tracer_mod.Tracer(clock=fake_clock())
    t.wrap(ns, "ticks", "ticks")
    t.wrap(ns, "quote", "quote")
    ns.quote()
    ns.ticks()
    t.restore()
    # quote 0-30 holding ticks 10-20; ticks 40-50 on its own
    group = t.summary({"quotes": ("quote", "ticks")})["quotes"]
    assert group == {"calls": 3, "incl_ns": 40, "self_ns": 40}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hetero", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
