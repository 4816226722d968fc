"""`tools/bench_pairs.py summarize` on a tiny synthetic archive of reports."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# (parent, change) per pair; pair 1 ties on steps/s
STEPS_PER_S = [(100.0, 120.0), (110.0, 110.0)]
WALL_S = [(10.0, 8.0), (12.0, 13.0)]


def report(side, workload, pair, digest="d"):
    k = 0 if side == "parent" else 1
    return {
        "workload": workload,
        "workload_seed": 1,
        "environment": {"git_commit": f"{side}-commit"},
        "failed": 0,
        "digests": {"seed_100/steps.csv": digest},
        "metrics": {
            "sim_steps_per_s": {"value": STEPS_PER_S[pair][k], "unit": "steps/s"},
            "wall_s": {"value": WALL_S[pair][k], "unit": "s"},
        },
    }


@pytest.fixture()
def summary(tmp_path):
    archive = tmp_path / "archive"
    archive.mkdir()
    for side in ("parent", "change"):
        for pair in (0, 1):
            for workload in ("hetero", "control"):
                # control's change writes a different digest in pair 1
                digest = "x" if (workload, side, pair) == ("control", "change", 1) else "d"
                path = archive / f"{side}-{workload}-seed1-trace0-pair{pair}.json"
                path.write_text(json.dumps(report(side, workload, pair, digest)))
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({
        "end_to_end": [{"name": "sim_steps_per_s", "better": "higher"},
                       {"name": "wall_s", "better": "lower"}],
        "per_layer": [],
    }))
    out = tmp_path / "BENCH_test.json"
    assert bench_pairs.main(["summarize", "--archive", str(archive), "--label", "test",
                             "--out", str(out), "--benchmark", str(benchmark)]) == 0
    return json.loads(out.read_text())


def test_commits_and_groups(summary):
    assert summary["label"] == "test"
    assert summary["commits"] == {"parent": ["parent-commit"], "change": ["change-commit"]}
    assert sorted(summary["runs"]) == ["control-seed1-trace0", "hetero-seed1-trace0"]
    hetero = summary["runs"]["hetero-seed1-trace0"]
    assert (hetero["pairs"], hetero["trace"], hetero["seed"]) == (2, 0, 1)
    assert hetero["failed"] == {"parent": 0, "change": 0}


def test_digests_equal(summary):
    assert summary["runs"]["hetero-seed1-trace0"]["digests_equal"] is True
    assert summary["runs"]["control-seed1-trace0"]["digests_equal"] is False


def test_higher_is_better_metric(summary):
    m = summary["runs"]["hetero-seed1-trace0"]["metrics"]["sim_steps_per_s"]
    assert m["better"] == "higher" and m["unit"] == "steps/s"
    assert m["parent"] == {"median": 105.0, "q1": 102.5, "q3": 107.5}
    assert m["change"] == {"median": 115.0, "q1": 112.5, "q3": 117.5}
    assert m["pair_ratios"] == [1.2, 1.0]
    assert m["median_ratio"] == pytest.approx(1.1)
    assert m["change_wins"] == 1  # the tie counts for neither side


def test_lower_is_better_metric(summary):
    m = summary["runs"]["hetero-seed1-trace0"]["metrics"]["wall_s"]
    assert m["better"] == "lower"
    assert m["parent"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert m["change"] == {"median": 10.5, "q1": 9.25, "q3": 11.75}
    assert m["pair_ratios"] == pytest.approx([0.8, 13 / 12])
    assert m["median_ratio"] == pytest.approx((0.8 + 13 / 12) / 2)
    assert m["change_wins"] == 1
