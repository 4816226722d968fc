"""`tools/bench_pairs.py`: `summarize` on a tiny synthetic archive of
reports, and `run` on stub checkouts."""

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
LOAD_US = [(3.0, 2.0), (4.0, 2.5)]  # every change run beats every parent run


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
            "load_us_per_step": {"value": LOAD_US[pair][k], "unit": "us/step"},
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
        "end_to_end": [{"name": "sim_steps_per_s", "better": "higher", "bound": 0.25},
                       {"name": "wall_s", "better": "lower", "bound": 0.05},
                       {"name": "load_us_per_step", "better": "lower", "bound": 0.05}],
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


def test_unresolved_when_the_parent_spreads_beyond_the_bound(summary):
    metrics = summary["runs"]["hetero-seed1-trace0"]["metrics"]
    # steps/s: parent spread 5 / 105, inside its 0.25 bound
    assert metrics["sim_steps_per_s"]["parent_spread"] == pytest.approx(5 / 105)
    assert metrics["sim_steps_per_s"]["unresolved"] is False
    # wall_s: spread 1 / 11 beyond its 0.05 bound, and the runs overlap
    assert metrics["wall_s"]["parent_spread"] == pytest.approx(1 / 11)
    assert metrics["wall_s"]["unresolved"] is True
    # load: spread 0.5 / 3.5 beyond its bound, but every change run is better
    assert metrics["load_us_per_step"]["parent_spread"] == pytest.approx(0.5 / 3.5)
    assert metrics["load_us_per_step"]["unresolved"] is False


STUB_RUN = """
import json, sys
from pathlib import Path

correct = {correct}
out = Path(".perfbench_out")
out.mkdir(exist_ok=True)
(out / "hetero-seed1-trace0.json").write_text(json.dumps({{"correct": correct}}))
if not correct:
    print("FAILED seed_100: digest mismatch", file=sys.stderr)
print(json.dumps({{"correct": correct, "attempted": 5, "failed": 0 if correct else 2,
                  "metrics": {{}}}}))
"""


def stub_checkout(root: Path, correct: bool) -> Path:
    """A checkout whose `perfbench/run.py` writes a report and prints its result line."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN.format(correct=correct))
    return root


def test_run_stops_on_an_incorrect_result(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", correct=True)
    change = stub_checkout(tmp_path / "change", correct=False)
    archive = tmp_path / "archive"
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["run", "--parent", str(parent), "--change", str(change),
                          "--workload", "hetero", "--pairs", "3", "--seconds", "1",
                          "--archive", str(archive)])
    message = str(stop.value.code)
    assert message.startswith("change pair 0 is not correct: 2 of 5 units failed")
    assert "digest mismatch" in message
    # the parent's run of pair 0 went first and is archived; nothing after it
    assert sorted(p.name for p in archive.iterdir()) == ["parent-hetero-seed1-trace0-pair0.json"]
    assert "pair 0 parent: correct=True" in capsys.readouterr().out


def test_gain_shown_needs_nine_wins_in_ten_and_a_median_beyond_the_parent_iqr(tmp_path):
    parent = [100.0 + k for k in range(10)]  # median 104.5, q3 - q1 = 4.5
    values = {
        # shown: 9 wins and a tie, medians 113.5 against 104.5
        "sim_steps_per_s": (parent, [p + 10.0 for p in parent[:9]] + [parent[9]]),
        # not shown: medians far apart but only 8 wins
        "wall_s": (parent, [p - 10.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]]),
        # not shown: 10 wins, but medians 0.5 apart, inside the parent's 4.5
        "load_us_per_step": (parent, [p - 0.5 for p in parent]),
    }
    archive = tmp_path / "archive"
    archive.mkdir()
    for k in range(10):
        for side, i in (("parent", 0), ("change", 1)):
            rep = report(side, "control", 0)
            rep["metrics"] = {name: {"value": v[i][k], "unit": "u"} for name, v in values.items()}
            (archive / f"{side}-control-seed1-trace0-pair{k}.json").write_text(json.dumps(rep))
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({
        "end_to_end": [{"name": "sim_steps_per_s", "better": "higher", "bound": 0.25},
                       {"name": "wall_s", "better": "lower", "bound": 0.25},
                       {"name": "load_us_per_step", "better": "lower", "bound": 0.25}],
        "per_layer": [],
    }))
    out = tmp_path / "BENCH_gain.json"
    bench_pairs.main(["summarize", "--archive", str(archive), "--label", "gain",
                      "--out", str(out), "--benchmark", str(benchmark)])
    metrics = json.loads(out.read_text())["runs"]["control-seed1-trace0"]["metrics"]
    assert metrics["sim_steps_per_s"]["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert [metrics[name]["change_wins"] for name in values] == [9, 8, 10]
    assert [metrics[name]["gain_shown"] for name in values] == [True, False, False]


def test_gain_shown_in_the_two_pair_archive(summary):
    metrics = summary["runs"]["hetero-seed1-trace0"]["metrics"]
    # steps/s: a win and a tie is one in two; wall_s: one win in two
    assert metrics["sim_steps_per_s"]["gain_shown"] is False
    assert metrics["wall_s"]["gain_shown"] is False
    # load: two wins in two, medians 3.5 -> 2.25 against the parent's q3 - q1 of 0.5
    assert metrics["load_us_per_step"]["gain_shown"] is True
