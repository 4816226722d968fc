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


def test_digests_stable(summary):
    # control's change moves its digest between pairs; a re-pin moves it in every pair
    assert summary["runs"]["hetero-seed1-trace0"]["digests_stable"] == {"parent": True,
                                                                       "change": True}
    assert summary["runs"]["control-seed1-trace0"]["digests_stable"] == {"parent": True,
                                                                        "change": False}


def test_a_repin_is_stable_but_not_equal(tmp_path):
    archive = tmp_path / "archive"
    archive.mkdir()
    for side, digest in (("parent", "old"), ("change", "new")):
        for pair in (0, 1):
            path = archive / f"{side}-control-seed1-trace0-pair{pair}.json"
            path.write_text(json.dumps(report(side, "control", pair, digest)))
    out = tmp_path / "BENCH_repin.json"
    bench_pairs.main(["summarize", "--archive", str(archive), "--label", "repin",
                      "--out", str(out)])
    entry = json.loads(out.read_text())["runs"]["control-seed1-trace0"]
    assert entry["digests_equal"] is False
    assert entry["digests_stable"] == {"parent": True, "change": True}


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
(out / "argv.json").write_text(json.dumps(sys.argv[1:]))
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


def test_run_takes_its_seconds_from_the_benchmark(tmp_path, monkeypatch):
    parent = stub_checkout(tmp_path / "parent", correct=True)
    change = stub_checkout(tmp_path / "change", correct=True)

    def seconds_passed(*options):
        bench_pairs.main(["run", "--parent", str(parent), "--change", str(change),
                          "--workload", "hetero", "--pairs", "1",
                          "--archive", str(tmp_path / "archive"), *options])
        argv = {side: json.loads((root / ".perfbench_out" / "argv.json").read_text())
                for side, root in (("parent", parent), ("change", change))}
        assert argv["parent"] == argv["change"]
        return argv["parent"][argv["parent"].index("--seconds") + 1]

    # by default, the run_seconds of the repository's BENCHMARK.json
    run_seconds = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]
    assert seconds_passed() == str(float(run_seconds))
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"run_seconds": 7}))
    monkeypatch.setattr(bench_pairs, "BENCHMARK", benchmark)
    assert seconds_passed() == "7.0"
    assert seconds_passed("--seconds", "2.5") == "2.5"


def summarize_pairs(tmp_path, values) -> dict:
    """The metrics `summarize` writes for an archive of control pairs, given
    per metric its (parent, change) values, one per pair; every bound is 0.25."""
    archive = tmp_path / "archive"
    archive.mkdir()
    for k in range(len(next(iter(values.values()))[0])):
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
    out = tmp_path / "BENCH_pairs.json"
    bench_pairs.main(["summarize", "--archive", str(archive), "--label", "pairs",
                      "--out", str(out), "--benchmark", str(benchmark)])
    return json.loads(out.read_text())["runs"]["control-seed1-trace0"]["metrics"]


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
    metrics = summarize_pairs(tmp_path, values)
    assert metrics["sim_steps_per_s"]["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert [metrics[name]["change_wins"] for name in values] == [9, 8, 10]
    assert [metrics[name]["gain_shown"] for name in values] == [True, False, False]


def test_regressed_when_the_median_is_worse_by_more_than_the_bound(tmp_path):
    parent = [100.0 + k for k in range(5)]  # median 102
    values = {
        # regressed: the median falls 30% against a bound of 25%
        "sim_steps_per_s": (parent, [0.7 * p for p in parent]),
        # within the bound: the median rises 20% against 25%
        "wall_s": (parent, [1.2 * p for p in parent]),
        # better: the median halves
        "load_us_per_step": (parent, [0.5 * p for p in parent]),
    }
    metrics = summarize_pairs(tmp_path, values)
    assert [metrics[name]["regressed"] for name in values] == [True, False, False]
    assert [metrics[name]["change_wins"] for name in values] == [0, 0, 5]


def test_gain_shown_in_the_two_pair_archive(summary):
    metrics = summary["runs"]["hetero-seed1-trace0"]["metrics"]
    # steps/s: a win and a tie is one in two; wall_s: one win in two
    assert metrics["sim_steps_per_s"]["gain_shown"] is False
    assert metrics["wall_s"]["gain_shown"] is False
    # load: two wins in two, medians 3.5 -> 2.25 against the parent's q3 - q1 of 0.5
    assert metrics["load_us_per_step"]["gain_shown"] is True



def test_median_interval_from_order_statistics():
    # n = 10: r(2) and r(9), coverage 1 - 2 * 11 / 1024
    got = bench_pairs.median_interval([1.0 + k / 100 for k in (9, 0, 8, 1, 7, 2, 6, 3, 5, 4)])
    assert got == {"lo": 1.01, "hi": 1.08, "coverage": pytest.approx(1 - 22 / 1024)}
    # n = 6: the extremes, coverage 1 - 2 / 64; n = 5: even they cover only 0.9375
    got = bench_pairs.median_interval([3.0, 1.0, 2.0, 6.0, 5.0, 4.0])
    assert got == {"lo": 1.0, "hi": 6.0, "coverage": pytest.approx(62 / 64)}
    assert bench_pairs.median_interval([1.0, 2.0, 3.0, 4.0, 5.0]) is None


def test_slow_parent_runs_that_flip_the_side_medians_leave_it_unresolved(tmp_path):
    # the change loses 8 of 10 pairs by 2%, but the machine slowed on the
    # parent's runs of the two pairs where the parent was fastest
    parent = [110.0 - 2 * k for k in range(10)]  # 110, 108, ..., 92
    change = [0.98 * p for p in parent]
    parent[:2] = [50.0, 40.0]
    metrics = summarize_pairs(tmp_path, {"sim_steps_per_s": (parent, change)})
    m = metrics["sim_steps_per_s"]
    assert m["parent"]["median"] == 97.0  # (96 + 98) / 2
    assert m["change"]["median"] == pytest.approx(0.98 * 101)  # 0.98 * (100 + 102) / 2
    assert m["median_ratio"] == pytest.approx(0.98)
    # r(2) and r(9) of the ten ratios: the interval straddles 1
    assert m["median_ratio_ci95"]["lo"] == pytest.approx(0.98)
    assert m["median_ratio_ci95"]["hi"] == pytest.approx(0.98 * 110 / 50)
    assert m["change_wins"] == 2
    # the side medians read better, the pairs worse; the spread alone would
    # not make it unresolved, and the verdicts stay as they were
    assert m["parent_spread"] < 0.25
    assert m["unresolved"] is True
    assert (m["gain_shown"], m["regressed"]) == (False, False)


def test_gain_shown_needs_the_median_pair_ratio_beyond_the_parent_spread(tmp_path):
    # ten wins, and the medians 99 -> 101.5 differ by more than the parent's
    # q3 - q1 of 2; but the median pair ratio, 1.015, is not 1 + 2 / 99 or more
    parent = [100.0] * 5 + [98.0] * 5
    change = [101.5] * 6 + [98.5] * 4
    metrics = summarize_pairs(tmp_path, {"sim_steps_per_s": (parent, change)})
    m = metrics["sim_steps_per_s"]
    assert (m["parent"]["median"], m["change"]["median"]) == (99.0, 101.5)
    assert m["change_wins"] == 10
    assert m["median_ratio"] == pytest.approx(1.015)
    assert m["parent_spread"] == pytest.approx(2 / 99)
    assert (m["gain_shown"], m["unresolved"]) == (False, False)
    # the same pairs a little further apart show the gain
    (tmp_path / "wider").mkdir()
    metrics = summarize_pairs(tmp_path / "wider", {
        "sim_steps_per_s": (parent, [102.5] * 6 + [98.5] * 4)})
    assert metrics["sim_steps_per_s"]["gain_shown"] is True
