"""`tools/surface.py`: its counts against the library's own declarations."""

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import market_abm
from market_abm import cli
from market_abm.config import SWITCH_MODES, SimConfig

TOOL = Path(__file__).resolve().parent.parent / "tools" / "surface.py"


def test_surface_counts():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True, check=True)
    assert len(proc.stdout.splitlines()) == 1
    surface = json.loads(proc.stdout)

    package = Path(market_abm.__file__).resolve().parent
    lines = {p.name: len(p.read_bytes().splitlines()) for p in package.glob("*.py")}
    assert surface["src_lines"] == {**lines, "total": sum(lines.values())}

    assert surface["simconfig_fields"] == len(dataclasses.fields(SimConfig)) == 26
    assert surface["switch_modes"] == len(SWITCH_MODES) == 2  # all_agents, off

    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert surface["cli_arguments"] == {
        name: len({action.dest for action in sub._actions} - {"help"})
        for name, sub in subparsers.items()
    }
    # the first seed is -O seed=N, as for ensemble and reproduce-paper
    assert surface["cli_arguments"]["run"] == 4  # --config, -O, --out, --lob-snapshot
    # --in, --out, --bin-width, --min-obs, --burn-periods
    assert surface["cli_arguments"]["analyze"] == 5
    # --workers defaults to 1; no setting comes from the environment
    assert surface["env_reads"] == 0
    # OrderBook, Population, RunOutput, Side, SimConfig, load_config,
    # run_seeds, run_simulation, __version__
    assert surface["public_names"] == len(market_abm.__all__) == 9
    # names the benchmark wraps that src/ calls only from inside such names
    assert surface["tracer_only_names"] == [
        "best_ask", "best_bid", "current_price", "draw_k", "enforce_budget",
        "expected_price", "spread_and_gaps"]


def load_tool():
    spec = importlib.util.spec_from_file_location("surface", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_env_reads_counts_each_use(tmp_path):
    tool = load_tool()
    (tmp_path / "a.py").write_text('import os\nx = os.environ.get("X", os.getenv("Y"))\n')
    (tmp_path / "b.py").write_text('w = os.environ["W"]\nenviron = "not a read"\n')
    assert tool.env_reads(tmp_path) == 3


def test_tracer_only_names_grow_to_a_fixed_point(tmp_path):
    tool = load_tool()
    (tmp_path / "a.py").write_text(
        "def uncalled():\n    return inner()\n\n"
        "def inner():\n    return obj.leaf() + inner()\n\n"
        "def leaf():\n    pass\n\n"
        "def used():\n    pass\n\n"
        "def loop():\n    used()\n")
    (tmp_path / "b.py").write_text("import a\n\na.used()\n")
    # `uncalled` has no call site; `inner` is called from `uncalled` and from
    # itself, `leaf` from `inner`; `used` is also called at module level
    traced = {"uncalled", "inner", "leaf", "used", "loop"}
    assert tool.tracer_only_names(tmp_path, traced) == ["inner", "leaf", "loop", "uncalled"]
