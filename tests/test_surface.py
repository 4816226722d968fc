"""`tools/surface.py`: its counts against the library's own declarations."""

import dataclasses
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
    assert surface["cli_arguments"]["run"] == 5  # --config, -O, --out, --seed, --lob-snapshot
    # --in, --out, --bin-width, --min-obs, --burn-periods
    assert surface["cli_arguments"]["analyze"] == 5
