"""The size of the code and of its options, as one JSON line.

    python3 tools/surface.py

Prints `src_lines` (the lines of each module under `src/market_abm/`, as
`wc -l` counts them, and their total), `simconfig_fields` (the number of
`SimConfig` fields, each a config key), `switch_modes` (the values
`switch_mode` accepts), `cli_arguments` (per subcommand of `market-abm`,
the arguments its parser takes, `-h` aside), `env_reads` (the uses of
`os.environ` and `os.getenv` in the package's modules) and `public_names`
(the names `market_abm.__all__` exports). It imports the library from the
`src/` next to this directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def src_lines() -> dict[str, int]:
    lines = {path.name: path.read_text().count("\n")
             for path in sorted((SRC / "market_abm").glob("*.py"))}
    lines["total"] = sum(lines.values())
    return lines


def env_reads(package: Path) -> int:
    return sum(len(re.findall(r"\bos\.(?:environ|getenv)\b", path.read_text()))
               for path in package.glob("*.py"))


def cli_arguments(parser: argparse.ArgumentParser) -> dict[str, int]:
    counts = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                counts[name] = sum(not isinstance(a, argparse._HelpAction) for a in sub._actions)
    return counts


def surface() -> dict:
    sys.path.insert(0, str(SRC))
    import market_abm
    from market_abm import cli
    from market_abm.config import SWITCH_MODES, SimConfig

    return {
        "src_lines": src_lines(),
        "simconfig_fields": len(dataclasses.fields(SimConfig)),
        "switch_modes": len(SWITCH_MODES),
        "cli_arguments": cli_arguments(cli.build_parser()),
        "env_reads": env_reads(SRC / "market_abm"),
        "public_names": len(market_abm.__all__),
    }


if __name__ == "__main__":
    print(json.dumps(surface()))
