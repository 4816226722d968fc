"""The size of the code and of its options, as one JSON line.

    python3 tools/surface.py

Prints `src_lines` (the lines of each module under `src/market_abm/`, as
`wc -l` counts them, and their total), `simconfig_fields` (the number of
`SimConfig` fields, each a config key), `switch_modes` (the values
`switch_mode` accepts), `cli_arguments` (per subcommand of `market-abm`,
the arguments its parser takes, `-h` aside), `env_reads` (the uses of
`os.environ` and `os.getenv` in the package's modules), `public_names`
(the names `market_abm.__all__` exports) and `tracer_only_names` (the names
the benchmark wraps, `ENGINE_CALLS` and `BOOK_METHODS` of
`perfbench/workloads.py`, that the package calls only from inside other such
names). It imports the library from the `src/`, and `workloads` from the
`perfbench/`, next to this directory.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


def src_lines() -> dict[str, int]:
    lines = {path.name: path.read_text().count("\n")
             for path in sorted((SRC / "market_abm").glob("*.py"))}
    lines["total"] = sum(lines.values())
    return lines


def env_reads(package: Path) -> int:
    return sum(len(re.findall(r"\bos\.(?:environ|getenv)\b", path.read_text()))
               for path in package.glob("*.py"))


def call_sites(package: Path, names) -> dict[str, list[tuple[str, ...]]]:
    """Per name, one entry per call of it (`name(...)` or `x.name(...)`) in
    the package's modules: the names of the functions the call lies in."""
    sites = {name: [] for name in names}

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = (*enclosing, node.name)
        elif isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "id", None) or getattr(func, "attr", None)
            if called in sites:
                sites[called].append(enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), ())
    return sites


def tracer_only_names(package: Path, traced) -> list[str]:
    """The traced names whose every call site lies inside another such name
    (or inside the name itself, a recursion).

    A name with no call site is one; the set then grows to a fixed point,
    adding each name whose calls all lie inside names already in it.
    """
    sites = call_sites(package, traced)
    only = set()
    while True:
        grown = {name for name, calls in sites.items()
                 if all(any(f in only or f == name for f in enclosing) for enclosing in calls)}
        if grown == only:
            return sorted(only)
        only = grown


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

    sys.path.insert(0, str(PERFBENCH))
    import workloads

    return {
        "src_lines": src_lines(),
        "simconfig_fields": len(dataclasses.fields(SimConfig)),
        "switch_modes": len(SWITCH_MODES),
        "cli_arguments": cli_arguments(cli.build_parser()),
        "env_reads": env_reads(SRC / "market_abm"),
        "public_names": len(market_abm.__all__),
        "tracer_only_names": tracer_only_names(
            SRC / "market_abm", {*workloads.ENGINE_CALLS, *workloads.BOOK_METHODS}),
    }


if __name__ == "__main__":
    print(json.dumps(surface()))
