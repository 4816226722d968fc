"""Set-up probe, run in a fresh interpreter by the benchmark.

    python3 perfbench/probe.py '<json args>'

Times importing market_abm (with the modules the CLI loads) and building the
workload's configs, which is what a user pays before the first run starts.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    started = time.perf_counter()
    sys.path.insert(0, args["src"])
    import market_abm  # noqa: F401
    from market_abm import analytics, cli, engine, runio  # noqa: F401

    imported = time.perf_counter()
    for seed in args["seeds"]:
        cli.experiment_config(1.0, args["homogeneous"], {"steps": args["steps"], "seed": seed})
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "config_s": built - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
