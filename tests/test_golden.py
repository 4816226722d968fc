"""Golden trajectory pin: exact output digests of three short recipe runs.

Any change that moves a trajectory by one byte fails here. Refactors and
speedups must keep these digests. A model change that is meant to move the
trajectory re-pins them, with a CHANGES.md entry that says why it moved.
"""

import pytest

from market_abm.cli import experiment_config
from market_abm.engine import run_simulation
from market_abm.runio import sha256_file, write_run

STEPS = 5000
SEED = 100

# name -> (homogeneous, config overrides, steps.csv sha256, trades.csv sha256,
#          switches, clamp events, trades)
GOLDEN = {
    "hetero_all_agents": (
        False, {},
        "a7647b84e00cd7c8625e3e7facc031696674c4eeacbb3fb6561528a1feeeeee0",
        "b576fb9fb7dcc749a1b06c600d4ace2e3cf29ea61729b3ca33b011dde8193106",
        35264, 0, 539,
    ),
    "hetero_per_trade": (
        False, {"switch_mode": "per_trade"},
        "b8781b955236e5760c8d9d7bcbf4c4e62e93ef558c02a2bcd686a08502efdc75",
        "9f28dc0bbf72bb029c1eae3244c99671ce2002950d7a0044b705fa2bb958a8d9",
        87, 0, 321,
    ),
    "control": (
        True, {},
        "fece52be754da6cfe798e4d7b538e8b032765fc2d6bc859a4067a75b7ddae857",
        "f6425830740bd7ca0a0ed8bdf35ae67f9d90d5f19d4b7293efbc5397cec408b4",
        0, 0, 131,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trajectory(name, tmp_path):
    homogeneous, overrides, steps_sha, trades_sha, switches, clamps, n_trades = GOLDEN[name]
    cfg = experiment_config(1.0, homogeneous, {"steps": STEPS, "seed": SEED, **overrides})
    run = run_simulation(cfg)
    manifest = write_run(tmp_path, run)
    assert (manifest["switches"], manifest["clamp_events"], manifest["trades"]) == (
        switches, clamps, n_trades,
    )
    assert sha256_file(tmp_path / "steps.csv") == steps_sha
    assert sha256_file(tmp_path / "trades.csv") == trades_sha
