"""Golden trajectory pin: exact output digests of three short recipe runs.

Any change that moves a trajectory by one byte fails here. Refactors and
speedups must keep these digests. A model change that is meant to move the
trajectory re-pins them, with a CHANGES.md entry that says why it moved.

Besides `steps.csv` (whose `fundamental_value` column is the fundamental
path) and `trades.csv`, the pin covers each run's rejection counters and
final per-agent holdings, book snapshots, and every file `market-abm
analyze` writes over the three run directories (which reads them back
through the loader).
"""

import hashlib

import pytest

from market_abm.cli import experiment_config, main
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

# name -> (manifest rejection counters, sha256 of the final (type, cash, shares) rows)
OUTCOMES = {
    "hetero_all_agents": (
        {"band": 2728, "budget_buy": 313, "budget_sell": 329, "no_order": 49, "self_cross": 0},
        "90d05cb96299edefb24659c8ac1b3505a7621ce0e24503b8a52aa9cc056b1161",
    ),
    "hetero_per_trade": (
        {"band": 2478, "budget_buy": 756, "budget_sell": 702, "no_order": 49, "self_cross": 0},
        "3356b2248b1124dbbfa23dcd539b0c8bfdaf92c73e53341b37e6554fbb451925",
    ),
    "control": (
        {"band": 1109, "budget_buy": 634, "budget_sell": 333, "no_order": 0, "self_cross": 0},
        "8c96ed90deb3c96b7c5ed1f0f06f641b452bbc319d8dee7bb691b738d28319a1",
    ),
}

# Extra files of the hetero_all_agents run: book snapshots.
EXTRA_RUN = "hetero_all_agents"
SNAPSHOT_STEPS = (1000, 2500, 5000)
EXTRA_FILES = {
    "lob_1000.csv": "e962a9af61ccb053fb2841e9d2b4327334f07c74333a91e5e41b8706cb5bef2b",
    "lob_2500.csv": "e6a9c7bca96355f49100dd1680474057f98790e10c35d79892dcb462e2499d6c",
    "lob_5000.csv": "fb7f1aa6359f226e9dc948335e2a5ea287406440de8e46eb0e24bb88efd36268",
}

# `analyze` over the three runs; thin thresholds so every curve is written.
ANALYZE_ARGS = ["--burn-periods", "5", "--min-obs", "2"]
ANALYSIS_FILES = {
    "analysis.json": "6072695f79c802917058766fe89a9baeb079a17e09fc69bc4e9ddd71f95de271",
    "ccdf_first_gap.csv": "5219e8de34ebb7d51cca9cfbd8d5a1f6e50f869a628da41e5b53f70770c6e170",
    "ccdf_return_negative.csv": "acd806a2c8598ef1ac30929ee03d3f28eb87fcc51ff208fdeb5d4eb7c74042d1",
    "ccdf_return_positive.csv": "25df4d498951097e337c8018241eed890a3639e02a9cbc98c30fd4bcf39174e6",
    "ccdf_spread.csv": "8614bbf338d4d183ce1cbb5a2faba93fb1e9921ae7e4a4307fe3500ace52472a",
    "fn_first_gap.csv": "87cd9bebe143076261c5fb66547d620ee311aa659512e90161b0407eb315a0ac",
    "fn_fv_return.csv": "9eb232667e44108e4f988dbc279892cd4a4f65a2cd9ed3526950c0f0010e81d7",
    "fn_return.csv": "900b4fdd912a4d83fde69140f99668344d03211c0290aa9721de87188a8435cc",
    "fn_spread.csv": "bc29cc73bccab9dd6fb86b1036e4a8af790a0a4d19e005b3094537850b667603",
    "fn_volatility.csv": "0c7f0032ceb845a22de836c68b5835e5af6e052c30bfc4bc73a34cf8ec97f220",
    "fn_volume.csv": "c72907d63d9fe30eb20e9e47dae8da23b607baaaf361376bace1996591d83466",
    "ne_vs_pc_first_gap.csv": "6444a961fa21ddbf0230bf24a5acba571783bfc0d4c9cb4295122919a53a8e4b",
    "ne_vs_pc_spread.csv": "dadc857d4e7e2bb4d9f804bf047ff530fbd8fe61253952736ded98eb0268fa47",
    "ne_vs_pc_volatility.csv": "ee929230d61015fcc73fa4e8abc39fbafa8c241b5d5af2122b4214d4c01a47dc",
    "sigma_vs_pc_first_gap.csv": "a4dda512a50c1b05586585478634cffaf5c36256ec7f15124d7d890a1e4053bb",
    "sigma_vs_pc_spread.csv": "4ed6bbf43e735e5a11586f6e178346a9a52d03efd8aea2b4c183484fb789841e",
    "sigma_vs_pc_volatility.csv": "70a72359138a3a621e0c43fe433461df0b4d5a81e94d779eaa0c0c4b2552c765",
}


def holdings_sha256(pop, tick: float) -> str:
    """sha256 of one `type,cash,shares` line per agent, in agent order, with
    cash in currency units: its ticks as a float times the tick."""
    rows = "".join(
        f"{kind},{float(cash) * tick!r},{shares}\n"
        for kind, cash, shares in zip(pop.types.tolist(), pop.cash_ticks.tolist(),
                                      pop.shares.tolist())
    )
    return hashlib.sha256(rows.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_root(tmp_path_factory):
    """The golden runs written once, each in `<root>/<name>/`; returns (root,
    run dirs, manifests, holdings digests)."""
    root = tmp_path_factory.mktemp("golden")
    dirs, manifests, holdings = {}, {}, {}
    for name, (homogeneous, overrides, *_pins) in GOLDEN.items():
        cfg = experiment_config(1.0, homogeneous, {"steps": STEPS, "seed": SEED, **overrides})
        snapshots = SNAPSHOT_STEPS if name == EXTRA_RUN else ()
        run = run_simulation(cfg, lob_snapshot_steps=snapshots)
        dirs[name] = root / name
        manifests[name] = write_run(dirs[name], run)
        holdings[name] = holdings_sha256(run.final_population, run.config.tick)
    return root, dirs, manifests, holdings


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trajectory(name, golden_root):
    _root, dirs, manifests, _holdings = golden_root
    _h, _o, steps_sha, trades_sha, switches, clamps, n_trades = GOLDEN[name]
    manifest = manifests[name]
    assert (manifest["switches"], manifest["clamp_events"], manifest["trades"]) == (
        switches, clamps, n_trades,
    )
    assert sha256_file(dirs[name] / "steps.csv") == steps_sha
    assert sha256_file(dirs[name] / "trades.csv") == trades_sha


@pytest.mark.parametrize("name", sorted(OUTCOMES))
def test_golden_rejections_and_holdings(name, golden_root):
    _root, _dirs, manifests, holdings = golden_root
    rejections, holdings_sha = OUTCOMES[name]
    assert manifests[name]["rejections"] == rejections
    assert holdings[name] == holdings_sha


@pytest.mark.parametrize("filename", sorted(EXTRA_FILES))
def test_golden_snapshot_and_fundamental(filename, golden_root):
    _root, dirs, _manifests, _holdings = golden_root
    assert sha256_file(dirs[EXTRA_RUN] / filename) == EXTRA_FILES[filename]


def test_golden_analysis(golden_root, tmp_path, capsys):
    root = golden_root[0]
    out = tmp_path / "analysis"
    assert main(["analyze", "--in", str(root), "--out", str(out), *ANALYZE_ARGS]) == 0
    capsys.readouterr()
    written = {p.name: sha256_file(p) for p in out.iterdir()}
    assert written == ANALYSIS_FILES
