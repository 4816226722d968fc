"""Golden trajectory pin: exact output digests of two short recipe runs,
the heterogeneous market and the all-fundamentalist control.

Any change that moves a trajectory by one byte fails here. Refactors and
speedups must keep these digests. A model change that is meant to move the
trajectory re-pins them, with a CHANGES.md entry that says why it moved.

Besides `steps.csv` (whose `fundamental_value` column is the fundamental
path) and `trades.csv`, the pin covers each run's rejection counters and
final per-agent holdings, book snapshots, and every file `market-abm
analyze` writes over the two run directories (which reads them back
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

# `analyze` over the two runs, with thin thresholds, at the default bin width.
ANALYZE_ARGS = ["--burn-periods", "5", "--min-obs", "2"]
ANALYSIS_FILES = {
    "analysis.json": "3eb926a2f36b4062e3f61c56f5610da8ecf8dc38da568515637661031209a5d0",
    "ccdf_first_gap.csv": "77c575943a665d8f325bc3600e1fd82d86e621531af324ca4b6a0602101f5746",
    "ccdf_return_negative.csv": "ae10cbb4d1c961017d8b87ed053baa11a3af9fde980e7ca258dd15a0db498f92",
    "ccdf_return_positive.csv": "9666b3ad09f11f9ad454a9b7635d823b65d95d8552e3fff987a09efe032d8f6a",
    "ccdf_spread.csv": "e70b9814baa45c62afd92eed593e05faff943c9a127cc5f7306c8d6184fa5f42",
    "fn_first_gap.csv": "d65fba17bb0f2357ad8d6e6ceb99a804dbb77e9f0915ac2a8291817cc3dc4ddb",
    "fn_fv_return.csv": "9eb232667e44108e4f988dbc279892cd4a4f65a2cd9ed3526950c0f0010e81d7",
    "fn_return.csv": "ef65e7b2ffa7958431392d222f11738d1ceff5b9da9cd18d91d3eb63c5837e13",
    "fn_spread.csv": "07fd89f84a32966c64d58dd0dab69a2c39e724d06a0e0efdf514c734ad3cad8d",
    "fn_volatility.csv": "7f59a6f0d243840ca1251bb37c19e658ae82bf2cb1160a44cc5bf4bc7bccb42a",
    "fn_volume.csv": "49827a8c5f247aa8c32a23d362b65ae49b8ea298de39d3ab2f9781f5c28f309b",
    "ne_vs_pc_first_gap.csv": "d8bb6e495b94813e2ce523e067f96e1d557e2626804746a2587e041994c7b33c",
    "ne_vs_pc_spread.csv": "c6812fd13c047dad793cc0a1673d75ec956823121da3aaa0f20ac0ed8a77ec3d",
    "ne_vs_pc_volatility.csv": "b201c9855718fd9d2a09bf1e34a657ab8d510b8fb924e2969af27177adf784e1",
}
# The files that differ at `--bin-width 0.01`, fine enough that every sigma
# curve is written.
FINE_BINS = ["--bin-width", "0.01"]
FINE_BIN_FILES = {
    "analysis.json": "24addb76a85b94dab6b176453a3680ccf2f6897f9eb10d3c7406d6e7bdd40a93",
    "ne_vs_pc_first_gap.csv": "e80e0f174887599c1025f1537ec6c57b769aba5da62a807205482dae9d37f721",
    "ne_vs_pc_spread.csv": "94a81da1e873dca62c95ebb4f79e3e28b2d1c8a22273cbad0f1e4012bdcd6777",
    "ne_vs_pc_volatility.csv": "fbc20c3cbb26d9aa61b65175966d95838ba8be97b1ebca2e4162436362a10eb8",
    "sigma_vs_pc_first_gap.csv": "7e5a8549271a83b2e9b660d90fce6f795f4f0498f7a84fbe96ff1db3fc70f6cd",
    "sigma_vs_pc_spread.csv": "5337804afb12ea4a010a0a6773ab325e64e496e0d53d2de1632ee2afb706f478",
    "sigma_vs_pc_volatility.csv": "5e27cefe98dc46aff55a2953efa16fbbec5aaef3910573ea1a40484563c77c35",
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


def analysis_digests(root, out, *extra_args) -> dict:
    """sha256 of each file `analyze` writes over the golden runs."""
    assert main(["analyze", "--in", str(root), "--out", str(out), *ANALYZE_ARGS, *extra_args]) == 0
    return {p.name: sha256_file(p) for p in out.iterdir()}


def test_golden_analysis(golden_root, tmp_path):
    assert analysis_digests(golden_root[0], tmp_path / "analysis") == ANALYSIS_FILES


def test_golden_analysis_fine_bins(golden_root, tmp_path):
    written = analysis_digests(golden_root[0], tmp_path / "analysis", *FINE_BINS)
    assert written == {**ANALYSIS_FILES, **FINE_BIN_FILES}
