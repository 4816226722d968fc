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
        "46ab5eac3b819a5bde233be94bc5c7abac68572441175e3af19ddfc93b5c8023",
        "904a48374ed89e72a3b9b707bed808330a4575c44a073e02036e7f99e2e5b877",
        36595, 0, 526,
    ),
    "control": (
        True, {},
        "8d15797133cb9c93e2dd3e024ab269ac4f807c63ea7c7ea1ed47c66ac13e8d41",
        "11161fa9c5db9854c72a831fccbf5f9fc9995a5d37391a0e7345001654cd98d6",
        0, 0, 141,
    ),
}

# name -> (manifest rejection counters, sha256 of the final (type, cash, shares) rows)
OUTCOMES = {
    "hetero_all_agents": (
        {"band": 2886, "budget_buy": 299, "budget_sell": 255, "no_order": 55, "self_cross": 0},
        "de2255700f31975d782118799765fb7911c2e3150a5358fe23653fe53e5ba880",
    ),
    "control": (
        {"band": 1110, "budget_buy": 577, "budget_sell": 386, "no_order": 1, "self_cross": 0},
        "9e2f98be25191c3faa5327f2a6f3b65b5b3fd6dae49b04b572a34cdc21fc679d",
    ),
}

# Extra files of the hetero_all_agents run: book snapshots.
EXTRA_RUN = "hetero_all_agents"
SNAPSHOT_STEPS = (1000, 2500, 5000)
EXTRA_FILES = {
    "lob_1000.csv": "06cab8389efcb17fe7cc0688bb4c9f6133ab6cc2107226ccf548fc1301655142",
    "lob_2500.csv": "aa6c5f34ef024fc467b9bc203726a3f14c3e233924cc6b9a0c9b6c26e79ceef2",
    "lob_5000.csv": "55ff51206be5575f48ca3d1ec887256e35417e39b503b67b0db563d507b40c55",
}

# `analyze` over the two runs, with thin thresholds, at the default bin width.
ANALYZE_ARGS = ["--burn-periods", "5", "--min-obs", "2"]
ANALYSIS_FILES = {
    "analysis.json": "388d37dee259faf23537ea17a721d59d1b79e45776ef942d8cb436901a7f717d",
    "ccdf_first_gap.csv": "40aa4a60c4bba2ca2207786e00af5c7c9a75581222a4c988f7c8ea47405c286f",
    "ccdf_return_negative.csv": "0f8c93dc498d4afd2f5846b6fdaf37e20feec440a4a5b656d58471290d0ff208",
    "ccdf_return_positive.csv": "f45b2fe8426c5900797f9b08aeb45a3a4ec9ef76517669d2ceb5c24b0e234e48",
    "ccdf_spread.csv": "36b2b7fa122d66456dba20a2ce9182ce104f95c024792412015fdab5a9e80124",
    "fn_first_gap.csv": "4d4d3bff88b5f2bfac8546cf61f7b7c8d1351cc3b7362550e6f47d592e87de56",
    "fn_fv_return.csv": "9eb232667e44108e4f988dbc279892cd4a4f65a2cd9ed3526950c0f0010e81d7",
    "fn_return.csv": "20db8029743ec9182621dc433dcdf0d07986dcd78b527b1600729c06b1fc80e3",
    "fn_spread.csv": "29a83e7215025fb0e34cfbd7e4af091d8752aec1d02c51b76d4b4739cfdee401",
    "fn_volatility.csv": "1d4faa4b74c23080866e4d3e85b1bbfe65a67c91cda65f3d1cf86f094960b8fb",
    "fn_volume.csv": "35519c3b0caa5f0e7e197610e99311c9790ea1577b8bc00dcc1a38dae7920d16",
    "ne_vs_pc_first_gap.csv": "d84844c79856d1c0e631678f24fa5b8601d2905256ceddb19da808fadcf2044a",
    "ne_vs_pc_spread.csv": "d84844c79856d1c0e631678f24fa5b8601d2905256ceddb19da808fadcf2044a",
    "ne_vs_pc_volatility.csv": "59ea78d87967821591f2eda0b1d2994bec676f99989e7f927ed8cfc8c0e472d1",
}
# The files that differ at `--bin-width 0.005`, fine enough that every sigma
# curve is written.
FINE_BINS = ["--bin-width", "0.005"]
FINE_BIN_FILES = {
    "analysis.json": "cb2af1e3a784ed23a4e0d48530ea95931972b6f4b24c1afb93937edaaf4170eb",
    "ne_vs_pc_first_gap.csv": "d8c3928c9adcd744dc6c481a6bfcbfccc1093405f9b0c1d5a387222877ee2a02",
    "ne_vs_pc_spread.csv": "d8c3928c9adcd744dc6c481a6bfcbfccc1093405f9b0c1d5a387222877ee2a02",
    "ne_vs_pc_volatility.csv": "67f27461f00e3cd18e51708686dd4cd40188e2db3d8afcb8e2e050766e0f22b9",
    "sigma_vs_pc_first_gap.csv": "57f7ef55f548dfccda06f7d28231bfcdae8fc651661548028303b75e0dba5060",
    "sigma_vs_pc_spread.csv": "cb4010b790670f24f2224775458f9e66bf58b041fcd77d536994dc9a9e5f8af8",
    "sigma_vs_pc_volatility.csv": "01b5411f42d623ecb46434f4b2c6800b363016c62635c8c77e04cec344526f96",
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
