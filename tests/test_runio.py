"""Round-trip tests for the on-disk run format."""

import json

import numpy as np
import pytest

from market_abm.config import SimConfig
from market_abm.engine import STEP_COLUMNS, StepRecords, run_simulation
from market_abm.runio import (
    _BLOCK_ROWS,
    find_run_dirs,
    load_run_dir,
    load_steps_csv,
    run_manifest,
    write_run,
    write_steps_csv,
)


@pytest.fixture(scope="module")
def run_output():
    return run_simulation(SimConfig(steps=800, seed=21), lob_snapshot_steps=[400])


def test_steps_csv_roundtrip(tmp_path, run_output):
    path = tmp_path / "steps.csv"
    write_steps_csv(path, run_output.records)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(STEP_COLUMNS)
    loaded = load_steps_csv(path, len(run_output.records))
    assert len(loaded) == len(run_output.records)
    np.testing.assert_allclose(loaded.price, run_output.records.price, rtol=1e-11)
    np.testing.assert_array_equal(loaded.depth, run_output.records.depth)
    np.testing.assert_array_equal(loaded.traded, run_output.records.traded)
    # NaN quote fields survive as NaN
    np.testing.assert_array_equal(np.isnan(loaded.spread), np.isnan(run_output.records.spread))


def cut_row(path, row):
    """Cut data row `row` (1-based) of a CSV to its first 6 fields."""
    lines = path.read_text().splitlines()
    lines[row] = ",".join(lines[row].split(",")[:6])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("row", [5, _BLOCK_ROWS, _BLOCK_ROWS + 1, _BLOCK_ROWS + 2])
def test_row_cut_short_fails_wherever_it_falls(tmp_path, row):
    # a block's first row is held to the header's width, as the rest are to it
    path = tmp_path / "steps.csv"
    write_steps_csv(path, StepRecords.allocate(_BLOCK_ROWS + 10))
    cut_row(path, row)
    with pytest.raises(ValueError, match="number of columns changed from 14 to 6"):
        load_steps_csv(path, _BLOCK_ROWS + 10)


@pytest.mark.parametrize("rows, n_rows", [(10, 7), (_BLOCK_ROWS + 3, _BLOCK_ROWS - 1),
                                          (_BLOCK_ROWS + 3, 2 * _BLOCK_ROWS), (0, 1), (1, 0)])
def test_row_count_other_than_the_manifest_reports_the_rows(tmp_path, rows, n_rows):
    path = tmp_path / "steps.csv"
    write_steps_csv(path, StepRecords.allocate(rows))
    with pytest.raises(ValueError) as err:
        load_steps_csv(path, n_rows)
    assert str(err.value) == f"{rows} rows, but manifest.json records {n_rows} steps"


def test_write_run_directory(tmp_path, run_output):
    manifest = write_run(tmp_path / "run", run_output)
    assert (tmp_path / "run" / "steps.csv").exists()
    assert (tmp_path / "run" / "trades.csv").exists()
    assert (tmp_path / "run" / "manifest.json").exists()
    assert (tmp_path / "run" / "lob_400.csv").exists()
    on_disk = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert on_disk == manifest
    assert on_disk["seed"] == 21
    assert on_disk["steps"] == 800
    assert on_disk["config"]["n_agents"] == 500
    assert set(on_disk["rejections"]) >= {"band", "budget_buy", "budget_sell"}


def test_trades_csv_schema(tmp_path, run_output):
    write_run(tmp_path / "run", run_output)
    lines = (tmp_path / "run" / "trades.csv").read_text().splitlines()
    assert lines[0] == "step,price,buyer_id,seller_id,aggressor"
    assert len(lines) - 1 == len(run_output.trades)
    first = lines[1].split(",")
    assert first[4] in ("buy", "sell")


def test_lob_snapshot_ask_volumes_negative(tmp_path, run_output):
    write_run(tmp_path / "run", run_output)
    rows = (tmp_path / "run" / "lob_400.csv").read_text().splitlines()[1:]
    volumes = [int(r.split(",")[1]) for r in rows]
    assert any(v < 0 for v in volumes)  # asks
    assert any(v > 0 for v in volumes)  # bids


def test_load_run_dir_returns_manifest(tmp_path, run_output):
    write_run(tmp_path / "run", run_output)
    records, manifest = load_run_dir(tmp_path / "run")
    assert len(records) == 800
    assert manifest["config"]["steps"] == 800


def test_find_run_dirs_nested(tmp_path, run_output):
    write_run(tmp_path / "a" / "seed_1", run_output)
    write_run(tmp_path / "a" / "seed_2", run_output)
    found = find_run_dirs([tmp_path])
    assert [p.name for p in found] == ["seed_1", "seed_2"]


def test_manifest_totals_match_conservation(run_output):
    manifest = run_manifest(run_output)
    cfg = run_output.config
    assert manifest["totals"]["shares"] == cfg.n_agents * cfg.init_shares
    assert manifest["totals"]["cash"] == pytest.approx(cfg.n_agents * cfg.init_cash)
