"""On-disk formats for runs and analyses.

Each run directory holds `steps.csv` (one row per step, its columns the
fields of `engine.StepRecords` in order), `trades.csv` (one row per trade,
its columns the fields of `engine.TradeRecords`), `manifest.json` (config
echo, seed, totals, rejection counters) and optional `lob_<step>.csv` book
snapshots with ask volumes negative.

Every CSV is written by one helper, `_BLOCK_ROWS` rows at a time. Each
column of a block formats each of its distinct values once, from a table
of that block alone (memory does not grow with the run): floats as `%.12g`
with non-finite values left blank, flags as 0/1, integers as themselves.
The loader reads `steps.csv` back `_BLOCK_ROWS` rows at a time into step
columns allocated once, at the dtypes their fields declare, for the row count
the manifest records (memory follows the records, not the file). Each block's
blank fields become NaN before `np.loadtxt` parses it, and its columns are
stored by header name.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import islice
from math import isfinite
from pathlib import Path

import numpy as np

from .book import Side
from .engine import STEP_COLUMNS, STEP_SCHEMA, TRADE_COLUMNS, RunOutput, StepRecords, TradeRecords

_BLOCK_ROWS = 4096  # rows formatted and written at once: a few MiB of strings
_BLANK_FIELD = re.compile(r",(?=[,\n])")  # an empty field that is not a line's first


def _fields(column: np.ndarray) -> list[str]:
    """CSV fields of one column, each distinct value formatted once. Floats are
    keyed by their bits: `-0.0` stays "-0", and every NaN and ±inf is blank."""
    kind = column.dtype.kind
    keys = column.view(f"i{column.itemsize}") if kind == "f" else column
    distinct, inverse = np.unique(keys, return_inverse=True)
    values = distinct.view(column.dtype).tolist()
    if kind == "f":
        table = ["%.12g" % v if isfinite(v) else "" for v in values]
    elif kind == "b":
        table = ["1" if v else "0" for v in values]
    else:
        table = [str(v) for v in values]
    return np.array(table, dtype=object)[inverse].tolist()


def _write_csv(path: Path, names, columns) -> None:
    """A header line, then the rows of equal-length columns, one block at a time."""
    n_rows = len(columns[0])
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            block = [_fields(c[start:start + _BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")
            del block  # free this block's fields before the next is formatted


def write_steps_csv(path: Path, records: StepRecords) -> None:
    _write_csv(path, STEP_COLUMNS, [getattr(records, name) for name in STEP_COLUMNS])


def load_steps_csv(path: Path, n_rows: int) -> StepRecords:
    """The `n_rows` step records of a steps.csv, parsed one block at a time.
    Another row count raises a ValueError with the rows the file holds, and a
    header without every step column one that names those it lacks. No more
    rows are allocated than the file could hold at one byte per field."""
    path = Path(path)
    capacity = min(n_rows, path.stat().st_size // len(STEP_SCHEMA))
    columns = {name: np.empty(capacity, dtype) for name, dtype in STEP_SCHEMA}
    rows = 0
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        index = {name: j for j, name in enumerate(header)}
        if missing := [name for name in columns if name not in index]:
            raise ValueError(f"header lacks step columns: {', '.join(missing)}")
        while lines := list(islice(fh, _BLOCK_ROWS)):
            try:
                found = lines[0].count(",") + 1  # np.loadtxt holds the other rows to the first
                if found != len(header):
                    raise ValueError(f"the number of columns changed from {len(header)} to "
                                     f"{found} at row 1")
                block = np.loadtxt(_BLANK_FIELD.sub(",nan", "".join(lines)).splitlines(),
                                   delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ValueError(f"rows {rows + 1}-{rows + len(lines)}: {exc}") from None
            if rows + len(block) <= capacity:
                for name, column in columns.items():
                    column[rows:rows + len(block)] = block[:, index[name]]
            rows += len(block)
            del lines, block  # not held while the next block is read
    if rows != n_rows:
        raise ValueError(f"{rows} rows, but manifest.json records {n_rows} steps")
    return StepRecords(**columns)


def write_trades_csv(path: Path, trades: TradeRecords) -> None:
    side = np.where(trades.aggressor == int(Side.BUY), "buy", "sell")
    _write_csv(path, TRADE_COLUMNS,
               [side if name == "aggressor" else getattr(trades, name) for name in TRADE_COLUMNS])


def write_lob_snapshot(path: Path, rows: list[tuple[float, int]]) -> None:
    _write_csv(path, ["price", "volume"], [
        np.array([price for price, _ in rows], dtype=float),
        np.array([volume for _, volume in rows], dtype=np.int64),
    ])


def run_manifest(run: RunOutput) -> dict:
    pop, tick = run.final_population, float(run.config.tick)
    return {
        "seed": run.seed,
        "config": run.config.as_dict(),
        "steps": len(run.records),
        "trades": len(run.trades),
        "rejections": run.rejections,
        "clamp_events": run.clamp_events,
        "switches": run.switch_count,
        "totals": {
            "cash": float(sum(float(c) * tick for c in pop.cash_ticks.tolist())),
            "shares": int(pop.shares.sum()),
        },
    }


def write_run(out_dir: Path, run: RunOutput) -> dict:
    """Write one run directory; returns the manifest dict."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_steps_csv(out_dir / "steps.csv", run.records)
    write_trades_csv(out_dir / "trades.csv", run.trades)
    for step, rows in sorted(run.lob_snapshots.items()):
        write_lob_snapshot(out_dir / f"lob_{step}.csv", rows)
    manifest = run_manifest(run)
    write_json(out_dir / "manifest.json", manifest)
    return manifest


def load_run_dir(run_dir: Path) -> tuple[StepRecords, dict]:
    """Step records and manifest; the manifest, written last, is read first.
    A manifest that is not JSON or lacks a non-negative integer `steps` or an
    integer `config.steps_per_period` (a bool is neither), and a steps.csv that
    lacks a step column or has another row count than the manifest's `steps`,
    raise a ValueError that names the file."""
    run_dir = Path(run_dir)
    manifest_path, path = run_dir / "manifest.json", run_dir / "steps.csv"
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: not JSON: {exc}") from None
    try:
        n_steps, spp = manifest["steps"], manifest["config"]["steps_per_period"]
    except (KeyError, TypeError):
        n_steps = spp = None
    if not (type(n_steps) is int and n_steps >= 0 and type(spp) is int):
        raise ValueError(f"{manifest_path}: needs integer steps and config.steps_per_period")
    try:
        return load_steps_csv(path, n_steps), manifest
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def find_run_dirs(roots) -> list[Path]:
    """Run directories (holding steps.csv) under any of the given roots."""
    dirs = []
    for root in roots:
        root = Path(root)
        if (root / "steps.csv").exists():
            dirs.append(root)
        dirs.extend(sorted(p.parent for p in root.glob("**/steps.csv") if p.parent != root))
    seen = set()
    unique = []
    for d in dirs:
        if d not in seen:
            seen.add(d)
            unique.append(d)
    return unique


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays and NaN into JSON-safe values."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else None
    return obj


def write_json(path: Path, obj) -> None:
    """`obj` as JSON-safe values, indented, keys sorted, with a final newline."""
    Path(path).write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def write_analysis(out_dir: Path, report) -> None:
    """analysis.json plus one plot-ready CSV, `<kind>_<name>.csv`, per curve
    in `report.plots[kind][name]`; the curve's keys are the column names."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "analysis.json", report.tables())
    for kind, curves in report.plots.items():
        for name, data in curves.items():
            _write_csv(out_dir / f"{kind}_{name}.csv", list(data),
                       [np.asarray(column, dtype=float) for column in data.values()])
