"""The column-wise run writers and the loader against row-wise oracles.

`oracles.py` keeps the original row-at-a-time writers (one f-string and a
`format(v, ".12g")` per field) and the `np.genfromtxt` loader. The library
formats whole columns in blocks of `_BLOCK_ROWS` rows and parses with
`np.loadtxt`; it must write the same bytes and load the same arrays, with
the same dtypes.
"""

from dataclasses import fields

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from market_abm.engine import STEP_COLUMNS, STEP_SCHEMA, StepRecords, TradeRecords
from market_abm.runio import (
    _BLOCK_ROWS,
    load_steps_csv,
    write_lob_snapshot,
    write_steps_csv,
    write_trades_csv,
)

B = _BLOCK_ROWS
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, -1e-300, 1e17, -1e17, 5e-324, 1e308, 299.9995]
SIZES = [0, 1, 2, B - 1, B, B + 1, 2 * B + 3]

sizes = st.sampled_from(SIZES) | st.integers(0, 40)
seeds = st.integers(0, 2**32 - 1)
pools = st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8)


def float_column(rng, n, pool):
    """Mostly finite values across many magnitudes, about a third from `pool` or SPECIAL."""
    col = rng.uniform(0.0, 1000.0, n) * 10.0 ** rng.integers(-20, 20, n)
    col[rng.random(n) < 0.5] *= -1.0
    mask = rng.random(n) < 0.35
    col[mask] = rng.choice(np.array(pool + SPECIAL), int(mask.sum()))
    return col


def int_column(rng, n):
    col = rng.integers(0, 600, n)
    mask = rng.random(n) < 0.1
    col[mask] = rng.integers(-(2**40), 2**40, int(mask.sum()))
    return col


def make_records(n, seed, pool) -> StepRecords:
    rng = np.random.default_rng(seed)
    columns = {}
    for name, dtype in STEP_SCHEMA:
        kind = np.dtype(dtype).kind
        if kind == "f":
            columns[name] = float_column(rng, n, pool)
        elif kind == "b":
            columns[name] = rng.random(n) < 0.5
        else:
            columns[name] = int_column(rng, n).astype(dtype)
    return StepRecords(**columns)


def assert_same_records(got: StepRecords, want: StepRecords) -> None:
    for name, dtype in STEP_SCHEMA:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.dtype(dtype), name
        assert np.array_equal(a, b, equal_nan=True), name
        if a.dtype.kind == "f":
            assert np.array_equal(np.signbit(a), np.signbit(b)), name


def test_step_records_fields_follow_schema():
    assert [f.name for f in fields(StepRecords)] == STEP_COLUMNS
    rec = StepRecords.allocate(3)
    for name, dtype in STEP_SCHEMA:
        assert getattr(rec, name).dtype == np.dtype(dtype)
    np.testing.assert_array_equal(rec.step, [1, 2, 3])
    assert np.isnan(rec.price).all() and not rec.traded.any() and (rec.depth == 0).all()


@settings(max_examples=40, deadline=None)
@given(n=sizes, seed=seeds, pool=pools)
@example(n=0, seed=0, pool=[0.0])
@example(n=1, seed=1, pool=[np.nan])
@example(n=B, seed=2, pool=[-0.0])
@example(n=B + 1, seed=3, pool=[1e17])
def test_steps_csv_matches_oracle(tmp_path_factory, n, seed, pool):
    tmp = tmp_path_factory.mktemp("steps")
    records = make_records(n, seed, pool)
    write_steps_csv(tmp / "new.csv", records)
    oracles.write_steps_csv(tmp / "old.csv", records)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
    loaded = load_steps_csv(tmp / "new.csv")
    assert len(loaded) == n
    assert_same_records(loaded, oracles.load_steps_csv(tmp / "old.csv"))


@settings(max_examples=30, deadline=None)
@given(n=sizes, seed=seeds, pool=pools)
@example(n=0, seed=0, pool=[0.0])
@example(n=1, seed=1, pool=[-np.inf])
@example(n=B + 1, seed=2, pool=[1e-300])
def test_trades_csv_matches_oracle(tmp_path_factory, n, seed, pool):
    tmp = tmp_path_factory.mktemp("trades")
    rng = np.random.default_rng(seed)
    trades = TradeRecords(
        step=int_column(rng, n),
        price=float_column(rng, n, pool),
        buyer_id=rng.integers(0, 500, n),
        seller_id=rng.integers(0, 500, n),
        aggressor=rng.integers(0, 2, n).astype(np.int8),
    )
    write_trades_csv(tmp / "new.csv", trades)
    oracles.write_trades_csv(tmp / "old.csv", trades)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True),
                               st.integers(-(2**40), 2**40)), max_size=30))
def test_lob_snapshot_matches_oracle(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("lob")
    write_lob_snapshot(tmp / "new.csv", rows)
    oracles.write_lob_snapshot(tmp / "old.csv", rows)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()
