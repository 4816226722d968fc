"""The column-wise run writers and the loader against row-wise oracles.

`oracles.py` keeps the original row-at-a-time writers (one f-string and a
`format(v, ".12g")` per field) and the whole-file `np.genfromtxt` loader.
The library formats each distinct value of a block of `_BLOCK_ROWS` rows
once and parses the same blocks with `np.loadtxt` into preallocated columns;
it must write the same bytes and load the same arrays, with the same dtypes.
The pooled tests draw every column from a few values, so that values repeat
within a block and across block boundaries.
"""

import tracemalloc
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

# quiet and signalling NaNs of either sign, some with payload bits
PAYLOAD_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
                         0xFFF0000000000001, 0x7FF00000DEADBEEF],
                        dtype=np.uint64).view(np.float64).tolist()
float_pools = st.lists(st.floats(allow_nan=True, allow_infinity=True)
                       | st.sampled_from(SPECIAL + PAYLOAD_NANS), min_size=1, max_size=4)
int_pools = st.lists(st.integers(-(2**40), 2**40) | st.sampled_from([0, 2**40, -(2**40)]),
                     min_size=1, max_size=4)
flag_pools = st.sampled_from([[False], [True], [False, True]])
pooled_sizes = st.sampled_from([B - 1, B, B + 1, 2 * B + 3]) | st.integers(1, 40)


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


def pooled(rng, n, pool, dtype) -> np.ndarray:
    """`n` values that cycle through `pool` in a shuffled order: every pool
    value appears when `n >= len(pool)`, and most values repeat."""
    return rng.permutation(np.resize(np.array(pool, dtype=dtype), n))


def make_pooled_records(n, seed, floats, ints, flags) -> StepRecords:
    rng = np.random.default_rng(seed)
    pools = {"f": floats, "i": ints, "b": flags}
    return StepRecords(**{name: pooled(rng, n, pools[np.dtype(dtype).kind], dtype)
                          for name, dtype in STEP_SCHEMA})


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
    loaded = load_steps_csv(tmp / "new.csv", n)
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


@settings(max_examples=40, deadline=None)
@given(n=pooled_sizes, seed=seeds, floats=float_pools, ints=int_pools, flags=flag_pools)
@example(n=6, seed=0, floats=[0.0, -0.0], ints=[0, 1], flags=[False, True])
@example(n=B + 1, seed=1, floats=PAYLOAD_NANS, ints=[1], flags=[False])
@example(n=9, seed=2, floats=[np.inf, -np.inf, 299.9995], ints=[-3, 3], flags=[False, True])
@example(n=B, seed=3, floats=[299.9995], ints=[7], flags=[False])
@example(n=2 * B + 3, seed=4, floats=[1e17, -1e-300], ints=[2**40, -(2**40), 0], flags=[True])
def test_pooled_columns_match_oracles(tmp_path_factory, n, seed, floats, ints, flags):
    tmp = tmp_path_factory.mktemp("pooled")
    records = make_pooled_records(n, seed, floats, ints, flags)
    write_steps_csv(tmp / "steps_new.csv", records)
    oracles.write_steps_csv(tmp / "steps_old.csv", records)
    assert (tmp / "steps_new.csv").read_bytes() == (tmp / "steps_old.csv").read_bytes()
    assert_same_records(load_steps_csv(tmp / "steps_new.csv", n),
                        oracles.load_steps_csv(tmp / "steps_old.csv"))

    rng = np.random.default_rng(seed)
    trades = TradeRecords(
        step=pooled(rng, n, ints, np.int64),
        price=pooled(rng, n, floats, np.float64),
        buyer_id=pooled(rng, n, ints, np.int64),
        seller_id=pooled(rng, n, ints, np.int64),
        aggressor=pooled(rng, n, [0, 1], np.int8),
    )
    write_trades_csv(tmp / "trades_new.csv", trades)
    oracles.write_trades_csv(tmp / "trades_old.csv", trades)
    assert (tmp / "trades_new.csv").read_bytes() == (tmp / "trades_old.csv").read_bytes()

    rows = list(zip(records.price.tolist(), records.depth.tolist()))
    write_lob_snapshot(tmp / "lob_new.csv", rows)
    oracles.write_lob_snapshot(tmp / "lob_old.csv", rows)
    assert (tmp / "lob_new.csv").read_bytes() == (tmp / "lob_old.csv").read_bytes()


def write_peak(path, records: StepRecords) -> int:
    """tracemalloc's peak, in bytes, while `write_steps_csv` writes `records`."""
    tracemalloc.start()
    try:
        write_steps_csv(path, records)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_peak_does_not_grow_with_the_row_count(tmp_path):
    """The writer holds one block's fields at a time: mostly distinct values
    over 3 blocks peak within 1.1x of 1 block."""
    one = write_peak(tmp_path / "one.csv", make_records(B, 5, [1.0]))
    three = write_peak(tmp_path / "three.csv", make_records(3 * B, 5, [1.0]))
    assert three <= 1.1 * one


def load_peak(path, n_rows: int) -> int:
    """tracemalloc's peak while `load_steps_csv` loads `n_rows` rows, less the
    bytes of the records it returns."""
    tracemalloc.start()
    try:
        records = load_steps_csv(path, n_rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(getattr(records, name).nbytes for name in STEP_COLUMNS)


def test_load_peak_beyond_the_records_does_not_grow_with_the_row_count(tmp_path):
    """The loader holds one block's text and matrix besides the records: mostly
    distinct values over 3 blocks peak within 1.1x of 1 block."""
    write_steps_csv(tmp_path / "one.csv", make_records(B, 5, [1.0]))
    write_steps_csv(tmp_path / "three.csv", make_records(3 * B, 5, [1.0]))
    one = load_peak(tmp_path / "one.csv", B)
    assert load_peak(tmp_path / "three.csv", 3 * B) <= 1.1 * one
