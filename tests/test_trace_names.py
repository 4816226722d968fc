"""The benchmark's tracer wraps library callables by name; every name must exist.

`perfbench/tracer.py` looks each name up as `owner.__dict__[name]`. A helper
the step loop no longer calls must therefore stay defined on its owner, or a
traced benchmark run (`perfbench/run.py --trace 1`) fails. These tests import
`perfbench/` and leave it unchanged.
"""

import sys
from pathlib import Path

import pytest

from market_abm import analytics, engine, runio
from market_abm.book import OrderBook

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """perfbench's `workloads` and `tracer` modules, imported from its directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, tracer


def traced_names(workloads):
    """(owner, attribute) for every callable `install_tracer` wraps."""
    return (
        [(engine, name) for name in workloads.ENGINE_CALLS]
        + [(OrderBook, name) for name in workloads.BOOK_METHODS]
        + [(runio, name) for name in workloads.RUNIO_CALLS]
        + [(analytics, name) for name in workloads.ANALYTICS_CALLS]
    )


def test_every_traced_name_is_defined_on_its_owner(bench):
    workloads, _ = bench
    missing = [f"{owner.__name__}.{name}" for owner, name in traced_names(workloads)
               if not callable(vars(owner).get(name))]
    assert missing == []


def test_install_and_restore_round_trip(bench):
    workloads, tracer = bench
    originals = {(owner, name): vars(owner)[name] for owner, name in traced_names(workloads)}
    t = tracer.Tracer()
    workloads.install_tracer(t)
    try:
        wrapped = [key for key, fn in originals.items() if vars(key[0])[key[1]] is not fn]
    finally:
        t.restore()
    assert len(wrapped) == len(originals)
    assert all(vars(owner)[name] is fn for (owner, name), fn in originals.items())
